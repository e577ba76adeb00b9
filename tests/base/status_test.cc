#include "base/status.h"

#include <gtest/gtest.h>

#include "base/statusor.h"

namespace gem {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, FactoryConstructorsCarryCodeAndMessage) {
  const Status status = Status::InvalidArgument("bad bins");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "bad bins");
  EXPECT_EQ(status.ToString(), "INVALID_ARGUMENT: bad bins");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_EQ(Status::NotFound("x").ToString(), "NOT_FOUND: x");
  EXPECT_EQ(Status::FailedPrecondition("x").ToString(),
            "FAILED_PRECONDITION: x");
  EXPECT_EQ(Status::OutOfRange("x").ToString(), "OUT_OF_RANGE: x");
  EXPECT_EQ(Status::Internal("x").ToString(), "INTERNAL: x");
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> result(42);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 42);
  EXPECT_EQ(*result, 42);
  EXPECT_TRUE(result.status().ok());
  EXPECT_EQ(result.code(), StatusCode::kOk);
}

TEST(StatusOrTest, HoldsStatus) {
  StatusOr<int> result(Status::NotFound("gone"));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(result.code(), StatusCode::kNotFound);
  EXPECT_EQ(result.status().message(), "gone");
}

TEST(StatusOrTest, MoveOutValue) {
  StatusOr<std::string> result(std::string("payload"));
  ASSERT_TRUE(result.ok());
  const std::string moved = std::move(result).value();
  EXPECT_EQ(moved, "payload");
}

TEST(StatusOrTest, ArrowReachesMembers) {
  StatusOr<std::string> result(std::string("abc"));
  EXPECT_EQ(result->size(), 3u);
}

TEST(StatusOrTest, ImplicitConversionsAtReturn) {
  auto make = [](bool good) -> StatusOr<double> {
    if (good) return 1.5;
    return Status::Internal("boom");
  };
  EXPECT_TRUE(make(true).ok());
  EXPECT_DOUBLE_EQ(make(true).value(), 1.5);
  EXPECT_FALSE(make(false).ok());
}

}  // namespace
}  // namespace gem
