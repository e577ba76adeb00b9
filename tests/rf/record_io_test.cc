#include "rf/record_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

namespace gem::rf {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

std::vector<ScanRecord> SampleRecords() {
  std::vector<ScanRecord> records(2);
  records[0].timestamp_s = 10.5;
  records[0].inside = true;
  records[0].readings = {{"aa:01", -50.25, Band::k2_4GHz},
                         {"aa:02", -71.0, Band::k5GHz}};
  records[1].timestamp_s = 13.5;
  records[1].inside = false;
  records[1].readings = {{"aa:02", -64.0, Band::k5GHz}};
  return records;
}

TEST(RecordIoTest, RoundTrip) {
  const std::string path = TempPath("records_roundtrip.csv");
  ASSERT_TRUE(SaveRecordsCsv(path, SampleRecords()).ok());
  auto loaded = LoadRecordsCsv(path);
  ASSERT_TRUE(loaded.ok());
  const auto& records = loaded.value();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_DOUBLE_EQ(records[0].timestamp_s, 10.5);
  EXPECT_TRUE(records[0].inside);
  ASSERT_EQ(records[0].readings.size(), 2u);
  EXPECT_EQ(records[0].readings[0].mac, "aa:01");
  EXPECT_DOUBLE_EQ(records[0].readings[0].rss_dbm, -50.25);
  EXPECT_EQ(records[0].readings[1].band, Band::k5GHz);
  EXPECT_FALSE(records[1].inside);
  EXPECT_EQ(records[1].readings.size(), 1u);
}

TEST(RecordIoTest, LoadMissingFileFails) {
  EXPECT_FALSE(LoadRecordsCsv("/nonexistent/nope.csv").ok());
}

TEST(RecordIoTest, MalformedRowRejected) {
  const std::string path = TempPath("records_bad.csv");
  std::ofstream out(path);
  out << "record_id,timestamp_s,inside,mac,rss_dbm,band\n";
  out << "0,1.0,1,aa:01\n";  // too few columns
  out.close();
  EXPECT_FALSE(LoadRecordsCsv(path).ok());
}

TEST(RecordIoTest, EmptyRecordListRoundTrips) {
  const std::string path = TempPath("records_empty.csv");
  ASSERT_TRUE(SaveRecordsCsv(path, {}).ok());
  auto loaded = LoadRecordsCsv(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded.value().empty());
}

TEST(RecordIoTest, HandComposedFileLoads) {
  const std::string path = TempPath("records_hand.csv");
  std::ofstream out(path);
  out << "record_id,timestamp_s,inside,mac,rss_dbm,band\n"
      << "7,100,0,de:ad:be:ef,-80.5,2.4\n"
      << "7,100,0,fe:ed:fa:ce,-60,5\n"
      << "9,103,1,de:ad:be:ef,-55,2.4\n";
  out.close();
  auto loaded = LoadRecordsCsv(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded.value().size(), 2u);
  EXPECT_EQ(loaded.value()[0].readings.size(), 2u);
  EXPECT_TRUE(loaded.value()[1].inside);
}

std::string WriteFile(const char* name, const std::string& body) {
  const std::string path = TempPath(name);
  std::ofstream out(path);
  out << body;
  return path;
}

constexpr const char* kHeader = "record_id,timestamp_s,inside,mac,rss_dbm,band\n";

TEST(RecordIoTest, EmptyFileRejected) {
  const std::string path = WriteFile("records_zero_bytes.csv", "");
  const auto loaded = LoadRecordsCsv(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST(RecordIoTest, HeaderOnlyFileIsEmptyList) {
  const std::string path = WriteFile("records_header_only.csv", kHeader);
  const auto loaded = LoadRecordsCsv(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded.value().empty());
}

TEST(RecordIoTest, NonNumericRssRejected) {
  const std::string path = WriteFile(
      "records_bad_rss.csv", std::string(kHeader) + "0,1.0,1,aa:01,-50dBm,5\n");
  const auto loaded = LoadRecordsCsv(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST(RecordIoTest, NonNumericTimestampRejected) {
  const std::string path = WriteFile(
      "records_bad_ts.csv", std::string(kHeader) + "0,noon,1,aa:01,-50,5\n");
  EXPECT_FALSE(LoadRecordsCsv(path).ok());
}

TEST(RecordIoTest, NonFiniteRssRejectedNamingTheLine) {
  for (const char* value : {"nan", "inf", "-inf"}) {
    SCOPED_TRACE(value);
    const std::string path = WriteFile(
        "records_nonfinite_rss.csv",
        std::string(kHeader) + "0,1.0,1,aa:01,-50,5\n0,1.0,1,aa:02," + value +
            ",5\n");
    const auto loaded = LoadRecordsCsv(path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(loaded.status().ToString().find("line 3"), std::string::npos)
        << loaded.status().ToString();
  }
}

TEST(RecordIoTest, NonFiniteTimestampRejectedNamingTheLine) {
  for (const char* value : {"nan", "inf", "-inf"}) {
    SCOPED_TRACE(value);
    const std::string path = WriteFile(
        "records_nonfinite_ts.csv",
        std::string(kHeader) + "0," + value + ",1,aa:01,-50,5\n");
    const auto loaded = LoadRecordsCsv(path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(loaded.status().ToString().find("line 2"), std::string::npos)
        << loaded.status().ToString();
  }
}

TEST(RecordIoTest, UnknownBandRejected) {
  const std::string path = WriteFile(
      "records_bad_band.csv", std::string(kHeader) + "0,1.0,1,aa:01,-50,6\n");
  const auto loaded = LoadRecordsCsv(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().ToString().find("band"), std::string::npos);
}

TEST(RecordIoTest, RecordIdWithTrailingGarbageRejected) {
  const std::string path = WriteFile(
      "records_bad_id.csv", std::string(kHeader) + "0x7,1.0,1,aa:01,-50,5\n");
  EXPECT_FALSE(LoadRecordsCsv(path).ok());
}

TEST(RecordIoTest, BadInsideFlagRejected) {
  const std::string path = WriteFile(
      "records_bad_inside.csv",
      std::string(kHeader) + "0,1.0,yes,aa:01,-50,5\n");
  EXPECT_FALSE(LoadRecordsCsv(path).ok());
}

TEST(RecordIoTest, InterleavedRecordIdsGroup) {
  // Multi-device logs merged by timestamp interleave ids; rows with the
  // same id must land in one record, first-seen order preserved.
  const std::string path =
      WriteFile("records_interleaved.csv",
                std::string(kHeader) + "1,10,1,aa:01,-50,5\n"
                                       "2,11,0,aa:02,-70,2.4\n"
                                       "1,10,1,aa:03,-55,5\n"
                                       "2,11,0,aa:04,-72,2.4\n");
  const auto loaded = LoadRecordsCsv(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded.value().size(), 2u);
  ASSERT_EQ(loaded.value()[0].readings.size(), 2u);
  EXPECT_EQ(loaded.value()[0].readings[0].mac, "aa:01");
  EXPECT_EQ(loaded.value()[0].readings[1].mac, "aa:03");
  EXPECT_TRUE(loaded.value()[0].inside);
  ASSERT_EQ(loaded.value()[1].readings.size(), 2u);
  EXPECT_FALSE(loaded.value()[1].inside);
}

TEST(RecordIoTest, CrlfLineEndingsLoad) {
  const std::string path = WriteFile(
      "records_crlf.csv",
      "record_id,timestamp_s,inside,mac,rss_dbm,band\r\n"
      "0,1.0,1,aa:01,-50,5\r\n");
  const auto loaded = LoadRecordsCsv(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded.value().size(), 1u);
  EXPECT_EQ(loaded.value()[0].readings[0].band, Band::k5GHz);
}

}  // namespace
}  // namespace gem::rf
