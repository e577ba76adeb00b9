#ifndef GEM_TESTS_COMMON_GOLDEN_H_
#define GEM_TESTS_COMMON_GOLDEN_H_

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/gem.h"
#include "store/format.h"
#include "store/snapshot_v2.h"

// Golden-fixture helpers shared by golden_scores_test and
// drift_golden_test. Suites including this header link gem_store.
namespace gem::testing {

/// True when GEM_REGEN_GOLDEN asks the suites to rewrite their
/// fixtures in the source tree instead of comparing against them.
inline bool RegenGolden() { return std::getenv("GEM_REGEN_GOLDEN") != nullptr; }

/// Under GEM_REGEN_GOLDEN rewrites `golden_path` with `actual` and
/// skips; otherwise compares `actual` line by line against it.
inline void CheckGolden(const std::string& golden_path,
                        const std::vector<std::string>& actual) {
  if (RegenGolden()) {
    std::ofstream out(golden_path, std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path;
    for (const std::string& line : actual) out << line << '\n';
    ASSERT_TRUE(out.good());
    GTEST_SKIP() << "regenerated " << golden_path << " ("
                 << actual.size() << " lines) — commit the new fixtures";
  }

  std::ifstream in(golden_path);
  ASSERT_TRUE(in.good())
      << golden_path << " missing — run with GEM_REGEN_GOLDEN=1";
  std::vector<std::string> expected;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) expected.push_back(line);
  }

  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i], expected[i])
        << "line " << i << " of " << golden_path << " drifted; "
        << "if the numerics change is intentional, regenerate with "
        << "GEM_REGEN_GOLDEN=1 and commit";
  }
}

/// Saves `gem` as a v2 snapshot under the test temp dir and describes
/// it as golden lines: the file size, then each section's name, length
/// and CRC-32. A change that moves any snapshot byte changes a line.
inline void SnapshotLines(const core::Gem& gem, const std::string& file_name,
                          std::vector<std::string>& lines) {
  const std::string path = std::string(::testing::TempDir()) + "/" + file_name;
  ASSERT_TRUE(store::SaveSnapshotV2(path, gem).ok());
  const StatusOr<store::SnapshotInfo> info = store::InspectSnapshot(path);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  ASSERT_TRUE(info->layout_ok) << info->layout_error;

  lines.push_back("file " + std::to_string(info->file_size));
  char buf[96];
  for (const store::SectionInfo& section : info->sections) {
    ASSERT_TRUE(section.crc_ok) << section.name;
    std::snprintf(buf, sizeof(buf), "%s %llu %08x", section.name.c_str(),
                  static_cast<unsigned long long>(section.length),
                  section.stored_crc);
    lines.push_back(buf);
  }
  std::remove(path.c_str());
}

}  // namespace gem::testing

#endif  // GEM_TESTS_COMMON_GOLDEN_H_
