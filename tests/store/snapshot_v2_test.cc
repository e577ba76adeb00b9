// Snapshot format tests. The acceptance bar: a save -> load cycle
// yields BIT-identical Infer scores, through both the copy load
// (LoadSnapshotV2) and the mapped load every server uses
// (MappedModel::Open). Plus the structural guarantees the LRU cache
// leans on: every byte of a v2 file is either CRC-covered or
// required-to-be-zero, so truncation, bit flips, misaligned sections
// and out-of-bounds table entries all surface as clean errors from the
// in-place validation pass, never as UB over the mapping; and a file
// of any other version is refused as such, not reported as corrupt.
// This suite runs under ASan/UBSan in CI.
#include "store/snapshot_v2.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/gem.h"
#include "core/overlay.h"
#include "rf/dataset.h"
#include "store/format.h"
#include "store/mapped_model.h"
#include "store/wire.h"

namespace gem::store {
namespace {

std::string TempPath(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

rf::Dataset SmallDataset(int user = 2, uint64_t seed = 77) {
  rf::DatasetOptions options;
  options.train_duration_s = 180.0;
  options.test_segments = 2;
  options.test_segment_duration_s = 60.0;
  options.seed = seed;
  return rf::GenerateScenarioDataset(rf::HomePreset(user), options);
}

core::GemConfig FastConfig() {
  core::GemConfig config;
  config.bisage.dimension = 8;
  config.bisage.epochs = 1;
  return config;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

void PutU64At(std::string* bytes, size_t at, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    (*bytes)[at + i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  }
}

void PutU32At(std::string* bytes, size_t at, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    (*bytes)[at + i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  }
}

uint32_t GetU32At(const std::string& bytes, size_t at) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<unsigned char>(bytes[at + i]))
         << (8 * i);
  }
  return v;
}

/// Re-seals the table and header CRCs after an edit to the section
/// table, so ONLY the targeted invariant trips — not the checksums
/// that would otherwise mask it.
void ResealTableAndHeader(std::string* bytes) {
  const uint32_t section_count = GetU32At(*bytes, 12);
  const std::string_view table(bytes->data() + kHeaderSize,
                               section_count * kTableEntrySize);
  PutU32At(bytes, 32, Crc32(table));
  PutU32At(bytes, 36, Crc32(std::string_view(bytes->data(), 36)));
}

/// Rewrites one section-table entry's offset field and re-seals, so
/// only the targeted invariant (alignment, bounds, overlap) trips.
std::string PatchSectionOffset(std::string bytes, size_t entry,
                               uint64_t new_offset) {
  const size_t entry_at = kHeaderSize + entry * kTableEntrySize;
  PutU64At(&bytes, entry_at + 8, new_offset);
  ResealTableAndHeader(&bytes);
  return bytes;
}

/// The two loads every contract below is checked through: the copy
/// load and the mapped load every server uses. Both must refuse bad
/// bytes with the same verdict.
StatusCode CopyLoadCode(const std::string& path) {
  return LoadSnapshotV2(path).code();
}

StatusCode MappedLoadCode(const std::string& path) {
  return MappedModel::Open(path).code();
}

/// Trains once per process; every test body loads from the snapshot.
class SnapshotV2Test : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new rf::Dataset(SmallDataset());
    core::Gem gem(FastConfig());
    ASSERT_TRUE(gem.Train(dataset_->train).ok());
    v2_path_ = new std::string(TempPath("store_v2_test_model_v2.gem"));
    ASSERT_TRUE(SaveSnapshotV2(*v2_path_, gem).ok());
  }

  static void TearDownTestSuite() {
    delete dataset_;
    delete v2_path_;
    dataset_ = nullptr;
    v2_path_ = nullptr;
  }

  static rf::Dataset* dataset_;
  static std::string* v2_path_;
};

rf::Dataset* SnapshotV2Test::dataset_ = nullptr;
std::string* SnapshotV2Test::v2_path_ = nullptr;

/// Streams the whole test segment through `original` and `loaded`,
/// each behind a fresh overlay (as the engine serves them), and
/// requires bit-identical scores, decisions, and self-enhancement
/// updates.
void ExpectBitIdenticalStreams(const core::Gem& original,
                               const core::Gem& loaded,
                               const rf::Dataset& data) {
  core::GemOverlay original_overlay;
  core::GemOverlay loaded_overlay;
  int absorbed = 0;
  for (const rf::ScanRecord& record : data.test) {
    const core::InferenceResult ra = original.Infer(record, original_overlay);
    const core::InferenceResult rb = loaded.Infer(record, loaded_overlay);
    ASSERT_EQ(Bits(ra.score), Bits(rb.score));
    ASSERT_EQ(ra.decision, rb.decision);
    ASSERT_EQ(ra.model_updated, rb.model_updated);
    absorbed += ra.model_updated ? 1 : 0;
  }
  // The streams only stay in lockstep if graph, embedder, detector AND
  // RNG state all round-tripped exactly — prove mutation ran.
  EXPECT_GT(absorbed, 0);
}

/// The byte-at-a-time table CRC-32 (reflected 0xEDB88320) that
/// Crc32's slicing-by-8 must reproduce, value for value.
uint32_t BytewiseCrc32(std::string_view bytes, uint32_t crc = 0) {
  uint32_t table[256];
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  crc ^= 0xFFFFFFFFu;
  for (const char ch : bytes) {
    crc = table[(crc ^ static_cast<uint8_t>(ch)) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, CheckValue) {
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
}

// Every length 0-4096 at every start offset mod 8, so each tail length
// and each alignment of the eight-byte steps meets the byte-wise loop.
TEST(Crc32Test, MatchesBytewiseLoopAtEveryLengthAndOffset) {
  constexpr size_t kMaxLength = 4096;
  std::string buffer(kMaxLength + 8, '\0');
  uint64_t state = 0x9E3779B97F4A7C15ULL;
  for (char& ch : buffer) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    ch = static_cast<char>(state >> 56);
  }
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t length = 0; length <= kMaxLength; ++length) {
      const std::string_view bytes(buffer.data() + offset, length);
      ASSERT_EQ(Crc32(bytes), BytewiseCrc32(bytes))
          << "offset " << offset << ", length " << length;
    }
  }
}

// Chained calls over any split equal one call over the whole span.
TEST(Crc32Test, SplitCallsMatchOneCall) {
  std::string bytes(1000, '\0');
  for (size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<char>((i * 131 + 7) & 0xFF);
  }
  const uint32_t whole = Crc32(bytes);
  ASSERT_EQ(whole, BytewiseCrc32(bytes));
  const std::string_view view(bytes);
  for (size_t split = 0; split <= bytes.size(); ++split) {
    const uint32_t head = Crc32(view.substr(0, split));
    ASSERT_EQ(Crc32(view.substr(split), head), whole) << "split " << split;
  }
  // Three pieces, with odd lengths on both sides of an eight-byte step.
  EXPECT_EQ(Crc32(view.substr(11), Crc32(view.substr(3, 8),
                                          Crc32(view.substr(0, 3)))),
            whole);
}

// Across several randomized homes, save -> load yields a model whose
// Infer scores are BIT-identical to the freshly trained original while
// both stream the same records, through the copy load and the mapped
// load alike.
TEST(SnapshotV2RoundTripTest, RoundTripInferenceIsBitIdentical) {
  struct Home {
    int user;
    uint64_t seed;
  };
  const std::vector<Home> homes = {{0, 11}, {2, 77}, {5, 123}};
  for (const Home& home : homes) {
    SCOPED_TRACE("user " + std::to_string(home.user));
    const rf::Dataset data = SmallDataset(home.user, home.seed);
    core::Gem original(FastConfig());
    ASSERT_TRUE(original.Train(data.train).ok());
    const std::string path =
        TempPath("store_v2_roundtrip_" + std::to_string(home.user) + ".gem");
    ASSERT_TRUE(SaveSnapshotV2(path, original).ok());

    StatusOr<core::Gem> copied = LoadSnapshotV2(path);
    ASSERT_TRUE(copied.ok()) << copied.status().ToString();
    ExpectBitIdenticalStreams(original, *copied, data);

    StatusOr<MappedModel> mapped = MappedModel::Open(path);
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
    ExpectBitIdenticalStreams(original, mapped->gem(), data);
  }
}

TEST_F(SnapshotV2Test, SaveIsDeterministic) {
  auto gem = LoadSnapshotV2(*v2_path_);
  ASSERT_TRUE(gem.ok());
  const std::string resaved = TempPath("store_v2_resaved.gem");
  ASSERT_TRUE(SaveSnapshotV2(resaved, gem.value()).ok());
  EXPECT_EQ(ReadFile(*v2_path_), ReadFile(resaved));
}

TEST_F(SnapshotV2Test, BadMagicRejected) {
  const std::string path = TempPath("store_v2_bad_magic.gem");
  WriteFile(path, "NOTASNAP" + std::string(64, '\0'));
  EXPECT_EQ(CopyLoadCode(path), StatusCode::kDataLoss);
  EXPECT_EQ(MappedLoadCode(path), StatusCode::kDataLoss);
}

// The retired v1 format started with the same magic followed by
// version 1. Such a file is refused as a version mismatch — the bytes
// may be fine, this binary no longer reads them — not as corruption.
TEST_F(SnapshotV2Test, RetiredVersion1Rejected) {
  std::string bytes("GEMSNAP\0", 8);
  bytes.resize(2 * kHeaderSize, '\0');  // longer than a v2 header
  PutU32At(&bytes, 8, 1);               // version
  PutU32At(&bytes, 12, 4);              // v1 section count
  const std::string path = TempPath("store_v2_retired_v1.gem");
  WriteFile(path, bytes);
  EXPECT_EQ(CopyLoadCode(path), StatusCode::kInvalidArgument);
  EXPECT_EQ(MappedLoadCode(path), StatusCode::kInvalidArgument);

  const auto report = InspectSnapshot(path);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().version, 1u);
  EXPECT_FALSE(report.value().layout_ok);
  EXPECT_TRUE(report.value().sections.empty());
}

TEST_F(SnapshotV2Test, FutureVersionRejected) {
  std::string bytes = ReadFile(*v2_path_);
  const std::string path = TempPath("store_v2_future.gem");
  PutU32At(&bytes, 8, 3);
  // Re-seal the header CRC so ONLY the version check can fire.
  PutU32At(&bytes, 36, Crc32(std::string_view(bytes.data(), 36)));
  WriteFile(path, bytes);
  EXPECT_EQ(CopyLoadCode(path), StatusCode::kInvalidArgument);
  EXPECT_EQ(MappedLoadCode(path), StatusCode::kInvalidArgument);
}

TEST_F(SnapshotV2Test, MissingFileIsNotFound) {
  const std::string path = TempPath("store_v2_missing.gem");
  EXPECT_EQ(CopyLoadCode(path), StatusCode::kNotFound);
  EXPECT_EQ(MappedLoadCode(path), StatusCode::kNotFound);
}

TEST_F(SnapshotV2Test, TruncationAtAnyLengthFailsCleanly) {
  const std::string bytes = ReadFile(*v2_path_);
  ASSERT_GT(bytes.size(), 256u);
  const std::string cut_path = TempPath("store_v2_cut.gem");
  const std::vector<size_t> cuts = {
      0, 1, 7, 8, 11, 15, 16, 23, 35, 39, 63,         // inside the header
      64, 64 + 13, 64 + kTableEntrySize,              // inside the table
      bytes.size() / 2, bytes.size() - 64, bytes.size() - 1};
  for (const size_t cut : cuts) {
    SCOPED_TRACE("cut at " + std::to_string(cut));
    WriteFile(cut_path, bytes.substr(0, cut));
    EXPECT_EQ(CopyLoadCode(cut_path), StatusCode::kDataLoss);
    EXPECT_EQ(MappedLoadCode(cut_path), StatusCode::kDataLoss);
  }
}

TEST_F(SnapshotV2Test, AnyFlippedByteFailsCleanly) {
  const std::string bytes = ReadFile(*v2_path_);
  // Every header byte (including the zero pad, which is not
  // CRC-covered and therefore REQUIRED to be zero), every table byte,
  // then a stride across the payloads and padding gaps. A v2 file has
  // no byte whose flip goes unnoticed.
  std::vector<size_t> offsets;
  const uint32_t section_count = GetU32At(bytes, 12);
  const size_t table_end =
      kHeaderSize + section_count * kTableEntrySize;
  for (size_t i = 0; i < table_end; ++i) offsets.push_back(i);
  for (size_t i = table_end; i < bytes.size(); i += 211) {
    offsets.push_back(i);
  }
  offsets.push_back(bytes.size() - 1);

  const std::string flip_path = TempPath("store_v2_flip.gem");
  for (const size_t offset : offsets) {
    SCOPED_TRACE("flip at " + std::to_string(offset));
    std::string corrupt = bytes;
    corrupt[offset] = static_cast<char>(corrupt[offset] ^ 0x40);
    WriteFile(flip_path, corrupt);
    for (const StatusCode code :
         {CopyLoadCode(flip_path), MappedLoadCode(flip_path)}) {
      EXPECT_TRUE(code == StatusCode::kDataLoss ||
                  code == StatusCode::kInvalidArgument)
          << Status(code, "").ToString();
    }
  }
}

TEST_F(SnapshotV2Test, TrailingBytesRejected) {
  const std::string path = TempPath("store_v2_trailing.gem");
  WriteFile(path, ReadFile(*v2_path_) + '\0');
  const auto loaded = LoadSnapshotV2(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
}

TEST_F(SnapshotV2Test, MisalignedSectionOffsetRejected) {
  const std::string bytes = ReadFile(*v2_path_);
  const uint32_t section_count = GetU32At(bytes, 12);
  ASSERT_GE(section_count, 2u);
  const std::string path = TempPath("store_v2_misaligned.gem");
  for (size_t entry = 0; entry < section_count; ++entry) {
    SCOPED_TRACE("entry " + std::to_string(entry));
    const size_t entry_at = kHeaderSize + entry * kTableEntrySize;
    uint64_t offset = 0;
    std::memcpy(&offset, bytes.data() + entry_at + 8, sizeof(offset));
    // Nudge off the 64-byte grid by every sub-alignment the mmap copy
    // could mis-handle (1 = arbitrary, 8 = still double-aligned).
    for (const uint64_t delta : {1ull, 8ull}) {
      WriteFile(path, PatchSectionOffset(bytes, entry, offset + delta));
      const auto loaded = LoadSnapshotV2(path);
      ASSERT_FALSE(loaded.ok());
      EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
    }
  }
}

TEST_F(SnapshotV2Test, OutOfBoundsSectionOffsetRejected) {
  const std::string bytes = ReadFile(*v2_path_);
  const uint32_t section_count = GetU32At(bytes, 12);
  const std::string path = TempPath("store_v2_oob.gem");
  // Aligned offsets that point past (or wrap around) the file: the
  // bounds check must fire before any CRC touches the bytes.
  const std::vector<uint64_t> bad_offsets = {
      AlignUp(bytes.size()), AlignUp(bytes.size()) + (64ull << 20),
      ~uint64_t{0} - 63};  // 64-byte-aligned, offset + length wraps
  for (size_t entry = 0; entry < section_count; ++entry) {
    for (const uint64_t bad : bad_offsets) {
      SCOPED_TRACE("entry " + std::to_string(entry) + " offset " +
                   std::to_string(bad));
      WriteFile(path, PatchSectionOffset(bytes, entry, bad));
      const auto loaded = LoadSnapshotV2(path);
      ASSERT_FALSE(loaded.ok());
      EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
    }
  }
}

// A config with a positive inference fanout was served by sampled
// inference, which this build cannot reproduce: both loads refuse it
// as an invalid argument instead of serving other answers. The edit
// is re-sealed (section, table and header CRCs), so only the fanout
// trips.
TEST_F(SnapshotV2Test, SampledInferenceFanoutRejected) {
  std::string bytes = ReadFile(*v2_path_);
  const auto entries = ParseV2(bytes);
  ASSERT_TRUE(entries.ok()) << entries.status().ToString();
  size_t entry = 0;
  while (entry < entries->size() && (*entries)[entry].tag != kConfigTag) {
    ++entry;
  }
  ASSERT_LT(entry, entries->size());
  const SectionEntry& config = (*entries)[entry];
  // Default two-layer config: the inference-fanout count sits at
  // payload offset 72, its entries at 80 and 84.
  ASSERT_EQ(GetU32At(bytes, config.offset + 72), 2u);
  ASSERT_EQ(GetU32At(bytes, config.offset + 80), 0u);
  ASSERT_EQ(GetU32At(bytes, config.offset + 84), 0u);
  PutU32At(&bytes, config.offset + 80, 3);
  PutU32At(&bytes, kHeaderSize + entry * kTableEntrySize + 24,
           Crc32(std::string_view(bytes.data() + config.offset,
                                  config.length)));
  ResealTableAndHeader(&bytes);

  const std::string path = TempPath("store_v2_sampled_fanout.gem");
  WriteFile(path, bytes);
  EXPECT_EQ(CopyLoadCode(path), StatusCode::kInvalidArgument);
  EXPECT_EQ(MappedLoadCode(path), StatusCode::kInvalidArgument);
}

TEST_F(SnapshotV2Test, InspectReportsSectionTable) {
  const auto v2 = InspectSnapshot(*v2_path_);
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(v2.value().version, 2u);
  EXPECT_TRUE(v2.value().layout_ok) << v2.value().layout_error;
  ASSERT_EQ(v2.value().sections.size(), 6u);
  for (const SectionInfo& section : v2.value().sections) {
    EXPECT_TRUE(section.crc_ok) << section.name;
    EXPECT_TRUE(section.aligned) << section.name;
    EXPECT_EQ(section.offset % kSectionAlignment, 0u);
  }
  // Inspection is the debugging aid for files that refuse to load: a
  // payload flip must come back REPORTED (crc_ok false), not as an
  // error that hides the rest of the table.
  std::string corrupt = ReadFile(*v2_path_);
  corrupt[corrupt.size() - 1] =
      static_cast<char>(corrupt[corrupt.size() - 1] ^ 0x40);
  const std::string path = TempPath("store_v2_inspect_corrupt.gem");
  WriteFile(path, corrupt);
  const auto report = InspectSnapshot(path);
  ASSERT_TRUE(report.ok());
  int bad = 0;
  for (const SectionInfo& section : report.value().sections) {
    bad += section.crc_ok ? 0 : 1;
  }
  EXPECT_EQ(bad, 1);
}

TEST_F(SnapshotV2Test, UntrainedGemRefusesToSave) {
  core::Gem gem(FastConfig());
  const Status status = SaveSnapshotV2(TempPath("store_v2_untrained.gem"),
                                       gem);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace gem::store
