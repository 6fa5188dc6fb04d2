// io/ subsystem tests: columnar partition-file roundtrip, checksum
// corruption detection, manifest verification, cache eviction + pinning
// (including under concurrent queries — the TSan CI job runs this file),
// single-flight cold loads, and prefetch staging.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/hash.h"
#include "common/retry.h"
#include "common/serialize.h"
#include "io/cold_source.h"
#include "io/fault_injector.h"
#include "io/partition_file.h"
#include "io/partition_store.h"
#include "io/prefetch_pipeline.h"
#include "query/compiler.h"
#include "query/evaluator.h"
#include "runtime/query_scheduler.h"
#include "storage/column_set.h"
#include "storage/partition_source.h"
#include "storage/picked_source.h"
#include "storage/sharded_table.h"
#include "workload/datasets.h"

namespace ps3 {
namespace {

std::string MakeSpillDir() {
  std::string tmpl = ::testing::TempDir() + "ps3_io_XXXXXX";
  char* dir = mkdtemp(tmpl.data());
  EXPECT_NE(dir, nullptr);
  return tmpl;
}

/// Flips one byte of a file in place.
void FlipByte(const std::string& path, long offset) {
  FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  int c = std::fgetc(f);
  ASSERT_NE(c, EOF);
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  std::fputc(c ^ 0xFF, f);
  std::fclose(f);
}

std::string PartPath(const std::string& dir, size_t i) {
  char name[32];
  std::snprintf(name, sizeof(name), "part-%06zu.ps3p", i);
  return dir + "/" + name;
}

query::Query CountSumQuery(const storage::Table& t) {
  query::Query q;
  q.aggregates.push_back(query::Aggregate::Count());
  for (size_t c = 0; c < t.schema().num_columns(); ++c) {
    if (t.schema().IsNumeric(c)) {
      q.aggregates.push_back(query::Aggregate::Sum(query::Expr::Column(c)));
      break;
    }
  }
  for (size_t c = 0; c < t.schema().num_columns(); ++c) {
    if (t.schema().IsCategorical(c)) {
      q.group_by.push_back(c);
      break;
    }
  }
  return q;
}

std::vector<std::shared_ptr<storage::Dictionary>> SharedDicts(
    const storage::Table& t) {
  std::vector<std::shared_ptr<storage::Dictionary>> dicts(
      t.schema().num_columns());
  for (size_t c = 0; c < t.schema().num_columns(); ++c) {
    if (t.schema().IsCategorical(c)) dicts[c] = t.column(c).dict_ptr();
  }
  return dicts;
}

/// Bitwise column-by-column comparison of a rehydrated partition table
/// against rows [begin_row, begin_row + loaded.num_rows()) of `t`.
void ExpectTableBitExact(const storage::Table& t, size_t begin_row,
                         const storage::Table& loaded) {
  for (size_t c = 0; c < t.schema().num_columns(); ++c) {
    for (size_t r = 0; r < loaded.num_rows(); ++r) {
      if (t.schema().IsNumeric(c)) {
        uint64_t want, got;
        double wv = t.column(c).NumericAt(begin_row + r);
        double gv = loaded.column(c).NumericAt(r);
        std::memcpy(&want, &wv, sizeof(want));
        std::memcpy(&got, &gv, sizeof(got));
        ASSERT_EQ(want, got) << "col " << c << " row " << r;
      } else {
        ASSERT_EQ(loaded.column(c).CodeAt(r),
                  t.column(c).CodeAt(begin_row + r))
            << "col " << c << " row " << r;
      }
    }
  }
}

void ExpectAnswersEqual(const query::QueryAnswer& a,
                        const query::QueryAnswer& b) {
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [key, vals] : a) {
    auto it = b.find(key);
    ASSERT_NE(it, b.end());
    ASSERT_EQ(vals.size(), it->second.size());
    for (size_t i = 0; i < vals.size(); ++i) {
      uint64_t ba, bb;
      std::memcpy(&ba, &vals[i], sizeof(ba));
      std::memcpy(&bb, &it->second[i], sizeof(bb));
      EXPECT_EQ(ba, bb);
    }
  }
}

// ---------------------------------------------------------------- format

TEST(PartitionFile, RoundtripAllColumnsBitExact) {
  auto bundle = workload::MakeAria(600, /*seed=*/3);
  const storage::Table& t = *bundle.table;
  storage::PartitionedTable pt(bundle.table, 7);
  const std::string dir = MakeSpillDir();

  std::vector<std::shared_ptr<storage::Dictionary>> dicts(
      t.schema().num_columns());
  for (size_t c = 0; c < t.schema().num_columns(); ++c) {
    if (t.schema().IsCategorical(c)) dicts[c] = t.column(c).dict_ptr();
  }
  for (size_t p = 0; p < pt.num_partitions(); ++p) {
    const storage::Partition part = pt.partition(p);
    auto info = io::WritePartitionFile(t, part.begin_row(), part.end_row(),
                                       PartPath(dir, p));
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    EXPECT_GT(info->file_bytes, 0u);

    auto loaded = io::ReadPartitionFile(PartPath(dir, p), t.schema(), dicts);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ASSERT_EQ(loaded->num_rows(), part.num_rows());
    for (size_t c = 0; c < t.schema().num_columns(); ++c) {
      for (size_t r = 0; r < part.num_rows(); ++r) {
        if (t.schema().IsNumeric(c)) {
          uint64_t want, got;
          double wv = part.NumericAt(c, r);
          double gv = loaded->column(c).NumericAt(r);
          std::memcpy(&want, &wv, sizeof(want));
          std::memcpy(&got, &gv, sizeof(got));
          ASSERT_EQ(want, got) << "col " << c << " row " << r;
        } else {
          ASSERT_EQ(part.CodeAt(c, r), loaded->column(c).CodeAt(r));
          ASSERT_EQ(&loaded->column(c).StringAt(r),
                    &t.column(c).StringAt(part.begin_row() + r))
              << "dictionary must be shared, not copied";
        }
      }
    }
  }
}

TEST(PartitionFile, CorruptedSegmentIsDetected) {
  auto bundle = workload::MakeAria(200, /*seed=*/5);
  const storage::Table& t = *bundle.table;
  const std::string dir = MakeSpillDir();
  auto bytes = io::WritePartitionFile(t, 0, t.num_rows(), PartPath(dir, 0));
  ASSERT_TRUE(bytes.ok());

  std::vector<std::shared_ptr<storage::Dictionary>> dicts(
      t.schema().num_columns());
  for (size_t c = 0; c < t.schema().num_columns(); ++c) {
    if (t.schema().IsCategorical(c)) dicts[c] = t.column(c).dict_ptr();
  }
  // Byte 24 sits inside the first column segment (the header is 20
  // bytes): the segment checksum must catch it.
  FlipByte(PartPath(dir, 0), 24);
  auto loaded = io::ReadPartitionFile(PartPath(dir, 0), t.schema(), dicts);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("checksum"), std::string::npos)
      << loaded.status().ToString();
}

TEST(PartitionFile, TruncatedFileIsDetected) {
  auto bundle = workload::MakeAria(200, /*seed=*/6);
  const storage::Table& t = *bundle.table;
  const std::string dir = MakeSpillDir();
  ASSERT_TRUE(
      io::WritePartitionFile(t, 0, t.num_rows(), PartPath(dir, 0)).ok());
  // Truncate to half.
  FILE* f = std::fopen(PartPath(dir, 0).c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  long half = std::ftell(f) / 2;
  std::fclose(f);
  ASSERT_EQ(truncate(PartPath(dir, 0).c_str(), half), 0);

  std::vector<std::shared_ptr<storage::Dictionary>> dicts(
      t.schema().num_columns());
  for (size_t c = 0; c < t.schema().num_columns(); ++c) {
    if (t.schema().IsCategorical(c)) dicts[c] = t.column(c).dict_ptr();
  }
  EXPECT_FALSE(
      io::ReadPartitionFile(PartPath(dir, 0), t.schema(), dicts).ok());
}

// ------------------------------------------------------------ encodings

TEST(PartitionFile, EncodingModesRoundtripBitExact) {
  auto bundle = workload::MakeTpchStar(700, /*seed=*/57);
  const storage::Table& t = *bundle.table;
  auto dicts = SharedDicts(t);
  const std::string dir = MakeSpillDir();

  const io::EncodingMode kModes[] = {
      io::EncodingMode::kRaw, io::EncodingMode::kBitpack,
      io::EncodingMode::kForDelta, io::EncodingMode::kAuto};
  size_t cat_payload_raw = 0;
  size_t cat_payload_auto = 0;
  for (io::EncodingMode mode : kModes) {
    const std::string path = PartPath(dir, static_cast<size_t>(mode));
    auto info = io::WritePartitionFile(t, 0, t.num_rows(), path, mode);
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    ASSERT_EQ(info->encodings.size(), t.schema().num_columns());
    ASSERT_EQ(info->column_bytes.size(), t.schema().num_columns());

    for (size_t c = 0; c < t.schema().num_columns(); ++c) {
      if (t.schema().IsNumeric(c)) {
        // Numeric segments spill raw under every mode.
        EXPECT_EQ(info->encodings[c], io::SegmentEncoding::kRaw)
            << "numeric col " << c << " under " << io::EncodingModeName(mode);
        continue;
      }
      // Forced modes must take effect on every categorical segment
      // (dictionary codes are never negative).
      if (mode == io::EncodingMode::kRaw) {
        EXPECT_EQ(info->encodings[c], io::SegmentEncoding::kRaw);
        cat_payload_raw += info->column_bytes[c];
      } else if (mode == io::EncodingMode::kBitpack) {
        EXPECT_EQ(info->encodings[c], io::SegmentEncoding::kBitpack);
      } else if (mode == io::EncodingMode::kForDelta) {
        EXPECT_EQ(info->encodings[c], io::SegmentEncoding::kForDelta);
      } else {
        cat_payload_auto += info->column_bytes[c];
      }
    }

    auto loaded = io::ReadPartitionFile(path, t.schema(), dicts);
    ASSERT_TRUE(loaded.ok())
        << io::EncodingModeName(mode) << ": " << loaded.status().ToString();
    ASSERT_EQ(loaded->num_rows(), t.num_rows());
    ExpectTableBitExact(t, 0, *loaded);
  }
  // The acceptance bar: dictionary-coded columns shrink at least 2x on
  // disk under auto relative to raw 4-byte codes.
  ASSERT_GT(cat_payload_raw, 0u);
  EXPECT_LE(cat_payload_auto * 2, cat_payload_raw);
}

TEST(PartitionFile, BitFlipInEncodedPayloadIsDetected) {
  auto bundle = workload::MakeAria(500, /*seed=*/59);
  const storage::Table& t = *bundle.table;
  auto dicts = SharedDicts(t);
  const std::string dir = MakeSpillDir();

  const io::EncodingMode kModes[] = {io::EncodingMode::kBitpack,
                                     io::EncodingMode::kForDelta};
  for (size_t m = 0; m < 2; ++m) {
    const std::string path = PartPath(dir, m);
    auto info = io::WritePartitionFile(t, 0, t.num_rows(), path, kModes[m]);
    ASSERT_TRUE(info.ok()) << info.status().ToString();

    // Locate the first categorical column's *encoded* segment: segments
    // are written back to back starting right after the 20-byte header.
    size_t cat = t.schema().num_columns();
    size_t offset = 20;
    for (size_t c = 0; c < t.schema().num_columns(); ++c) {
      if (t.schema().IsCategorical(c)) {
        cat = c;
        break;
      }
      offset += info->column_bytes[c];
    }
    ASSERT_LT(cat, t.schema().num_columns());
    ASSERT_NE(info->encodings[cat], io::SegmentEncoding::kRaw);
    FlipByte(path, static_cast<long>(offset + 1));

    // Decoding the corrupt encoded payload must fail the checksum before
    // any unpacked value is used — a Status, never a wrong answer.
    auto bad = io::ReadPartitionColumns(path, t.schema(), dicts,
                                        storage::ColumnSet::Of({cat}));
    ASSERT_FALSE(bad.ok());
    EXPECT_NE(bad.status().message().find("checksum"), std::string::npos)
        << bad.status().ToString();
    EXPECT_FALSE(io::ReadPartitionFile(path, t.schema(), dicts).ok());
  }
}

TEST(PartitionFile, CorruptFooterMetadataIsDetected) {
  auto bundle = workload::MakeAria(300, /*seed=*/61);
  const storage::Table& t = *bundle.table;
  auto dicts = SharedDicts(t);
  const std::string dir = MakeSpillDir();
  const size_t n_cols = t.schema().num_columns();
  size_t cat = n_cols;
  for (size_t c = 0; c < n_cols; ++c) {
    if (t.schema().IsCategorical(c)) {
      cat = c;
      break;
    }
  }
  ASSERT_LT(cat, n_cols);

  // v2 footer entries are 35 bytes: type, encoding, bit_width, then
  // offset / byte_len / checksum / base. The trailer is 12 bytes.
  const size_t kEntry = 35;
  const size_t kTrailer = 12;

  {  // A flipped bit_width can never reach the decoder.
    const std::string path = PartPath(dir, 0);
    auto info =
        io::WritePartitionFile(t, 0, t.num_rows(), path,
                               io::EncodingMode::kBitpack);
    ASSERT_TRUE(info.ok());
    const size_t footer_off = info->file_bytes - kTrailer - n_cols * kEntry;
    FlipByte(path, static_cast<long>(footer_off + cat * kEntry + 2));
    auto bad = io::ReadPartitionColumns(path, t.schema(), dicts,
                                        storage::ColumnSet::Of({cat}));
    ASSERT_FALSE(bad.ok());
    EXPECT_NE(bad.status().message().find("bit width"), std::string::npos)
        << bad.status().ToString();
  }
  {  // An unknown encoding tag is rejected at footer parse.
    const std::string path = PartPath(dir, 1);
    auto info =
        io::WritePartitionFile(t, 0, t.num_rows(), path,
                               io::EncodingMode::kBitpack);
    ASSERT_TRUE(info.ok());
    const size_t footer_off = info->file_bytes - kTrailer - n_cols * kEntry;
    FlipByte(path, static_cast<long>(footer_off + cat * kEntry + 1));
    auto bad = io::ReadPartitionFile(path, t.schema(), dicts);
    ASSERT_FALSE(bad.ok());
    EXPECT_NE(bad.status().message().find("encoding"), std::string::npos)
        << bad.status().ToString();
  }
}

TEST(PartitionFile, V1RawFileStillReadable) {
  // Hand-write a version-1 file (raw-only segments, 25-byte footer
  // entries): v2 readers must keep opening spills from before the
  // encoding change.
  storage::Schema schema({{"n", storage::ColumnType::kNumeric},
                          {"c", storage::ColumnType::kCategorical}});
  auto dict = std::make_shared<storage::Dictionary>();
  dict->GetOrAdd("a");
  dict->GetOrAdd("b");
  dict->GetOrAdd("c");
  const std::vector<double> nums = {1.5, -2.25, 0.0, 1e9};
  const std::vector<int32_t> codes = {0, 1, 1, 2};

  BinaryWriter w;
  w.PutU32(0x50335350u);  // 'PS3P'
  w.PutU32(1u);           // version 1
  w.PutU64(nums.size());
  w.PutU32(2u);
  const uint64_t num_off = w.buffer().size();
  for (double v : nums) w.PutDouble(v);
  const uint64_t num_len = w.buffer().size() - num_off;
  const uint64_t cat_off = w.buffer().size();
  for (int32_t v : codes) w.PutI32(v);
  const uint64_t cat_len = w.buffer().size() - cat_off;
  const uint64_t footer_off = w.buffer().size();
  w.PutU8(0);  // numeric
  w.PutU64(num_off);
  w.PutU64(num_len);
  w.PutU64(Fnv1a64(w.buffer().data() + num_off, num_len));
  w.PutU8(1);  // categorical
  w.PutU64(cat_off);
  w.PutU64(cat_len);
  w.PutU64(Fnv1a64(w.buffer().data() + cat_off, cat_len));
  w.PutU64(footer_off);
  w.PutU32(0x50335350u);

  const std::string dir = MakeSpillDir();
  const std::string path = PartPath(dir, 0);
  ASSERT_TRUE(w.WriteFile(path).ok());

  std::vector<std::shared_ptr<storage::Dictionary>> dicts = {nullptr, dict};
  auto loaded = io::ReadPartitionFile(path, schema, dicts);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->num_rows(), nums.size());
  for (size_t r = 0; r < nums.size(); ++r) {
    uint64_t want, got;
    const double gv = loaded->column(0).NumericAt(r);
    std::memcpy(&want, &nums[r], sizeof(want));
    std::memcpy(&got, &gv, sizeof(got));
    EXPECT_EQ(want, got) << "row " << r;
    EXPECT_EQ(loaded->column(1).CodeAt(r), codes[r]) << "row " << r;
  }
}

TEST(PartitionFile, V2UnknownEncodingIdIsRejected) {
  // Forward-compat: hand-write a well-formed v2 file (valid magic,
  // footer geometry, and FNV checksums) whose categorical segment
  // carries an encoding id from a future format revision. Today's
  // reader must surface Status at footer parse — never decode the
  // payload as some other encoding, and never crash — for both full
  // reads and reads pruned to the still-valid column.
  storage::Schema schema({{"n", storage::ColumnType::kNumeric},
                          {"c", storage::ColumnType::kCategorical}});
  auto dict = std::make_shared<storage::Dictionary>();
  dict->GetOrAdd("a");
  dict->GetOrAdd("b");
  const std::vector<double> nums = {3.5, -0.25, 42.0, 7e8};
  const std::vector<int32_t> codes = {1, 0, 1, 0};
  const uint8_t kFutureEncoding = 3;  // one past kForDelta

  BinaryWriter w;
  w.PutU32(0x50335350u);  // 'PS3P'
  w.PutU32(2u);           // version 2
  w.PutU64(nums.size());
  w.PutU32(2u);
  const uint64_t num_off = w.buffer().size();
  for (double v : nums) w.PutDouble(v);
  const uint64_t num_len = w.buffer().size() - num_off;
  const uint64_t cat_off = w.buffer().size();
  for (int32_t v : codes) w.PutI32(v);
  const uint64_t cat_len = w.buffer().size() - cat_off;
  const uint64_t footer_off = w.buffer().size();
  w.PutU8(0);  // numeric, raw encoding
  w.PutU8(0);
  w.PutU8(0);
  w.PutU64(num_off);
  w.PutU64(num_len);
  w.PutU64(Fnv1a64(w.buffer().data() + num_off, num_len));
  w.PutU64(0);  // base (unused for raw)
  w.PutU8(1);  // categorical, future encoding
  w.PutU8(kFutureEncoding);
  w.PutU8(0);
  w.PutU64(cat_off);
  w.PutU64(cat_len);
  w.PutU64(Fnv1a64(w.buffer().data() + cat_off, cat_len));
  w.PutU64(0);
  w.PutU64(footer_off);
  w.PutU32(0x50335350u);

  const std::string dir = MakeSpillDir();
  const std::string path = PartPath(dir, 0);
  ASSERT_TRUE(w.WriteFile(path).ok());

  std::vector<std::shared_ptr<storage::Dictionary>> dicts = {nullptr, dict};
  auto full = io::ReadPartitionFile(path, schema, dicts);
  ASSERT_FALSE(full.ok());
  EXPECT_NE(full.status().message().find("unknown segment encoding"),
            std::string::npos)
      << full.status().ToString();
  // Pruning to the valid numeric column does not rescue the file: the
  // footer is rejected as a whole, so a future-format spill can never
  // partially decode into a wrong answer.
  auto pruned = io::ReadPartitionColumns(path, schema, dicts,
                                         storage::ColumnSet::Of({0}));
  ASSERT_FALSE(pruned.ok());
  EXPECT_NE(pruned.status().message().find("unknown segment encoding"),
            std::string::npos)
      << pruned.status().ToString();

  // Same bytes with today's encoding id decode fine — the rejection
  // above is the unknown id, not some other malformation of the file.
  FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, static_cast<long>(footer_off + 35 + 1), SEEK_SET),
            0);
  std::fputc(0, f);  // raw
  std::fclose(f);
  auto fixed = io::ReadPartitionFile(path, schema, dicts);
  ASSERT_TRUE(fixed.ok()) << fixed.status().ToString();
  ASSERT_EQ(fixed->num_rows(), nums.size());
  for (size_t r = 0; r < codes.size(); ++r) {
    EXPECT_EQ(fixed->column(1).CodeAt(r), codes[r]) << "row " << r;
  }
}

// ---------------------------------------------------------------- store

TEST(PartitionStore, SpillOpenFetchRoundtrip) {
  auto bundle = workload::MakeKdd(900, /*seed=*/11);
  storage::PartitionedTable pt(bundle.table, 9);
  const std::string dir = MakeSpillDir();
  ASSERT_TRUE(io::PartitionStore::Spill(pt, dir).ok());

  auto store = io::PartitionStore::Open(dir, {});
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ((*store)->num_partitions(), pt.num_partitions());
  EXPECT_EQ((*store)->num_rows(), bundle.table->num_rows());
  EXPECT_EQ((*store)->schema().num_columns(),
            bundle.table->schema().num_columns());

  size_t total = 0;
  for (size_t p = 0; p < (*store)->num_partitions(); ++p) {
    EXPECT_EQ((*store)->partition_rows(p), pt.partition_rows(p));
    total += (*store)->partition_bytes(p);
    auto pinned = (*store)->Fetch(p);
    ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();
    EXPECT_EQ(pinned->view().num_rows(), pt.partition_rows(p));
  }
  EXPECT_EQ(total, (*store)->total_bytes());
}

TEST(PartitionStore, EncodedBytesAccountingSplitsDiskFromCache) {
  auto bundle = workload::MakeTpchStar(1200, /*seed=*/63);
  storage::PartitionedTable pt(bundle.table, 4);
  const std::string dir = MakeSpillDir();
  ASSERT_TRUE(io::PartitionStore::Spill(pt, dir, {}).ok());  // kAuto
  auto store = io::PartitionStore::Open(dir, {});
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  const size_t n_cols = (*store)->schema().num_columns();

  size_t cat = n_cols;
  for (size_t c = 0; c < n_cols; ++c) {
    if ((*store)->schema().IsCategorical(c)) {
      cat = c;
      break;
    }
  }
  ASSERT_LT(cat, n_cols);

  for (size_t i = 0; i < (*store)->num_partitions(); ++i) {
    // Dictionary-coded segments must be at least 2x smaller on disk than
    // their decoded (cache-unit) size; decoded sizes never change.
    EXPECT_LE((*store)->encoded_column_bytes(i, cat) * 2,
              (*store)->column_bytes(i, cat))
        << "partition " << i;
    EXPECT_EQ((*store)->column_bytes(i, cat),
              (*store)->partition_rows(i) * 4);
  }

  // A single-column cold load reads exactly header + trailer + footer +
  // that segment's *encoded* bytes (20 + 12 + 35 * n_cols format
  // overhead), while the cache is charged the *decoded* size.
  {
    auto pinned = (*store)->Fetch(0, storage::ColumnSet::Of({cat}));
    ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();
  }
  const io::StoreStats stats = (*store)->store_stats();
  EXPECT_EQ(stats.segments_loaded, 1u);
  EXPECT_EQ(stats.bytes_loaded,
            20 + 12 + 35 * n_cols + (*store)->encoded_column_bytes(0, cat));
  EXPECT_EQ((*store)->cache().bytes_cached(),
            (*store)->column_bytes(0, cat));
}

TEST(PartitionStore, ForcedEncodingSpillsScanBitExact) {
  auto bundle = workload::MakeAria(700, /*seed=*/67);
  storage::PartitionedTable pt(bundle.table, 5);
  const storage::ResidentShardedSource flat_src(pt);
  query::Query q = CountSumQuery(*bundle.table);
  const auto resident =
      query::ExactAnswer(q, query::EvaluateAllPartitions(q, flat_src, {}));

  for (io::EncodingMode mode :
       {io::EncodingMode::kRaw, io::EncodingMode::kBitpack,
        io::EncodingMode::kForDelta, io::EncodingMode::kAuto}) {
    const std::string dir = MakeSpillDir();
    io::PartitionStore::SpillOptions sopts;
    sopts.encoding = mode;
    ASSERT_TRUE(io::PartitionStore::Spill(pt, dir, sopts).ok());
    auto store = io::PartitionStore::Open(dir, {});
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    io::ColdShardedSource cold(store->get(), 2);
    const auto spilled =
        query::ExactAnswer(q, query::EvaluateAllPartitions(q, cold, {}));
    ExpectAnswersEqual(resident, spilled);
  }
}

TEST(PartitionStore, CorruptManifestFailsOpen) {
  auto bundle = workload::MakeAria(300, /*seed=*/13);
  storage::PartitionedTable pt(bundle.table, 3);
  const std::string dir = MakeSpillDir();
  ASSERT_TRUE(io::PartitionStore::Spill(pt, dir).ok());
  FlipByte(dir + "/manifest.ps3m", 30);
  auto store = io::PartitionStore::Open(dir, {});
  ASSERT_FALSE(store.ok());
  EXPECT_NE(store.status().message().find("checksum"), std::string::npos);
}

TEST(PartitionStore, CorruptPartitionFailsFetchAndScan) {
  auto bundle = workload::MakeAria(400, /*seed=*/17);
  storage::PartitionedTable pt(bundle.table, 4);
  const storage::ResidentShardedSource flat_src(pt);
  const std::string dir = MakeSpillDir();
  ASSERT_TRUE(io::PartitionStore::Spill(pt, dir).ok());
  FlipByte(PartPath(dir, 2), 40);

  auto store = io::PartitionStore::Open(dir, {});
  ASSERT_TRUE(store.ok());
  EXPECT_TRUE((*store)->Fetch(0).ok());
  EXPECT_FALSE((*store)->Fetch(2).ok());
  EXPECT_EQ((*store)->store_stats().load_errors, 1u);

  // A scan over the store fails that evaluation (thrown Status) without
  // poisoning the pool; a resident query afterwards still works.
  io::ColdShardedSource cold(store->get(), 2);
  query::Query q = CountSumQuery(*bundle.table);
  EXPECT_THROW(query::EvaluateAllPartitions(q, cold, {}), std::runtime_error);
  auto resident = query::EvaluateAllPartitions(q, flat_src, {});
  EXPECT_EQ(resident.size(), pt.num_partitions());

  // Through the scheduler: only the cold query's future is poisoned.
  runtime::QueryScheduler scheduler;
  const storage::ShardedTable st(pt, 2);
  const storage::ResidentShardedSource sharded_src(st);
  auto bad = scheduler.Submit(q, cold);
  auto good = scheduler.Submit(q, sharded_src);
  EXPECT_THROW(bad.get(), std::runtime_error);
  EXPECT_FALSE(good.get().empty());
}

TEST(PartitionStore, FetchOutOfRange) {
  auto bundle = workload::MakeAria(100, /*seed=*/19);
  storage::PartitionedTable pt(bundle.table, 2);
  const std::string dir = MakeSpillDir();
  ASSERT_TRUE(io::PartitionStore::Spill(pt, dir).ok());
  auto store = io::PartitionStore::Open(dir, {});
  ASSERT_TRUE(store.ok());
  EXPECT_FALSE((*store)->Fetch(99).ok());
  EXPECT_FALSE((*store)->Preload(99).ok());
}

// ---------------------------------------------------------------- cache

TEST(PartitionCache, EvictionKeepsBytesWithinBudget) {
  auto bundle = workload::MakeAria(1000, /*seed=*/23);
  storage::PartitionedTable pt(bundle.table, 10);
  const std::string dir = MakeSpillDir();
  ASSERT_TRUE(io::PartitionStore::Spill(pt, dir).ok());

  io::PartitionStore::Options opts;
  auto probe = io::PartitionStore::Open(dir, opts);
  ASSERT_TRUE(probe.ok());
  opts.cache_budget_bytes = (*probe)->total_bytes() / 3;
  auto store = io::PartitionStore::Open(dir, opts);
  ASSERT_TRUE(store.ok());

  for (size_t p = 0; p < (*store)->num_partitions(); ++p) {
    auto pinned = (*store)->Fetch(p);
    ASSERT_TRUE(pinned.ok());
    // Pin dropped at the end of each iteration: bytes must stay bounded.
    EXPECT_LE((*store)->cache().bytes_cached(),
              opts.cache_budget_bytes + (*store)->partition_bytes(p));
  }
  const io::CacheStats stats = (*store)->cache().stats();
  EXPECT_LE(stats.bytes_cached, opts.cache_budget_bytes);
  EXPECT_GT(stats.evictions, 0u);
  // Column-granular cache: one insert per (partition, column) segment.
  EXPECT_EQ(stats.inserts,
            (*store)->num_partitions() * (*store)->schema().num_columns());
  EXPECT_EQ(stats.bytes_pinned, 0u);
}

TEST(PartitionCache, PinnedEntriesSurviveEviction) {
  auto bundle = workload::MakeAria(800, /*seed=*/29);
  storage::PartitionedTable pt(bundle.table, 8);
  const std::string dir = MakeSpillDir();
  ASSERT_TRUE(io::PartitionStore::Spill(pt, dir).ok());

  io::PartitionStore::Options opts;
  auto probe = io::PartitionStore::Open(dir, opts);
  ASSERT_TRUE(probe.ok());
  // Budget of ~1.5 partitions: holding one pin forces inserts to evict
  // around it (and overshoot when nothing is evictable).
  opts.cache_budget_bytes = (*probe)->partition_bytes(0) * 3 / 2;
  auto store = io::PartitionStore::Open(dir, opts);
  ASSERT_TRUE(store.ok());

  auto pinned0 = (*store)->Fetch(0);
  ASSERT_TRUE(pinned0.ok());
  const double want = pinned0->view().NumericAt(0, 0);
  const std::vector<size_t> all_cols =
      storage::ColumnSet::All().Resolve((*store)->schema().num_columns());
  for (size_t p = 1; p < (*store)->num_partitions(); ++p) {
    ASSERT_TRUE((*store)->Fetch(p).ok());
    // The pinned partition's segments are never evicted and its view
    // stays valid.
    EXPECT_TRUE((*store)->cache().ContainsAll(0, all_cols));
    EXPECT_EQ(pinned0->view().NumericAt(0, 0), want);
  }
  EXPECT_GT((*store)->cache().stats().evictions, 0u);
  // Pinned bytes are the partition's *data* segments (format overhead —
  // header/footer — is not cached).
  EXPECT_EQ((*store)->cache().stats().bytes_pinned,
            (*store)->columns_bytes(0, all_cols));

  // Releasing the pin drains the overshoot back under budget.
  pinned0 = Status::Internal("replaced");  // drop the pin
  EXPECT_LE((*store)->cache().bytes_cached(), opts.cache_budget_bytes);
  EXPECT_EQ((*store)->cache().stats().bytes_pinned, 0u);
}

TEST(PartitionStore, SingleFlightColdLoads) {
  auto bundle = workload::MakeAria(500, /*seed=*/31);
  storage::PartitionedTable pt(bundle.table, 2);
  const std::string dir = MakeSpillDir();
  ASSERT_TRUE(io::PartitionStore::Spill(pt, dir).ok());

  io::PartitionStore::Options opts;
  opts.simulated_load_delay_us = 3000;  // widen the race window
  auto store = io::PartitionStore::Open(dir, opts);
  ASSERT_TRUE(store.ok());

  constexpr int kThreads = 6;
  std::vector<std::thread> threads;
  std::vector<size_t> rows(kThreads, 0);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      auto pinned = (*store)->Fetch(0);
      EXPECT_TRUE(pinned.ok());
      if (pinned.ok()) rows[i] = pinned->view().num_rows();
    });
  }
  for (auto& t : threads) t.join();
  for (int i = 0; i < kThreads; ++i) EXPECT_EQ(rows[i], pt.partition_rows(0));
  // One cold load served every concurrent fetch.
  EXPECT_EQ((*store)->store_stats().cold_loads, 1u);
}

// ------------------------------------------------------------- prefetch

TEST(PrefetchPipeline, StagesPartitionsIntoCache) {
  auto bundle = workload::MakeKdd(600, /*seed=*/37);
  storage::PartitionedTable pt(bundle.table, 6);
  const std::string dir = MakeSpillDir();
  ASSERT_TRUE(io::PartitionStore::Spill(pt, dir).ok());
  auto store = io::PartitionStore::Open(dir, {});
  ASSERT_TRUE(store.ok());

  runtime::QueryScheduler scheduler;
  io::PrefetchPipeline pipeline(store->get(), &scheduler);
  const size_t n_cols = (*store)->schema().num_columns();
  const std::vector<size_t> all_cols =
      storage::ColumnSet::All().Resolve(n_cols);
  pipeline.Stage({0, 1, 2});
  pipeline.Drain();
  EXPECT_TRUE((*store)->cache().ContainsAll(0, all_cols));
  EXPECT_TRUE((*store)->cache().ContainsAll(1, all_cols));
  EXPECT_TRUE((*store)->cache().ContainsAll(2, all_cols));
  EXPECT_EQ(pipeline.stats().staged, 3u);

  // A staged partition is a cache hit for the scan path (one hit per
  // column segment).
  const io::CacheStats before = (*store)->cache().stats();
  ASSERT_TRUE((*store)->Fetch(1).ok());
  EXPECT_EQ((*store)->cache().stats().hits, before.hits + n_cols);
  // Restaging cached partitions is a no-op.
  pipeline.Stage({0, 1, 2});
  pipeline.Drain();
  EXPECT_EQ(pipeline.stats().skipped_cached, 3u);
}

// ------------------------------------------------------ column pruning

TEST(PartitionFile, ColumnPrunedReadMatchesFullAndMovesFewerBytes) {
  auto bundle = workload::MakeTpchStar(700, /*seed=*/47);
  const storage::Table& t = *bundle.table;
  const std::string dir = MakeSpillDir();
  ASSERT_TRUE(io::WritePartitionFile(t, 0, t.num_rows(), PartPath(dir, 0)).ok());
  auto dicts = SharedDicts(t);

  size_t full_bytes = 0;
  auto full = io::ReadPartitionColumns(PartPath(dir, 0), t.schema(), dicts,
                                       storage::ColumnSet::All(),
                                       &full_bytes);
  ASSERT_TRUE(full.ok()) << full.status().ToString();

  // Prune to two columns: one numeric, one categorical.
  std::vector<size_t> keep;
  for (size_t c = 0; c < t.schema().num_columns() && keep.size() < 2; ++c) {
    if ((keep.empty() && t.schema().IsNumeric(c)) ||
        (keep.size() == 1 && t.schema().IsCategorical(c))) {
      keep.push_back(c);
    }
  }
  ASSERT_EQ(keep.size(), 2u);
  size_t pruned_bytes = 0;
  auto pruned = io::ReadPartitionColumns(PartPath(dir, 0), t.schema(), dicts,
                                         storage::ColumnSet::Of(keep),
                                         &pruned_bytes);
  ASSERT_TRUE(pruned.ok()) << pruned.status().ToString();
  EXPECT_LT(pruned_bytes, full_bytes);

  // Requested columns are bit-identical to the full read; unrequested
  // columns are empty but correctly typed; the row count survives.
  EXPECT_EQ(pruned->num_rows(), t.num_rows());
  for (size_t c = 0; c < t.schema().num_columns(); ++c) {
    const bool kept = std::find(keep.begin(), keep.end(), c) != keep.end();
    if (!kept) {
      EXPECT_EQ(pruned->column(c).size(), 0u) << "col " << c;
      continue;
    }
    ASSERT_EQ(pruned->column(c).size(), t.num_rows());
    for (size_t r = 0; r < t.num_rows(); ++r) {
      if (t.schema().IsNumeric(c)) {
        uint64_t want, got;
        double wv = full->column(c).NumericAt(r);
        double gv = pruned->column(c).NumericAt(r);
        std::memcpy(&want, &wv, sizeof(want));
        std::memcpy(&got, &gv, sizeof(got));
        ASSERT_EQ(want, got) << "col " << c << " row " << r;
      } else {
        ASSERT_EQ(pruned->column(c).CodeAt(r), full->column(c).CodeAt(r));
      }
    }
  }
}

TEST(PartitionFile, PrunedReadVerifiesOnlyWhatItDecodes) {
  auto bundle = workload::MakeAria(300, /*seed=*/49);
  const storage::Table& t = *bundle.table;
  const std::string dir = MakeSpillDir();
  ASSERT_TRUE(io::WritePartitionFile(t, 0, t.num_rows(), PartPath(dir, 0)).ok());
  auto dicts = SharedDicts(t);

  // Corrupt a byte inside column 0's segment (the header is 20 bytes).
  FlipByte(PartPath(dir, 0), 24);

  // A read that requests column 0 must surface the checksum mismatch as
  // a Status — never a wrong answer.
  auto bad = io::ReadPartitionColumns(PartPath(dir, 0), t.schema(), dicts,
                                      storage::ColumnSet::Of({0}));
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("checksum"), std::string::npos)
      << bad.status().ToString();

  // A read that prunes column 0 away never decodes the corrupt bytes, so
  // it succeeds — and its requested column is intact.
  ASSERT_GE(t.schema().num_columns(), 2u);
  auto good = io::ReadPartitionColumns(PartPath(dir, 0), t.schema(), dicts,
                                       storage::ColumnSet::Of({1}));
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  ASSERT_EQ(good->column(1).size(), t.num_rows());
  for (size_t r = 0; r < t.num_rows(); ++r) {
    if (t.schema().IsNumeric(1)) {
      EXPECT_EQ(good->column(1).NumericAt(r), t.column(1).NumericAt(r));
    } else {
      EXPECT_EQ(good->column(1).CodeAt(r), t.column(1).CodeAt(r));
    }
  }
}

TEST(PartitionStore, PartialResidencyUpgradeFetchesOnlyMissingSegments) {
  auto bundle = workload::MakeTpchStar(900, /*seed=*/53);
  storage::PartitionedTable pt(bundle.table, 3);
  const std::string dir = MakeSpillDir();
  ASSERT_TRUE(io::PartitionStore::Spill(pt, dir).ok());
  auto store = io::PartitionStore::Open(dir, {});
  ASSERT_TRUE(store.ok());
  const size_t n_cols = (*store)->schema().num_columns();
  ASSERT_GE(n_cols, 3u);

  // First scan reads columns {0, 1}.
  {
    auto pinned = (*store)->Fetch(0, storage::ColumnSet::Of({0, 1}));
    ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();
  }
  io::StoreStats after_first = (*store)->store_stats();
  EXPECT_EQ(after_first.segments_loaded, 2u);
  EXPECT_TRUE((*store)->cache().ContainsAll(0, {0, 1}));
  EXPECT_FALSE((*store)->cache().Contains(io::ColumnKey{0, 2}));

  // Second scan widens to {0, 1, 2}: only the missing segment loads.
  auto pinned = (*store)->Fetch(0, storage::ColumnSet::Of({0, 1, 2}));
  ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();
  io::StoreStats after_second = (*store)->store_stats();
  EXPECT_EQ(after_second.segments_loaded - after_first.segments_loaded, 1u);
  EXPECT_GT(after_second.bytes_loaded, after_first.bytes_loaded);
  EXPECT_TRUE((*store)->cache().ContainsAll(0, {0, 1, 2}));

  // The upgraded view is bit-identical to the resident partition on
  // every requested column.
  const storage::Partition resident = pt.partition(0);
  for (size_t c : {size_t{0}, size_t{1}, size_t{2}}) {
    for (size_t r = 0; r < resident.num_rows(); ++r) {
      if ((*store)->schema().IsNumeric(c)) {
        uint64_t want, got;
        double wv = resident.NumericAt(c, r);
        double gv = pinned->view().NumericAt(c, r);
        std::memcpy(&want, &wv, sizeof(want));
        std::memcpy(&got, &gv, sizeof(got));
        ASSERT_EQ(want, got) << "col " << c << " row " << r;
      } else {
        ASSERT_EQ(pinned->view().CodeAt(c, r), resident.CodeAt(c, r));
      }
    }
  }
}

TEST(ColdScan, EvaluatorPrunesToReferencedColumns) {
  auto bundle = workload::MakeTpchStar(2000, /*seed=*/59);
  storage::PartitionedTable pt(bundle.table, 8);
  const storage::ResidentShardedSource flat_src(pt);
  const std::string dir = MakeSpillDir();
  ASSERT_TRUE(io::PartitionStore::Spill(pt, dir).ok());
  auto store = io::PartitionStore::Open(dir, {});
  ASSERT_TRUE(store.ok());
  const size_t n_cols = (*store)->schema().num_columns();

  query::Query q = CountSumQuery(*bundle.table);
  const storage::ColumnSet refs =
      query::ReferencedColumns(query::CompileQuery(q));
  const size_t n_refs = refs.Resolve(n_cols).size();
  ASSERT_LT(n_refs, n_cols) << "query must not reference every column";

  io::ColdShardedSource cold(store->get(), 2);
  auto cold_answers = query::EvaluateAllPartitions(q, cold, {});
  // The scan loaded only the referenced segments of each partition...
  EXPECT_EQ((*store)->store_stats().segments_loaded,
            n_refs * (*store)->num_partitions());
  // ...and the pruned answers are identical to the resident scan's.
  auto resident = query::EvaluateAllPartitions(q, flat_src, {});
  ExpectAnswersEqual(query::ExactAnswer(q, resident),
                     query::ExactAnswer(q, cold_answers));

  // COUNT(*) with no predicate references no columns at all: partition
  // row counts come from the manifest, so zero new segments load.
  const io::StoreStats before = (*store)->store_stats();
  query::Query count_star;
  count_star.aggregates.push_back(query::Aggregate::Count());
  auto counted = query::EvaluateAllPartitions(count_star, cold, {});
  EXPECT_EQ((*store)->store_stats().segments_loaded, before.segments_loaded);
  auto expected = query::ExactAnswer(
      count_star, query::EvaluateAllPartitions(count_star, flat_src, {}));
  ExpectAnswersEqual(expected, query::ExactAnswer(count_star, counted));
}

TEST(PrefetchPipeline, FullUnpinnedCacheStillStagesSmallPlan) {
  // An LRU at its budget with nothing pinned is all evictable headroom:
  // a plan of a quarter of the budget is staged in full (evicting cold
  // entries), not skipped as over budget.
  auto bundle = workload::MakeKdd(2000, /*seed=*/61);
  storage::PartitionedTable pt(bundle.table, 20);
  const std::string dir = MakeSpillDir();
  ASSERT_TRUE(io::PartitionStore::Spill(pt, dir).ok());
  io::PartitionStore::Options opts;
  auto probe = io::PartitionStore::Open(dir, opts);
  ASSERT_TRUE(probe.ok());
  const std::vector<size_t> all_cols =
      storage::ColumnSet::All().Resolve((*probe)->schema().num_columns());
  const size_t part_bytes = (*probe)->columns_bytes(0, all_cols);
  opts.cache_budget_bytes = part_bytes * 8;
  auto store = io::PartitionStore::Open(dir, opts);
  ASSERT_TRUE(store.ok());

  for (size_t p = 8; p < 20; ++p) ASSERT_TRUE((*store)->Fetch(p).ok());
  ASSERT_EQ((*store)->cache().bytes_cached(), opts.cache_budget_bytes);
  ASSERT_EQ((*store)->cache().stats().bytes_pinned, 0u);

  runtime::QueryScheduler scheduler;
  io::PrefetchPipeline pipeline(store->get(), &scheduler);
  // Two single-partition shards: exactly a quarter of the budget.
  pipeline.StageAhead({{0}, {1}}, 0, storage::ColumnSet::All());
  EXPECT_EQ(pipeline.stats().staged, 2u);
  EXPECT_EQ(pipeline.stats().skipped_budget, 0u);
  pipeline.Drain();
  EXPECT_TRUE((*store)->cache().ContainsAll(0, all_cols));
  EXPECT_TRUE((*store)->cache().ContainsAll(1, all_cols));
  EXPECT_EQ(pipeline.stats().load_errors, 0u);
  EXPECT_EQ(pipeline.stats().inflight_bytes, 0u);
}

TEST(PrefetchPipeline, LoadsLandWhileTheOnlyDriverIsBlocked) {
  // Staged loads run on the pipeline's own IO lanes: a scheduler whose
  // only driver is parked (the driver is a query admission slot) must
  // not hold read-ahead back.
  auto bundle = workload::MakeKdd(600, /*seed=*/67);
  storage::PartitionedTable pt(bundle.table, 6);
  const std::string dir = MakeSpillDir();
  ASSERT_TRUE(io::PartitionStore::Spill(pt, dir).ok());
  io::PartitionStore::Options opts;
  opts.simulated_load_delay_us = 2000;
  auto store = io::PartitionStore::Open(dir, opts);
  ASSERT_TRUE(store.ok());
  const std::vector<size_t> all_cols =
      storage::ColumnSet::All().Resolve((*store)->schema().num_columns());

  runtime::QueryScheduler::Options sched_opts;
  sched_opts.num_drivers = 1;
  runtime::QueryScheduler scheduler(sched_opts);
  ASSERT_EQ(scheduler.num_drivers(), 1u);
  io::PrefetchPipeline pipeline(store->get(), &scheduler);

  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  std::promise<void> parked;
  auto blocked = scheduler.Defer([gate, &parked] {
    parked.set_value();
    gate.wait();
  });
  parked.get_future().wait();

  pipeline.Stage({0, 1, 2});
  bool landed = false;
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!landed && std::chrono::steady_clock::now() < give_up) {
    landed = (*store)->cache().ContainsAll(0, all_cols) &&
             (*store)->cache().ContainsAll(1, all_cols) &&
             (*store)->cache().ContainsAll(2, all_cols);
    if (!landed) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  release.set_value();
  blocked.wait();
  EXPECT_TRUE(landed) << "staged loads waited for the scheduler's driver";
  pipeline.Drain();
  EXPECT_EQ(pipeline.stats().staged, 3u);
  EXPECT_EQ(pipeline.stats().inflight_bytes, 0u);
}

TEST(PrefetchPipeline, BulkPlanStagesOnlyNextShardIntoFreeSpace) {
  // A plan over a quarter of the cache budget is a bulk scan: it may not
  // evict anything, so into a full cache it stages nothing, and into an
  // empty one only the shard after the entered one — even when shard
  // entries come far faster than its loads land.
  auto bundle = workload::MakeKdd(1600, /*seed=*/71);
  storage::PartitionedTable pt(bundle.table, 16);
  const std::string dir = MakeSpillDir();
  ASSERT_TRUE(io::PartitionStore::Spill(pt, dir).ok());
  io::PartitionStore::Options opts;
  opts.simulated_load_delay_us = 20000;
  auto probe = io::PartitionStore::Open(dir, opts);
  ASSERT_TRUE(probe.ok());
  const std::vector<size_t> all_cols =
      storage::ColumnSet::All().Resolve((*probe)->schema().num_columns());
  opts.cache_budget_bytes = (*probe)->columns_bytes(0, all_cols) * 12;
  auto store = io::PartitionStore::Open(dir, opts);
  ASSERT_TRUE(store.ok());
  const auto shards = storage::AssignShards(16, 8,
                                            storage::ShardAssignment::kRange);
  ASSERT_EQ(shards[1].size(), 2u);

  // Full cache (partitions 4..15 resident, unpinned).
  for (size_t p = 4; p < 16; ++p) ASSERT_TRUE((*store)->Fetch(p).ok());
  ASSERT_EQ((*store)->cache().bytes_cached(), opts.cache_budget_bytes);

  runtime::QueryScheduler scheduler;
  io::PrefetchPipeline pipeline(store->get(), &scheduler);
  pipeline.StageAhead(shards, 0, storage::ColumnSet::All());
  EXPECT_EQ(pipeline.stats().staged, 0u);
  EXPECT_EQ(pipeline.stats().skipped_budget, shards[1].size());

  // Empty cache: shard 1 at the entry of shard 0; once it has landed,
  // back-to-back entries of shards 1..3 stage shards 2..4, one each.
  (*store)->cache().Clear();
  pipeline.StageAhead(shards, 0, storage::ColumnSet::All());
  EXPECT_EQ(pipeline.stats().staged, 2u);
  pipeline.Drain();
  for (size_t s = 1; s <= 3; ++s) {
    pipeline.StageAhead(shards, s, storage::ColumnSet::All());
  }
  EXPECT_EQ(pipeline.stats().staged, 8u);
  pipeline.Drain();
  for (size_t p = 0; p < 16; ++p) {
    EXPECT_EQ((*store)->cache().ContainsAll(p, all_cols), p >= 2 && p < 10)
        << "partition " << p;
  }
  EXPECT_EQ(pipeline.stats().load_errors, 0u);
  EXPECT_EQ(pipeline.stats().inflight_bytes, 0u);
}

// --------------------------------------------- cold scans, concurrency

TEST(ColdScan, BitExactWithResidentUnderBothPolicies) {
  auto bundle = workload::MakeTpchStar(3000, /*seed=*/41);
  storage::PartitionedTable pt(bundle.table, 11);
  const storage::ResidentShardedSource flat_src(pt);
  const std::string dir = MakeSpillDir();
  ASSERT_TRUE(io::PartitionStore::Spill(pt, dir).ok());

  io::PartitionStore::Options opts;
  auto probe = io::PartitionStore::Open(dir, opts);
  ASSERT_TRUE(probe.ok());
  opts.cache_budget_bytes = (*probe)->total_bytes() / 4;
  auto store = io::PartitionStore::Open(dir, opts);
  ASSERT_TRUE(store.ok());

  query::Query q = CountSumQuery(*bundle.table);
  for (auto policy :
       {query::ExecPolicy::kScalar, query::ExecPolicy::kVectorized}) {
    query::ExecOptions eopts;
    eopts.policy = policy;
    eopts.num_threads = 3;
    auto resident = query::EvaluateAllPartitions(q, flat_src, eopts);
    io::ColdShardedSource cold(store->get(), 4);
    auto colded = query::EvaluateAllPartitions(q, cold, eopts);
    ExpectAnswersEqual(query::ExactAnswer(q, resident),
                       query::ExactAnswer(q, colded));
  }
}

TEST(ColdScan, ConcurrentQueriesSmallCachePinnedScans) {
  // Several queries in flight over one cold store whose budget is far
  // smaller than the table: pinning keeps every in-flight partition
  // valid while eviction churns around them. Run under TSan in CI.
  auto bundle = workload::MakeTpchStar(4000, /*seed=*/43);
  storage::PartitionedTable pt(bundle.table, 16);
  const storage::ResidentShardedSource flat_src(pt);
  const std::string dir = MakeSpillDir();
  ASSERT_TRUE(io::PartitionStore::Spill(pt, dir).ok());

  io::PartitionStore::Options opts;
  auto probe = io::PartitionStore::Open(dir, opts);
  ASSERT_TRUE(probe.ok());
  opts.cache_budget_bytes = (*probe)->total_bytes() / 5;
  opts.simulated_load_delay_us = 200;
  auto store = io::PartitionStore::Open(dir, opts);
  ASSERT_TRUE(store.ok());

  query::Query q = CountSumQuery(*bundle.table);
  const auto expected = query::ExactAnswer(
      q, query::EvaluateAllPartitions(q, flat_src,
                                      {query::ExecPolicy::kScalar, 1}));

  runtime::QueryScheduler scheduler;
  io::PrefetchPipeline pipeline(store->get(), &scheduler);
  io::ColdShardedSource with_prefetch(store->get(), 4,
                                      storage::ShardAssignment::kRange,
                                      &pipeline);
  io::ColdShardedSource no_prefetch(store->get(), 4);

  std::vector<std::future<query::QueryAnswer>> futures;
  for (int i = 0; i < 8; ++i) {
    query::ExecOptions eopts;
    eopts.policy = (i % 2 == 0) ? query::ExecPolicy::kVectorized
                                : query::ExecPolicy::kScalar;
    eopts.num_threads = 2;
    futures.push_back(scheduler.Submit(
        q, (i % 3 == 0) ? no_prefetch : with_prefetch, eopts));
  }
  for (auto& f : futures) ExpectAnswersEqual(expected, f.get());
  EXPECT_EQ((*store)->store_stats().load_errors, 0u);
  EXPECT_EQ((*store)->cache().stats().bytes_pinned, 0u);
}

TEST(ColdScan, PickedScanStagesEachPlanPartitionOnceAndLoadsNoSegmentTwice) {
  // A 4-shard picked scan over a full cache: every shard entry hints the
  // rest of the plan, yet each plan partition is staged at most once,
  // nothing is skipped as over budget, and no segment is read twice.
  auto bundle = workload::MakeTpchStar(4000, /*seed=*/97);
  storage::PartitionedTable pt(bundle.table, 40);
  const storage::ResidentShardedSource flat_src(pt);
  const std::string dir = MakeSpillDir();
  ASSERT_TRUE(io::PartitionStore::Spill(pt, dir).ok());

  query::Query q = CountSumQuery(*bundle.table);
  std::vector<size_t> picked;
  for (size_t p = 1; p < 40; p += 4) picked.push_back(p);
  io::PartitionStore::Options opts;
  opts.simulated_load_delay_us = 2000;
  auto probe = io::PartitionStore::Open(dir, opts);
  ASSERT_TRUE(probe.ok());
  const std::vector<size_t> hinted =
      query::ReferencedColumns(query::CompileQuery(q))
          .Resolve((*probe)->schema().num_columns());
  size_t plan_bytes = 0;
  for (size_t p : picked) plan_bytes += (*probe)->columns_bytes(p, hinted);
  opts.cache_budget_bytes = plan_bytes * 4;
  auto store = io::PartitionStore::Open(dir, opts);
  ASSERT_TRUE(store.ok());

  // Fill the cache with unpinned segments the plan does not read.
  for (size_t p = 0; p < 40; p += 4) ASSERT_TRUE((*store)->Fetch(p).ok());
  ASSERT_GT((*store)->cache().stats().evictions, 0u);

  runtime::QueryScheduler scheduler;
  io::PrefetchPipeline pipeline(store->get(), &scheduler);
  io::ColdShardedSource cold(store->get(), 4,
                             storage::ShardAssignment::kRange, &pipeline);
  const storage::PickedSource view(cold, picked);
  query::ExecOptions eopts;
  eopts.num_threads = 4;
  const io::StoreStats before = (*store)->store_stats();
  auto answers = query::EvaluateAllPartitions(q, view, eopts);
  pipeline.Drain();
  const io::StoreStats after = (*store)->store_stats();

  const io::PrefetchPipeline::PrefetchStats stats = pipeline.stats();
  EXPECT_GT(stats.staged, 0u);
  EXPECT_LE(stats.staged, picked.size());
  EXPECT_EQ(stats.skipped_budget, 0u);
  EXPECT_EQ(stats.load_errors, 0u);
  EXPECT_EQ(after.segments_loaded - before.segments_loaded,
            picked.size() * hinted.size());
  EXPECT_EQ((*store)->cache().stats().bytes_pinned, 0u);
  ExpectAnswersEqual(
      query::ExactAnswer(q, query::EvaluateAllPartitions(
                                q, storage::PickedSource(flat_src, picked),
                                eopts)),
      query::ExactAnswer(q, answers));
}

// ------------------------------------- cancellation, pins, and budget

TEST(PartitionStoreCancel, CancelledFetchReturnsCancelledAndReleasesPins) {
  auto bundle = workload::MakeAria(500, /*seed=*/71);
  storage::PartitionedTable pt(bundle.table, 4);
  const std::string dir = MakeSpillDir();
  ASSERT_TRUE(io::PartitionStore::Spill(pt, dir).ok());
  auto store = io::PartitionStore::Open(dir, {});
  ASSERT_TRUE(store.ok());

  CancelToken token;
  token.Cancel();
  auto pinned = (*store)->Fetch(0, storage::ColumnSet::All(), &token);
  ASSERT_FALSE(pinned.ok());
  EXPECT_EQ(pinned.status().code(), StatusCode::kCancelled);
  // An abort is not a load error — not in the aggregate counter and not
  // in any per-kind one — leaves no pins, and leaves the partition
  // fetchable by the next (healthy) caller.
  const io::StoreStats aborted = (*store)->store_stats();
  EXPECT_EQ(aborted.load_errors, 0u);
  EXPECT_EQ(aborted.transient_errors, 0u);
  EXPECT_EQ(aborted.corrupt_errors, 0u);
  EXPECT_EQ(aborted.lost_errors, 0u);
  EXPECT_EQ(aborted.retries, 0u);
  EXPECT_EQ((*store)->cache().stats().bytes_pinned, 0u);
  auto healthy = (*store)->Fetch(0);
  ASSERT_TRUE(healthy.ok()) << healthy.status().ToString();
  EXPECT_EQ(healthy->view().num_rows(), pt.partition_rows(0));
}

TEST(PartitionStoreCancel, CancelledWaiterUnblocksWhileLoaderCompletes) {
  auto bundle = workload::MakeAria(600, /*seed=*/73);
  storage::PartitionedTable pt(bundle.table, 2);
  const std::string dir = MakeSpillDir();
  ASSERT_TRUE(io::PartitionStore::Spill(pt, dir).ok());
  io::PartitionStore::Options opts;
  opts.simulated_load_delay_us = 30000;  // wide single-flight window
  auto store = io::PartitionStore::Open(dir, opts);
  ASSERT_TRUE(store.ok());

  // The loader claims partition 0's segments and sleeps through the
  // simulated RTT; the waiter piggybacks on the same single-flight load,
  // then its token fires — it must unblock with kCancelled well before
  // the loader lands, and the loader must still complete cleanly.
  CancelToken token;
  std::promise<void> loader_started;
  std::thread loader([&] {
    loader_started.set_value();
    auto pinned = (*store)->Fetch(0);
    EXPECT_TRUE(pinned.ok());
  });
  loader_started.get_future().wait();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
    token.Cancel();
  });
  {
    auto waiting = (*store)->Fetch(0, storage::ColumnSet::All(), &token);
    // Either the waiter lost the race and the load had already landed
    // (ok, pins dropped with this scope) or — the shape this test aims
    // at — it aborted out of the wait.
    if (!waiting.ok()) {
      EXPECT_EQ(waiting.status().code(), StatusCode::kCancelled);
    }
  }
  canceller.join();
  loader.join();
  EXPECT_EQ((*store)->store_stats().load_errors, 0u);
  EXPECT_EQ((*store)->cache().stats().bytes_pinned, 0u);
}

TEST(ColdScanCancel, AbortedColdQueryReleasesEverythingAndSparesSiblings) {
  auto bundle = workload::MakeTpchStar(2000, /*seed=*/79);
  storage::PartitionedTable pt(bundle.table, 12);
  const storage::ResidentShardedSource flat_src(pt);
  const std::string dir = MakeSpillDir();
  ASSERT_TRUE(io::PartitionStore::Spill(pt, dir).ok());
  io::PartitionStore::Options opts;
  opts.simulated_load_delay_us = 500;
  auto store = io::PartitionStore::Open(dir, opts);
  ASSERT_TRUE(store.ok());

  query::Query q = CountSumQuery(*bundle.table);
  const auto expected = query::ExactAnswer(
      q, query::EvaluateAllPartitions(q, flat_src,
                                      {query::ExecPolicy::kScalar, 1}));

  runtime::QueryScheduler scheduler;
  io::PrefetchPipeline pipeline(store->get(), &scheduler);
  io::ColdShardedSource cold(store->get(), 4,
                             storage::ShardAssignment::kRange, &pipeline);

  // A cold query cancelled mid-flight (after its first chunks ran) and a
  // healthy sibling over the same store. The abort must resolve the
  // future with QueryAborted, release every cache pin and all read-ahead
  // budget, and leave the sibling's answer bit-exact.
  for (int round = 0; round < 3; ++round) {
    runtime::SubmitOptions submit;
    submit.cancel = std::make_shared<CancelToken>();
    if (round == 0) submit.cancel->Cancel();  // deterministic abort
    query::ExecOptions eopts;
    eopts.num_threads = 2;
    auto victim = scheduler.Submit(q, cold, submit, eopts);
    auto sibling = scheduler.Submit(q, cold, eopts);
    if (round != 0) submit.cancel->Cancel();  // racy abort
    try {
      ExpectAnswersEqual(expected, victim.get());
      EXPECT_NE(round, 0) << "pre-cancelled query must abort";
    } catch (const QueryAborted& e) {
      EXPECT_EQ(e.status().code(), StatusCode::kCancelled);
    }
    ExpectAnswersEqual(expected, sibling.get());
  }
  pipeline.Drain();
  // The no-leak invariants the abort paths must uphold.
  EXPECT_EQ((*store)->cache().stats().bytes_pinned, 0u);
  EXPECT_EQ(pipeline.stats().inflight_bytes, 0u);
  EXPECT_EQ(pipeline.stats().inflight_batch_bytes, 0u);
  EXPECT_EQ(pipeline.stats().inflight_interactive_bytes, 0u);
  EXPECT_EQ((*store)->store_stats().load_errors, 0u);
}

TEST(PrefetchBudget, FailedColdLoadsReturnAllReservedBudget) {
  // A mid-table corrupt partition makes a slice of every staging pass
  // fail: reservations must come back on the error path too, and demand
  // fetches of the corrupt partition must not leak pins.
  auto bundle = workload::MakeKdd(1200, /*seed=*/83);
  storage::PartitionedTable pt(bundle.table, 8);
  const std::string dir = MakeSpillDir();
  ASSERT_TRUE(io::PartitionStore::Spill(pt, dir).ok());
  FlipByte(PartPath(dir, 3), 40);
  auto store = io::PartitionStore::Open(dir, {});
  ASSERT_TRUE(store.ok());

  runtime::QueryScheduler scheduler;
  io::PrefetchPipeline pipeline(store->get(), &scheduler);
  pipeline.Stage({0, 1, 2, 3, 4, 5, 6, 7});
  pipeline.Drain();
  EXPECT_GE(pipeline.stats().load_errors, 1u);
  EXPECT_EQ(pipeline.stats().inflight_bytes, 0u);

  auto bad = (*store)->Fetch(3);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ((*store)->cache().stats().bytes_pinned, 0u);

  // Budget and cache still serviceable: a second staging pass over the
  // healthy partitions and a demand fetch both proceed normally.
  pipeline.Stage({0, 1, 2});
  pipeline.Drain();
  EXPECT_EQ(pipeline.stats().inflight_bytes, 0u);
  auto good = (*store)->Fetch(1);
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_EQ(good->view().num_rows(), pt.partition_rows(1));
}

TEST(PrefetchBudget, InteractiveReserveSurvivesBatchPressure) {
  // With the cache budget sized to two partitions' decoded bytes and a
  // 50% interactive reserve, batch staging must stop at its share while
  // interactive staging can still admit — the isolation the per-class
  // split exists for.
  auto bundle = workload::MakeKdd(1500, /*seed=*/89);
  storage::PartitionedTable pt(bundle.table, 10);
  const std::string dir = MakeSpillDir();
  ASSERT_TRUE(io::PartitionStore::Spill(pt, dir).ok());
  io::PartitionStore::Options sopts;
  sopts.simulated_load_delay_us = 20000;  // loads stay in flight a while
  auto probe = io::PartitionStore::Open(dir, sopts);
  ASSERT_TRUE(probe.ok());

  const std::vector<size_t> all_cols =
      storage::ColumnSet::All().Resolve((*probe)->schema().num_columns());
  size_t max_part = 0;
  for (size_t p = 0; p < (*probe)->num_partitions(); ++p) {
    max_part = std::max(max_part, (*probe)->columns_bytes(p, all_cols));
  }
  sopts.cache_budget_bytes = max_part * 2;
  auto store = io::PartitionStore::Open(dir, sopts);
  ASSERT_TRUE(store.ok());

  runtime::QueryScheduler scheduler;
  io::PrefetchPipeline::Options popts;
  popts.interactive_reserve_fraction = 0.5;
  io::PrefetchPipeline pipeline(store->get(), &scheduler, popts);

  // Batch staging of everything: admission must cap batch in-flight
  // bytes at half the headroom and skip the rest.
  pipeline.Stage({0, 1, 2, 3, 4, 5, 6, 7, 8, 9});
  EXPECT_LE(pipeline.stats().inflight_batch_bytes, max_part * 2 / 2 + 1);
  EXPECT_GT(pipeline.stats().skipped_budget, 0u);
  // Interactive staging still admits into the reserved share while the
  // batch loads are in flight (pick a partition batch didn't claim; with
  // batch capped at half the headroom, at least the last one is
  // unclaimed).
  const io::PrefetchPipeline::PrefetchStats mid = pipeline.stats();
  pipeline.Stage({9}, storage::ColumnSet::All(), QueryClass::kInteractive);
  const io::PrefetchPipeline::PrefetchStats after = pipeline.stats();
  EXPECT_GT(after.staged + after.skipped_cached,
            mid.staged + mid.skipped_cached)
      << "interactive staging must not be starved by batch pressure";
  pipeline.Drain();
  EXPECT_EQ(pipeline.stats().inflight_bytes, 0u);
}

// ------------------------------------- fault injection battery

/// Store options with a seeded fault plan and a fast (but semantically
/// default) backoff schedule so the battery doesn't sleep for real.
io::PartitionStore::Options FaultOptions(io::FaultPlan plan) {
  io::PartitionStore::Options opts;
  opts.faults = std::make_shared<io::FaultInjector>(std::move(plan));
  opts.retry.backoff_base_us = 50;
  opts.retry.backoff_cap_us = 500;
  return opts;
}

/// Bitwise comparison of a fetched partition view against the resident
/// partition it was spilled from, over every column.
void ExpectPartitionBitExact(const storage::Schema& schema,
                             const storage::Partition& resident,
                             const storage::Partition& got) {
  ASSERT_EQ(got.num_rows(), resident.num_rows());
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    for (size_t r = 0; r < resident.num_rows(); ++r) {
      if (schema.IsNumeric(c)) {
        uint64_t want, have;
        double wv = resident.NumericAt(c, r);
        double gv = got.NumericAt(c, r);
        std::memcpy(&want, &wv, sizeof(want));
        std::memcpy(&have, &gv, sizeof(have));
        ASSERT_EQ(want, have) << "col " << c << " row " << r;
      } else {
        ASSERT_EQ(got.CodeAt(c, r), resident.CodeAt(c, r))
            << "col " << c << " row " << r;
      }
    }
  }
}

/// A rule failing every column of `partition` on attempts
/// [attempt_begin, attempt_end) with `kind`.
io::FaultRule RuleFor(size_t partition, int attempt_begin, int attempt_end,
                      io::FaultKind kind) {
  io::FaultRule rule;
  rule.partition = partition;
  rule.attempt_begin = attempt_begin;
  rule.attempt_end = attempt_end;
  rule.kind = kind;
  return rule;
}

TEST(FaultInjector, SeedReplaysIdenticalSequence) {
  io::FaultPlan plan;
  plan.seed = 42;
  plan.transient_rate = 0.3;
  plan.corrupt_rate = 0.2;
  plan.latency_rate = 0.25;
  plan.lost_partitions = {7};

  io::FaultInjector a(plan);
  io::FaultInjector b(plan);
  bool any_fault = false;
  for (size_t p = 0; p < 8; ++p) {
    for (size_t c = 0; c < 4; ++c) {
      for (int attempt = 0; attempt < 6; ++attempt) {
        // Peek is pure and Next consumes exactly the peeked attempt.
        const io::FaultDecision peek = a.Peek(p, c, attempt);
        const io::FaultDecision next = a.Next(p, c);
        EXPECT_EQ(next.kind, peek.kind);
        EXPECT_EQ(next.extra_latency_us, peek.extra_latency_us);
        EXPECT_EQ(next.attempt, attempt);
        // A second injector over the same plan replays bit-identically.
        const io::FaultDecision other = b.Next(p, c);
        EXPECT_EQ(other.kind, next.kind);
        EXPECT_EQ(other.extra_latency_us, next.extra_latency_us);
        EXPECT_EQ(other.attempt, next.attempt);
        if (next.kind != io::FaultKind::kNone) any_fault = true;
      }
    }
  }
  EXPECT_TRUE(any_fault) << "rates this high must fire somewhere";

  // Lost dominates every rate draw, on every attempt.
  for (int attempt = 0; attempt < 6; ++attempt) {
    EXPECT_EQ(a.Peek(7, 0, attempt).kind, io::FaultKind::kLost);
  }
  EXPECT_TRUE(a.IsLost(7));
  EXPECT_FALSE(a.IsLost(6));

  // A different seed gives a different sequence somewhere.
  io::FaultPlan reseeded = plan;
  reseeded.seed = 43;
  io::FaultInjector c(reseeded);
  int diffs = 0;
  for (size_t p = 0; p < 7; ++p) {
    for (int attempt = 0; attempt < 6; ++attempt) {
      if (c.Peek(p, 0, attempt).kind != b.Peek(p, 0, attempt).kind) ++diffs;
    }
  }
  EXPECT_GT(diffs, 0);

  // ResetAttempts replays the sequence from attempt 0.
  a.ResetAttempts();
  const io::FaultDecision replay = a.Next(3, 1);
  EXPECT_EQ(replay.attempt, 0);
  EXPECT_EQ(replay.kind, a.Peek(3, 1, 0).kind);
}

TEST(FaultInjector, CorruptBytesIsDeterministicAndSingleBit) {
  std::vector<uint8_t> buf(257, 0xA5);
  std::vector<uint8_t> ref = buf;
  io::FaultInjector::CorruptBytes(9, 2, 1, 0, buf.data(), buf.size());
  size_t flipped_bits = 0;
  for (size_t i = 0; i < buf.size(); ++i) {
    uint8_t delta = buf[i] ^ ref[i];
    while (delta != 0) {
      flipped_bits += delta & 1u;
      delta >>= 1;
    }
  }
  EXPECT_EQ(flipped_bits, 1u);
  // Same coordinate flips the same bit: corrupting twice restores.
  io::FaultInjector::CorruptBytes(9, 2, 1, 0, buf.data(), buf.size());
  EXPECT_EQ(buf, ref);
}

TEST(FaultBattery, TransientFailuresRetryAndRecoverBitExact) {
  auto bundle = workload::MakeKdd(700, /*seed=*/101);
  storage::PartitionedTable pt(bundle.table, 4);
  const storage::ResidentShardedSource flat_src(pt);
  const std::string dir = MakeSpillDir();
  ASSERT_TRUE(io::PartitionStore::Spill(pt, dir).ok());

  // Partition 1 fails transient on attempts 0 and 1 of every column,
  // then reads clean: the default 3-attempt policy must absorb it.
  io::FaultPlan plan;
  plan.rules.push_back(RuleFor(1, 0, 2, io::FaultKind::kTransient));
  auto store = io::PartitionStore::Open(dir, FaultOptions(plan));
  ASSERT_TRUE(store.ok());

  auto pinned = (*store)->Fetch(1);
  ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();
  EXPECT_EQ(pinned->view().num_rows(), pt.partition_rows(1));

  const io::StoreStats stats = (*store)->store_stats();
  EXPECT_EQ(stats.cold_loads, 1u);
  EXPECT_EQ(stats.transient_errors, 2u);
  EXPECT_EQ(stats.retries, 2u);
  EXPECT_EQ(stats.load_errors, 0u);
  EXPECT_EQ(stats.corrupt_errors, 0u);
  EXPECT_EQ(stats.lost_errors, 0u);

  // The recovered data serves a scan bit-identical to the resident one.
  query::Query q = CountSumQuery(*bundle.table);
  const auto expected = query::ExactAnswer(
      q, query::EvaluateAllPartitions(q, flat_src,
                                      {query::ExecPolicy::kScalar, 1}));
  runtime::QueryScheduler scheduler;
  io::ColdShardedSource cold(store->get(), 2);
  ExpectAnswersEqual(expected, scheduler.Submit(q, cold).get());
}

TEST(FaultBattery, RetryExhaustionSurfacesUnavailable) {
  auto bundle = workload::MakeAria(500, /*seed=*/103);
  storage::PartitionedTable pt(bundle.table, 4);
  const std::string dir = MakeSpillDir();
  ASSERT_TRUE(io::PartitionStore::Spill(pt, dir).ok());

  // Partition 0 never reads clean; the retry loop must give up after
  // max_attempts passes and surface the retryable class.
  io::FaultPlan plan;
  plan.rules.push_back(RuleFor(0, 0, 1000, io::FaultKind::kTransient));
  auto store = io::PartitionStore::Open(dir, FaultOptions(plan));
  ASSERT_TRUE(store.ok());

  auto pinned = (*store)->Fetch(0);
  ASSERT_FALSE(pinned.ok());
  EXPECT_EQ(pinned.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(pinned.status().message().find("transient"), std::string::npos)
      << pinned.status().ToString();

  const io::StoreStats stats = (*store)->store_stats();
  EXPECT_EQ(stats.load_errors, 1u);  // one failed load *step*
  EXPECT_EQ(stats.transient_errors, 3u);  // three failed passes under it
  EXPECT_EQ(stats.retries, 2u);
  EXPECT_EQ((*store)->cache().stats().bytes_pinned, 0u);

  // Other partitions are untouched by partition 0's bad luck.
  auto healthy = (*store)->Fetch(1);
  ASSERT_TRUE(healthy.ok()) << healthy.status().ToString();
  EXPECT_EQ((*store)->breaker_state(), CircuitBreaker::State::kClosed);
}

TEST(FaultBattery, CorruptThenCleanRefetchRecovers) {
  auto bundle = workload::MakeKdd(900, /*seed=*/107);
  storage::PartitionedTable pt(bundle.table, 6);
  const std::string dir = MakeSpillDir();
  ASSERT_TRUE(io::PartitionStore::Spill(pt, dir).ok());

  // The first read of partition 2's column 0 comes back bit-flipped;
  // the real checksum machinery must catch it and the single
  // evict-and-refetch must read clean bytes.
  io::FaultRule rule = RuleFor(2, 0, 1, io::FaultKind::kCorrupt);
  rule.column = 0;
  io::FaultPlan plan;
  plan.rules.push_back(rule);
  auto store = io::PartitionStore::Open(dir, FaultOptions(plan));
  ASSERT_TRUE(store.ok());

  auto pinned = (*store)->Fetch(2);
  ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();

  const io::StoreStats stats = (*store)->store_stats();
  EXPECT_EQ(stats.corrupt_errors, 1u);
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.load_errors, 0u);
  EXPECT_EQ(stats.transient_errors, 0u);

  // The refetched data is the spilled data, bit for bit.
  ExpectPartitionBitExact((*store)->schema(), pt.partition(2),
                          pinned->view());
}

TEST(FaultBattery, PersistentCorruptionSurfacesAfterOneRefetch) {
  auto bundle = workload::MakeKdd(600, /*seed=*/109);
  storage::PartitionedTable pt(bundle.table, 4);
  const std::string dir = MakeSpillDir();
  ASSERT_TRUE(io::PartitionStore::Spill(pt, dir).ok());

  // Every read of partition 2 corrupts: the file is bad, not the link.
  // Exactly one refetch, then the corruption surfaces as kInternal —
  // never a wrong answer, and never an infinite refetch loop.
  io::FaultPlan plan;
  plan.rules.push_back(RuleFor(2, 0, 1000, io::FaultKind::kCorrupt));
  auto store = io::PartitionStore::Open(dir, FaultOptions(plan));
  ASSERT_TRUE(store.ok());

  auto pinned = (*store)->Fetch(2);
  ASSERT_FALSE(pinned.ok());
  EXPECT_EQ(pinned.status().code(), StatusCode::kInternal);

  const io::StoreStats stats = (*store)->store_stats();
  EXPECT_EQ(stats.corrupt_errors, 2u);  // original pass + the one refetch
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.load_errors, 1u);
  EXPECT_EQ((*store)->cache().stats().bytes_pinned, 0u);
}

TEST(FaultBattery, LostPartitionFailsFastAndSparesTheBreaker) {
  auto bundle = workload::MakeAria(800, /*seed=*/113);
  storage::PartitionedTable pt(bundle.table, 8);
  const std::string dir = MakeSpillDir();
  ASSERT_TRUE(io::PartitionStore::Spill(pt, dir).ok());

  io::FaultPlan plan;
  plan.lost_partitions = {3, 5};
  auto store = io::PartitionStore::Open(dir, FaultOptions(plan));
  ASSERT_TRUE(store.ok());
  EXPECT_EQ((*store)->LostPartitions(), (std::vector<size_t>{3, 5}));

  // Lost fails fast: no retries, no attempt consumed, named kind.
  for (int round = 0; round < 4; ++round) {
    auto pinned = (*store)->Fetch(3);
    ASSERT_FALSE(pinned.ok());
    EXPECT_EQ(pinned.status().code(), StatusCode::kUnavailable);
    EXPECT_NE(pinned.status().message().find("lost"), std::string::npos);
  }
  const io::StoreStats stats = (*store)->store_stats();
  EXPECT_EQ(stats.lost_errors, 4u);
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_EQ(stats.transient_errors, 0u);
  EXPECT_EQ(stats.load_errors, 4u);

  // Repeated lost hits must not trip the breaker: the reachable set
  // keeps serving even on a store with a low threshold.
  EXPECT_EQ((*store)->breaker_state(), CircuitBreaker::State::kClosed);
  auto healthy = (*store)->Fetch(0);
  ASSERT_TRUE(healthy.ok()) << healthy.status().ToString();
  EXPECT_EQ(healthy->view().num_rows(), pt.partition_rows(0));
}

TEST(FaultBattery, HedgeFiresOnLatencySpikeAndWinnerCancelsLoser) {
  auto bundle = workload::MakeKdd(800, /*seed=*/127);
  storage::PartitionedTable pt(bundle.table, 4);
  const std::string dir = MakeSpillDir();
  ASSERT_TRUE(io::PartitionStore::Spill(pt, dir).ok());

  // Attempt 0 of partition 0 pays a 250ms spike; attempt 1 is clean.
  // With a 2ms fixed hedge delay the duplicate read fires, lands first,
  // and cancels the spiking primary — the fetch returns long before the
  // spike would have drained, with no error counted anywhere.
  io::FaultRule spike = RuleFor(0, 0, 1, io::FaultKind::kLatency);
  spike.latency_us = 250000;
  io::FaultPlan plan;
  plan.rules.push_back(spike);
  io::PartitionStore::Options opts = FaultOptions(plan);
  opts.hedge.enabled = true;
  opts.hedge.fixed_delay_us = 2000;
  auto store = io::PartitionStore::Open(dir, opts);
  ASSERT_TRUE(store.ok());

  const auto start = std::chrono::steady_clock::now();
  auto pinned = (*store)->Fetch(0);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();
  EXPECT_EQ(pinned->view().num_rows(), pt.partition_rows(0));
  EXPECT_LT(elapsed.count(), 200) << "hedge must beat the 250ms spike";

  const io::StoreStats stats = (*store)->store_stats();
  EXPECT_EQ(stats.hedged_loads, 1u);
  EXPECT_EQ(stats.hedge_wins, 1u);
  EXPECT_EQ(stats.load_errors, 0u);
  EXPECT_EQ(stats.transient_errors, 0u);
  EXPECT_EQ(stats.retries, 0u);

  // The hedged read's data is the spilled data, bit for bit.
  ExpectPartitionBitExact((*store)->schema(), pt.partition(0),
                          pinned->view());
}

TEST(FaultBattery, BreakerOpensFailsFastHalfOpensAndCloses) {
  auto bundle = workload::MakeAria(600, /*seed=*/131);
  storage::PartitionedTable pt(bundle.table, 6);
  const std::string dir = MakeSpillDir();
  ASSERT_TRUE(io::PartitionStore::Spill(pt, dir).ok());

  // Partitions 0 and 1 are hopeless (always transient); 2 is healthy.
  // Single-attempt policy so every fetch is one load step, threshold 2
  // so two hopeless steps open the circuit.
  io::FaultPlan plan;
  plan.rules.push_back(RuleFor(0, 0, 1000, io::FaultKind::kTransient));
  plan.rules.push_back(RuleFor(1, 0, 1000, io::FaultKind::kTransient));
  io::PartitionStore::Options opts = FaultOptions(plan);
  opts.retry.max_attempts = 1;
  opts.breaker.failure_threshold = 2;
  opts.breaker.open_duration_us = 500000;  // 500ms cooldown
  auto store = io::PartitionStore::Open(dir, opts);
  ASSERT_TRUE(store.ok());

  EXPECT_FALSE((*store)->Fetch(0).ok());
  EXPECT_EQ((*store)->breaker_state(), CircuitBreaker::State::kClosed);
  EXPECT_FALSE((*store)->Fetch(1).ok());
  EXPECT_EQ((*store)->breaker_state(), CircuitBreaker::State::kOpen);

  // Open fails fast — even a healthy partition is rejected, cheaply.
  auto rejected = (*store)->Fetch(2);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(rejected.status().message().find("circuit breaker"),
            std::string::npos);
  {
    const io::StoreStats stats = (*store)->store_stats();
    EXPECT_EQ(stats.breaker_opens, 1u);
    EXPECT_EQ(stats.breaker_open_rejects, 1u);
    EXPECT_EQ(stats.transient_errors, 2u);  // the reject read nothing
  }

  // After the cooldown one half-open probe is admitted; a failing probe
  // re-opens the circuit for another cooldown.
  std::this_thread::sleep_for(std::chrono::milliseconds(700));
  EXPECT_FALSE((*store)->Fetch(0).ok());
  EXPECT_EQ((*store)->breaker_state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ((*store)->store_stats().breaker_opens, 2u);

  // A succeeding probe closes it and normal service resumes.
  std::this_thread::sleep_for(std::chrono::milliseconds(700));
  auto probe = (*store)->Fetch(2);
  ASSERT_TRUE(probe.ok()) << probe.status().ToString();
  EXPECT_EQ((*store)->breaker_state(), CircuitBreaker::State::kClosed);
  auto after = (*store)->Fetch(3);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
}

TEST(FaultBattery, AbortedHalfOpenProbeDoesNotWedgeBreaker) {
  auto bundle = workload::MakeAria(600, /*seed=*/149);
  storage::PartitionedTable pt(bundle.table, 6);
  const std::string dir = MakeSpillDir();
  ASSERT_TRUE(io::PartitionStore::Spill(pt, dir).ok());

  // Partitions 0 and 1 are hopeless and open the circuit; the half-open
  // probe targets partition 2, whose first attempt rides a 300ms spike
  // and gets cancelled mid-spike; partition 3 is healthy.
  io::FaultPlan plan;
  plan.rules.push_back(RuleFor(0, 0, 1000, io::FaultKind::kTransient));
  plan.rules.push_back(RuleFor(1, 0, 1000, io::FaultKind::kTransient));
  io::FaultRule spike = RuleFor(2, 0, 1, io::FaultKind::kLatency);
  spike.latency_us = 300000;
  plan.rules.push_back(spike);
  io::PartitionStore::Options opts = FaultOptions(plan);
  opts.retry.max_attempts = 1;
  opts.breaker.failure_threshold = 2;
  opts.breaker.open_duration_us = 0;  // next load after open is the probe
  auto store = io::PartitionStore::Open(dir, opts);
  ASSERT_TRUE(store.ok());

  EXPECT_FALSE((*store)->Fetch(0).ok());
  EXPECT_FALSE((*store)->Fetch(1).ok());
  EXPECT_EQ((*store)->breaker_state(), CircuitBreaker::State::kOpen);

  // The probe aborts mid-load. The probe slot must be released — a
  // leaked slot left the breaker half-open with the probe marked
  // in-flight forever, failing every later load fast: the store's
  // whole cold path wedged shut exactly when deadlines were firing.
  CancelToken token;
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    token.Cancel();
  });
  auto probe = (*store)->Fetch(2, storage::ColumnSet::All(), &token);
  canceller.join();
  ASSERT_FALSE(probe.ok());
  EXPECT_EQ(probe.status().code(), StatusCode::kCancelled);
  EXPECT_EQ((*store)->breaker_state(), CircuitBreaker::State::kOpen)
      << "aborted probe must release the slot back to open";
  EXPECT_EQ((*store)->store_stats().breaker_opens, 1u)
      << "an aborted probe is not a re-open";

  // With the slot free and the cooldown already elapsed, the next load
  // becomes a fresh probe and a healthy partition closes the circuit.
  auto after = (*store)->Fetch(3);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ((*store)->breaker_state(), CircuitBreaker::State::kClosed);

  const io::StoreStats stats = (*store)->store_stats();
  EXPECT_EQ(stats.transient_errors, 2u) << "the abort counts nowhere";
  EXPECT_EQ(stats.load_errors, 2u) << "only the two real failures count";
}

TEST(FaultBattery, BreakerIgnoresStaleResultsAndReleasesAbortedProbe) {
  // Unit-level breaker discipline, independent of the store plumbing.
  CircuitBreakerPolicy policy;
  policy.failure_threshold = 1;
  policy.open_duration_us = 0;  // the next Admit after open is the probe
  CircuitBreaker breaker(policy);

  // Two loads admitted while closed; the first fails and opens the
  // circuit, the second (slow, admitted pre-outage) lands late with a
  // success — which must not short-circuit the cooldown + probe
  // discipline. (Cooldown 0 means Admit would hand out a probe, so the
  // stale result is recorded before any Admit.)
  EXPECT_TRUE(breaker.Admit());
  EXPECT_TRUE(breaker.Admit());
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  breaker.RecordSuccess();  // stale
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen)
      << "a pre-open success must not close an open circuit";
  EXPECT_EQ(breaker.opens(), 1u);

  // One probe slot: the claimer learns it holds it, a second load is
  // rejected, and a non-probe abort releases nothing.
  bool claimed = false;
  EXPECT_TRUE(breaker.Admit(&claimed));
  EXPECT_TRUE(claimed);
  bool second = true;
  EXPECT_FALSE(breaker.Admit(&second));
  EXPECT_FALSE(second);
  breaker.RecordAbort(/*claimed_probe=*/false);
  EXPECT_FALSE(breaker.Admit(&second)) << "slot still held by the probe";

  // The probe's own abort releases the slot without counting a re-open;
  // the next Admit claims a fresh probe whose success closes the
  // circuit.
  breaker.RecordAbort(/*claimed_probe=*/true);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.opens(), 1u);
  EXPECT_TRUE(breaker.Admit(&claimed));
  EXPECT_TRUE(claimed);
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.Admit());
}

TEST(FaultBattery, HedgeDelayEstimateSurvivesFastSamples) {
  auto bundle = workload::MakeAria(600, /*seed=*/151);
  storage::PartitionedTable pt(bundle.table, 6);
  const std::string dir = MakeSpillDir();
  ASSERT_TRUE(io::PartitionStore::Spill(pt, dir).ok());

  // One spiked pass seeds the latency EWMA high; the fast passes after
  // it must decay the estimate. The naive EWMA underflowed unsigned on
  // the first sample faster than the mean (mean ~2^62), so the adaptive
  // hedge delay clamped to garbage and hedging misfired forever.
  io::FaultRule spike = RuleFor(0, 0, 1, io::FaultKind::kLatency);
  spike.latency_us = 50000;
  io::FaultPlan plan;
  plan.rules.push_back(spike);
  io::PartitionStore::Options opts = FaultOptions(plan);
  opts.hedge.enabled = true;  // fixed_delay 0: adaptive estimate
  opts.hedge.max_delay_us = 10000000;  // wide clamp so garbage would show
  auto store = io::PartitionStore::Open(dir, opts);
  ASSERT_TRUE(store.ok());

  ASSERT_TRUE((*store)->Fetch(0).ok());  // ~50ms pass seeds the mean
  const size_t seeded = (*store)->hedge_delay_us();
  EXPECT_GE(seeded, 50000u);
  for (size_t p = 1; p < pt.num_partitions(); ++p) {
    ASSERT_TRUE((*store)->Fetch(p).ok());  // fast spike-free passes
  }
  const size_t after = (*store)->hedge_delay_us();
  EXPECT_GT(after, 0u);
  EXPECT_LT(after, 1000000u)
      << "fast samples must decay the estimate, not wrap it";
}

TEST(FaultBattery, SingleFlightTimeoutStealsAndReclaims) {
  auto bundle = workload::MakeKdd(700, /*seed=*/137);
  storage::PartitionedTable pt(bundle.table, 4);
  const std::string dir = MakeSpillDir();
  ASSERT_TRUE(io::PartitionStore::Spill(pt, dir).ok());

  // The first loader of partition 0 rides out a 400ms spike while
  // holding the single-flight marks. A waiter bounded at 30ms must time
  // out, break the stale claim, re-claim the load itself (attempt 1 is
  // clean), and return long before the original loader lands.
  io::FaultRule spike = RuleFor(0, 0, 1, io::FaultKind::kLatency);
  spike.latency_us = 400000;
  io::FaultPlan plan;
  plan.rules.push_back(spike);
  io::PartitionStore::Options opts = FaultOptions(plan);
  opts.single_flight_wait_us = 30000;
  auto store = io::PartitionStore::Open(dir, opts);
  ASSERT_TRUE(store.ok());

  std::promise<void> loader_started;
  std::thread loader([&] {
    loader_started.set_value();
    auto slow = (*store)->Fetch(0);
    EXPECT_TRUE(slow.ok()) << slow.status().ToString();
  });
  loader_started.get_future().wait();
  // Let the loader claim its marks and enter the spike sleep.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  const auto start = std::chrono::steady_clock::now();
  {
    auto stolen = (*store)->Fetch(0);
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start);
    ASSERT_TRUE(stolen.ok()) << stolen.status().ToString();
    EXPECT_EQ(stolen->view().num_rows(), pt.partition_rows(0));
    EXPECT_LT(elapsed.count(), 300) << "waiter must not ride out the spike";
  }
  loader.join();

  EXPECT_GE((*store)->store_stats().single_flight_timeouts, 1u);
  EXPECT_EQ((*store)->store_stats().load_errors, 0u);
  EXPECT_EQ((*store)->cache().stats().bytes_pinned, 0u);
}

TEST(FaultBattery, AbortsCountInNoErrorCounter) {
  auto bundle = workload::MakeAria(500, /*seed=*/139);
  storage::PartitionedTable pt(bundle.table, 4);
  const std::string dir = MakeSpillDir();
  ASSERT_TRUE(io::PartitionStore::Spill(pt, dir).ok());

  // Partition 0 always fails transient, with real backoffs between
  // attempts; the token fires mid-retry-loop. The abort must surface as
  // kCancelled and must not be folded into any failure statistic — only
  // the passes that actually failed before the abort count.
  io::FaultPlan plan;
  plan.rules.push_back(RuleFor(0, 0, 1000, io::FaultKind::kTransient));
  io::PartitionStore::Options opts = FaultOptions(plan);
  opts.retry.max_attempts = 50;
  opts.retry.backoff_base_us = 20000;  // wide backoff window to land in
  opts.retry.backoff_cap_us = 20000;
  opts.retry.retry_time_budget_us = 0;
  auto store = io::PartitionStore::Open(dir, opts);
  ASSERT_TRUE(store.ok());

  CancelToken token;
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    token.Cancel();
  });
  auto pinned = (*store)->Fetch(0, storage::ColumnSet::All(), &token);
  canceller.join();
  ASSERT_FALSE(pinned.ok());
  EXPECT_EQ(pinned.status().code(), StatusCode::kCancelled);

  const io::StoreStats stats = (*store)->store_stats();
  EXPECT_EQ(stats.load_errors, 0u) << "an abort is not a load error";
  EXPECT_EQ(stats.corrupt_errors, 0u);
  EXPECT_EQ(stats.lost_errors, 0u);
  EXPECT_GE(stats.transient_errors, 1u);  // the real pre-abort failures
  EXPECT_EQ((*store)->breaker_state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ((*store)->cache().stats().bytes_pinned, 0u);

  // The partition is still loadable once the faults clear: a fresh
  // injector over the same directory reads it fine.
  auto clean = io::PartitionStore::Open(dir, {});
  ASSERT_TRUE(clean.ok());
  auto healthy = (*clean)->Fetch(0);
  ASSERT_TRUE(healthy.ok()) << healthy.status().ToString();
}

TEST(FaultBattery, ZeroFaultPlanIsIdenticalToNoInjector) {
  auto bundle = workload::MakeKdd(900, /*seed=*/149);
  storage::PartitionedTable pt(bundle.table, 6);
  const std::string dir = MakeSpillDir();
  ASSERT_TRUE(io::PartitionStore::Spill(pt, dir).ok());

  auto plain = io::PartitionStore::Open(dir, {});
  ASSERT_TRUE(plain.ok());
  io::PartitionStore::Options opts;
  opts.faults = std::make_shared<io::FaultInjector>(io::FaultPlan{});
  auto faulted = io::PartitionStore::Open(dir, opts);
  ASSERT_TRUE(faulted.ok());

  query::Query q = CountSumQuery(*bundle.table);
  runtime::QueryScheduler scheduler;
  io::ColdShardedSource cold_plain(plain->get(), 2);
  io::ColdShardedSource cold_faulted(faulted->get(), 2);
  ExpectAnswersEqual(scheduler.Submit(q, cold_plain).get(),
                     scheduler.Submit(q, cold_faulted).get());

  const io::StoreStats a = (*plain)->store_stats();
  const io::StoreStats b = (*faulted)->store_stats();
  EXPECT_EQ(a.cold_loads, b.cold_loads);
  EXPECT_EQ(a.segments_loaded, b.segments_loaded);
  EXPECT_EQ(a.bytes_loaded, b.bytes_loaded);
  for (const io::StoreStats& s : {a, b}) {
    EXPECT_EQ(s.load_errors, 0u);
    EXPECT_EQ(s.transient_errors, 0u);
    EXPECT_EQ(s.corrupt_errors, 0u);
    EXPECT_EQ(s.lost_errors, 0u);
    EXPECT_EQ(s.retries, 0u);
    EXPECT_EQ(s.hedged_loads, 0u);
    EXPECT_EQ(s.breaker_opens, 0u);
    EXPECT_EQ(s.single_flight_timeouts, 0u);
  }
}

TEST(FaultBattery, SeededRatesReplayIdenticallyThroughStore) {
  auto bundle = workload::MakeKdd(1000, /*seed=*/151);
  storage::PartitionedTable pt(bundle.table, 8);
  const std::string dir = MakeSpillDir();
  ASSERT_TRUE(io::PartitionStore::Spill(pt, dir).ok());

  // Two independent stores over the same directory, each with its own
  // injector built from the same plan: every fetch outcome and every
  // counter must replay bit-identically — the hashed rates are a pure
  // function of (seed, partition, column, attempt), not a live RNG.
  io::FaultPlan plan;
  plan.seed = 7;
  plan.transient_rate = 0.02;
  plan.corrupt_rate = 0.005;
  io::PartitionStore::Options opts = FaultOptions(plan);
  opts.retry.max_attempts = 6;
  auto first = io::PartitionStore::Open(dir, opts);
  ASSERT_TRUE(first.ok());
  io::PartitionStore::Options opts2 = FaultOptions(plan);
  opts2.retry.max_attempts = 6;
  auto second = io::PartitionStore::Open(dir, opts2);
  ASSERT_TRUE(second.ok());

  for (size_t p = 0; p < pt.num_partitions(); ++p) {
    auto fa = (*first)->Fetch(p);
    auto fb = (*second)->Fetch(p);
    ASSERT_EQ(fa.ok(), fb.ok()) << "partition " << p;
    if (!fa.ok()) {
      EXPECT_EQ(fa.status().code(), fb.status().code()) << "partition " << p;
    } else {
      EXPECT_EQ(fa->view().num_rows(), fb->view().num_rows());
    }
  }
  const io::StoreStats sa = (*first)->store_stats();
  const io::StoreStats sb = (*second)->store_stats();
  EXPECT_EQ(sa.cold_loads, sb.cold_loads);
  EXPECT_EQ(sa.load_errors, sb.load_errors);
  EXPECT_EQ(sa.transient_errors, sb.transient_errors);
  EXPECT_EQ(sa.corrupt_errors, sb.corrupt_errors);
  EXPECT_EQ(sa.retries, sb.retries);
  EXPECT_EQ(sa.segments_loaded, sb.segments_loaded);
  EXPECT_EQ(sa.bytes_loaded, sb.bytes_loaded);
}

TEST(FaultBattery, DeterministicBackoffSchedule) {
  RetryPolicy policy;
  policy.backoff_base_us = 100;
  policy.backoff_multiplier = 2.0;
  policy.backoff_cap_us = 1000;
  // Same policy + retry + salt => identical sleep; different salts
  // decorrelate; the exponential envelope holds under the cap.
  for (int retry = 1; retry <= 5; ++retry) {
    const size_t a = BackoffUs(policy, retry, /*salt=*/11);
    const size_t b = BackoffUs(policy, retry, /*salt=*/11);
    EXPECT_EQ(a, b);
    const size_t base = std::min<size_t>(
        policy.backoff_cap_us,
        static_cast<size_t>(100 * std::pow(2.0, retry - 1)));
    EXPECT_GE(a, base);
    EXPECT_LE(a, static_cast<size_t>(
                     static_cast<double>(base) *
                     (1.0 + policy.jitter_fraction)) +
                     1);
  }
  size_t diff = 0;
  for (uint64_t salt = 0; salt < 8; ++salt) {
    if (BackoffUs(policy, 3, salt) != BackoffUs(policy, 3, salt + 100)) {
      ++diff;
    }
  }
  EXPECT_GT(diff, 0u) << "jitter must decorrelate across salts";
  policy.jitter_fraction = 0.0;
  EXPECT_EQ(BackoffUs(policy, 1, 0), 100u);
  EXPECT_EQ(BackoffUs(policy, 2, 0), 200u);
  EXPECT_EQ(BackoffUs(policy, 5, 0), 1000u);  // capped
}

}  // namespace
}  // namespace ps3
