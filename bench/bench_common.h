// Shared configuration for the reproduction benches. Every bench binary
// regenerates one table or figure of the paper at simulator scale; set
// PS3_FAST=1 (or PS3_ROWS / PS3_PARTS / PS3_TRAINQ / PS3_TESTQ) to shrink.
// Every PS3_* knob parses strictly: a malformed value aborts naming it.
#ifndef PS3_BENCH_BENCH_COMMON_H_
#define PS3_BENCH_BENCH_COMMON_H_

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "eval/experiment.h"
#include "eval/report.h"
#include "io/partition_file.h"

namespace ps3::bench {

/// Strict parse of one unsigned decimal item from an env value. Anything
/// that isn't a plain in-range number — sign, empty item, trailing junk,
/// overflow, or a value below `min_value` — aborts with an error naming
/// the variable: a typo in a swept dimension must never silently fall
/// back to defaults, or the bench JSON trajectory gets compared against
/// mislabeled coverage.
inline size_t ParseEnvSizeItem(const char* name, const std::string& item,
                               size_t min_value) {
  auto die = [&](const char* why) {
    std::fprintf(stderr, "%s: %s in \"%s\"\n", name, why, item.c_str());
    std::abort();
  };
  if (item.empty()) die("empty value");
  for (char c : item) {
    if (!std::isdigit(static_cast<unsigned char>(c))) {
      die("malformed value (digits only)");
    }
  }
  errno = 0;
  char* end = nullptr;
  unsigned long long x = std::strtoull(item.c_str(), &end, 10);
  if (errno == ERANGE || x > static_cast<unsigned long long>(SIZE_MAX)) {
    die("value out of range");
  }
  if (x < min_value) {
    die(min_value == 1 ? "value must be >= 1" : "value below minimum");
  }
  return static_cast<size_t>(x);
}

/// Parses a comma-separated list env var ("1,4,8") into sizes; returns
/// `fallback` only when the variable is unset or empty. Shared by the
/// perf benches so CI runners and laptops can pin comparable JSON
/// dimensions. Malformed input (including zero entries and stray commas)
/// aborts with a clear error instead of silently shrinking the sweep.
inline std::vector<size_t> EnvSizeList(const char* name,
                                       std::vector<size_t> fallback,
                                       size_t min_value = 1) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  std::vector<size_t> out;
  std::string item;
  for (const char* p = v;; ++p) {
    if (*p == ',' || *p == '\0') {
      out.push_back(ParseEnvSizeItem(name, item, min_value));
      item.clear();
      if (*p == '\0') break;
    } else {
      item.push_back(*p);
    }
  }
  return out;
}

/// Strict scalar env size ("PS3_ROWS=50000"); `fallback` only when unset
/// or empty, abort on malformed input.
inline size_t EnvSizeScalar(const char* name, size_t fallback,
                            size_t min_value = 1) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return ParseEnvSizeItem(name, v, min_value);
}

/// Worker-lane counts exercised by the throughput benches (PS3_THREADS).
inline std::vector<size_t> BenchThreadCounts() {
  return EnvSizeList("PS3_THREADS", {1, 4, 8});
}

/// Shard counts exercised by the sharded fan-out benches (PS3_SHARDS).
inline std::vector<size_t> BenchShardCounts() {
  return EnvSizeList("PS3_SHARDS", {1, 4, 8});
}

/// Spill-time segment encodings exercised by the out-of-core benches
/// (PS3_ENCODING, comma-separated "raw" / "bitpack" / "for_delta" /
/// "auto"). Like every swept dimension, unknown names abort instead of
/// silently shrinking the sweep.
inline std::vector<io::EncodingMode> BenchEncodingModes() {
  const char* v = std::getenv("PS3_ENCODING");
  if (v == nullptr || *v == '\0') {
    return {io::EncodingMode::kRaw, io::EncodingMode::kBitpack,
            io::EncodingMode::kForDelta, io::EncodingMode::kAuto};
  }
  std::vector<io::EncodingMode> out;
  std::string item;
  for (const char* p = v;; ++p) {
    if (*p == ',' || *p == '\0') {
      auto mode = io::ParseEncodingMode(item);
      if (!mode.ok()) {
        std::fprintf(stderr, "PS3_ENCODING: %s\n",
                     mode.status().message().c_str());
        std::abort();
      }
      out.push_back(*mode);
      item.clear();
      if (*p == '\0') break;
    } else {
      item.push_back(*p);
    }
  }
  return out;
}

/// Default bench scale: 100k rows over 400 partitions (the paper's 1000
/// partitions scaled to this simulator), 96 training / 40 test queries.
/// PS3_FAST=1 shrinks it to smoke scale; PS3_ROWS / PS3_PARTS /
/// PS3_TRAINQ / PS3_TESTQ then override single sizes. All five parse
/// strictly, like every other bench knob.
inline eval::ExperimentConfig BenchConfig(const std::string& dataset,
                                          size_t rows = 100000,
                                          size_t partitions = 400) {
  eval::ExperimentConfig cfg;
  cfg.dataset = dataset;
  cfg.rows = rows;
  cfg.partitions = partitions;
  cfg.train_queries = 96;
  cfg.test_queries = 40;
  cfg.ps3.feature_selection.restarts = 1;
  cfg.ps3.feature_selection.eval_queries = 5;
  cfg.lss.eval_queries = 5;
  const size_t fast = EnvSizeScalar("PS3_FAST", 0, /*min_value=*/0);
  if (fast > 1) {
    std::fprintf(stderr, "PS3_FAST: value must be 0 or 1\n");
    std::abort();
  }
  if (fast == 1) {
    cfg.rows = 20000;
    cfg.partitions = 128;
    cfg.train_queries = 24;
    cfg.test_queries = 10;
    cfg.ps3.feature_selection.eval_queries = 4;
    cfg.lss.eval_queries = 4;
  }
  cfg.rows = EnvSizeScalar("PS3_ROWS", cfg.rows);
  cfg.partitions = EnvSizeScalar("PS3_PARTS", cfg.partitions);
  cfg.train_queries = EnvSizeScalar("PS3_TRAINQ", cfg.train_queries);
  cfg.test_queries = EnvSizeScalar("PS3_TESTQ", cfg.test_queries);
  return cfg;
}

/// Budget grid used by the error-curve figures.
inline std::vector<double> BenchBudgets() {
  return {0.01, 0.02, 0.05, 0.1, 0.2, 0.4, 0.6};
}

/// Runs per stochastic method (the paper averages 10; scaled down).
inline constexpr int kRuns = 3;

}  // namespace ps3::bench

#endif  // PS3_BENCH_BENCH_COMMON_H_
