#include "io/partition_store.h"

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <future>

#include "common/hash.h"
#include "common/math_util.h"
#include "common/serialize.h"
#include "io/partition_file.h"

namespace ps3::io {

namespace {

constexpr uint32_t kManifestMagic = 0x4D335350;  // "PS3M"
constexpr uint32_t kManifestVersion = 2;
constexpr const char* kManifestName = "manifest.ps3m";
/// Floor for the adaptive hedge delay.
constexpr size_t kMinHedgeDelayUs = 500;

std::string JoinPath(const std::string& dir, const std::string& name) {
  if (dir.empty() || dir.back() == '/') return dir + name;
  return dir + "/" + name;
}

/// The one place the partition filename format lives: Spill writes and
/// PartitionPath reads through the same formatter.
std::string PartitionFilePath(const std::string& dir, size_t i) {
  char name[32];
  std::snprintf(name, sizeof(name), "part-%06zu.ps3p", i);
  return JoinPath(dir, name);
}

Status EnsureDir(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST) return Status::OK();
  return Status::InvalidArgument("cannot create directory '" + dir + "'");
}

bool IsAbort(const Status& s) {
  return s.code() == StatusCode::kCancelled ||
         s.code() == StatusCode::kDeadlineExceeded;
}

}  // namespace

std::string PartitionStore::PartitionPath(size_t i) const {
  return PartitionFilePath(dir_, i);
}

Status PartitionStore::Spill(const storage::PartitionedTable& table,
                             const std::string& dir) {
  return Spill(table, dir, SpillOptions{});
}

Status PartitionStore::Spill(const storage::PartitionedTable& table,
                             const std::string& dir,
                             const SpillOptions& spill) {
  PS3_RETURN_IF_ERROR(EnsureDir(dir));
  const storage::Table& t = table.table();
  const storage::Schema& schema = t.schema();
  const size_t n_parts = table.num_partitions();

  std::vector<uint64_t> part_bytes(n_parts);
  std::vector<std::vector<size_t>> part_col_bytes(n_parts);
  for (size_t i = 0; i < n_parts; ++i) {
    const storage::Partition p = table.partition(i);
    auto info = WritePartitionFile(t, p.begin_row(), p.end_row(),
                                   PartitionFilePath(dir, i),
                                   spill.encoding);
    if (!info.ok()) return info.status();
    part_bytes[i] = info->file_bytes;
    part_col_bytes[i] = std::move(info->column_bytes);
  }

  BinaryWriter w;
  w.PutU32(kManifestMagic);
  w.PutU32(kManifestVersion);
  w.PutU64(t.num_rows());
  w.PutU32(static_cast<uint32_t>(schema.num_columns()));
  for (const auto& f : schema.fields()) {
    w.PutString(f.name);
    w.PutU8(f.type == storage::ColumnType::kNumeric ? 0 : 1);
  }
  w.PutU32(static_cast<uint32_t>(n_parts));
  for (size_t i = 0; i < n_parts; ++i) {
    w.PutU64(table.partition_rows(i));
    w.PutU64(part_bytes[i]);
    // v2: per-column *encoded* segment sizes, so disk-byte accounting
    // (bandwidth model, read-ahead budget, bytes_read expectations)
    // never has to reopen partition footers.
    for (size_t c = 0; c < schema.num_columns(); ++c) {
      w.PutU64(part_col_bytes[i][c]);
    }
  }
  // Dictionaries in code order: GetOrAdd on load reassigns the identical
  // codes, so spilled code segments keep their meaning.
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    if (schema.IsNumeric(c)) continue;
    const storage::Dictionary* dict = t.column(c).dict();
    w.PutU32(static_cast<uint32_t>(dict->size()));
    for (size_t code = 0; code < dict->size(); ++code) {
      w.PutString(dict->ValueOf(static_cast<int32_t>(code)));
    }
  }
  w.PutU64(Fnv1a64(w.buffer().data(), w.buffer().size()));
  return w.WriteFile(JoinPath(dir, kManifestName));
}

Result<std::unique_ptr<PartitionStore>> PartitionStore::Open(
    const std::string& dir, const Options& options) {
  auto reader = BinaryReader::FromFile(JoinPath(dir, kManifestName));
  if (!reader.ok()) return reader.status();
  BinaryReader& r = *reader;

  auto corrupt = [&dir](const std::string& what) {
    return Status::Internal("manifest in '" + dir + "': " + what);
  };

  if (r.size() < 8) return corrupt("shorter than its checksum");
  const uint64_t body_len = r.size() - 8;
  PS3_RETURN_IF_ERROR(r.SeekTo(body_len));
  auto stored_sum = r.GetU64();
  if (!stored_sum.ok() ||
      *stored_sum != Fnv1a64(r.data().data(), body_len)) {
    return corrupt("checksum mismatch");
  }
  PS3_RETURN_IF_ERROR(r.SeekTo(0));

  auto magic = r.GetU32();
  auto version = r.GetU32();
  if (!magic.ok() || *magic != kManifestMagic) return corrupt("bad magic");
  if (!version.ok() || *version != kManifestVersion) {
    return corrupt("unsupported version");
  }
  auto num_rows = r.GetU64();
  auto num_cols = r.GetU32();
  if (!num_rows.ok() || !num_cols.ok()) return corrupt("truncated header");

  std::vector<storage::FieldDef> fields;
  fields.reserve(*num_cols);
  for (uint32_t c = 0; c < *num_cols; ++c) {
    auto name = r.GetString();
    auto type = r.GetU8();
    if (!name.ok() || !type.ok()) return corrupt("truncated schema");
    fields.push_back({std::move(*name), *type == 0
                                            ? storage::ColumnType::kNumeric
                                            : storage::ColumnType::kCategorical});
  }
  storage::Schema schema(std::move(fields));

  auto n_parts = r.GetU32();
  if (!n_parts.ok()) return corrupt("truncated partition map");
  std::vector<size_t> part_rows(*n_parts), part_bytes(*n_parts);
  std::vector<std::vector<size_t>> part_col_bytes(*n_parts);
  uint64_t total_rows = 0;
  for (uint32_t i = 0; i < *n_parts; ++i) {
    auto rows = r.GetU64();
    auto bytes = r.GetU64();
    if (!rows.ok() || !bytes.ok()) return corrupt("truncated partition map");
    part_rows[i] = static_cast<size_t>(*rows);
    part_bytes[i] = static_cast<size_t>(*bytes);
    total_rows += *rows;
    part_col_bytes[i].resize(schema.num_columns());
    for (size_t c = 0; c < schema.num_columns(); ++c) {
      auto col_bytes = r.GetU64();
      if (!col_bytes.ok()) return corrupt("truncated partition map");
      part_col_bytes[i][c] = static_cast<size_t>(*col_bytes);
    }
  }
  if (total_rows != *num_rows) return corrupt("partition rows don't sum");

  std::vector<std::shared_ptr<storage::Dictionary>> dicts(
      schema.num_columns());
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    if (schema.IsNumeric(c)) continue;
    auto dict_size = r.GetU32();
    if (!dict_size.ok()) return corrupt("truncated dictionary");
    auto dict = std::make_shared<storage::Dictionary>();
    for (uint32_t i = 0; i < *dict_size; ++i) {
      auto value = r.GetString();
      if (!value.ok()) return corrupt("truncated dictionary");
      dict->GetOrAdd(*value);
    }
    if (dict->size() != *dict_size) return corrupt("duplicate dictionary entry");
    dicts[c] = std::move(dict);
  }

  return std::unique_ptr<PartitionStore>(new PartitionStore(
      dir, options, std::move(schema), *num_rows, std::move(part_rows),
      std::move(part_bytes), std::move(part_col_bytes), std::move(dicts)));
}

PartitionStore::PartitionStore(
    std::string dir, Options options, storage::Schema schema,
    uint64_t num_rows, std::vector<size_t> part_rows,
    std::vector<size_t> part_bytes,
    std::vector<std::vector<size_t>> part_col_bytes,
    std::vector<std::shared_ptr<storage::Dictionary>> dicts)
    : dir_(std::move(dir)),
      options_(options),
      schema_(std::move(schema)),
      num_rows_(num_rows),
      part_rows_(std::move(part_rows)),
      part_bytes_(std::move(part_bytes)),
      part_col_bytes_(std::move(part_col_bytes)),
      dicts_(std::move(dicts)),
      cache_(options.cache_budget_bytes),
      breaker_(options.breaker) {
  for (size_t b : part_bytes_) total_bytes_ += b;
}

size_t PartitionStore::column_bytes(size_t i, size_t col) const {
  return ColumnSegmentBytes(schema_, col, part_rows_[i]);
}

size_t PartitionStore::columns_bytes(size_t i,
                                     const std::vector<size_t>& cols) const {
  size_t total = 0;
  for (size_t c : cols) total += column_bytes(i, c);
  return total;
}

size_t PartitionStore::encoded_column_bytes(size_t i, size_t col) const {
  return part_col_bytes_[i][col];
}

size_t PartitionStore::encoded_columns_bytes(
    size_t i, const std::vector<size_t>& cols) const {
  size_t total = 0;
  for (size_t c : cols) total += encoded_column_bytes(i, c);
  return total;
}

std::vector<FaultDecision> PartitionStore::DrawFaults(
    size_t i, const std::vector<size_t>& cols) {
  std::vector<FaultDecision> decisions;
  FaultInjector* const faults = options_.faults.get();
  if (faults != nullptr && faults->plan().AnyFaults()) {
    decisions.reserve(cols.size());
    for (size_t c : cols) decisions.push_back(faults->Next(i, c));
  }
  return decisions;
}

Result<PartitionStore::LoadedColumns> PartitionStore::LoadColumnsOnce(
    size_t i, const std::vector<size_t>& cols,
    const std::vector<FaultDecision>& decisions, const CancelToken* cancel,
    const CancelToken* hedge_stop) {
  const auto start = std::chrono::steady_clock::now();
  // Resolve this pass's injected faults: one attempt per column
  // coordinate, pass-level effect. A transient draw on *any* column
  // fails the whole pass (it is one physical read); corrupt draws flip a
  // bit in exactly their column's encoded segment; spike latencies take
  // the max across columns (one link, slowest replica).
  bool transient = false;
  int transient_attempt = 0;
  size_t spike_us = 0;
  for (const FaultDecision& d : decisions) {
    if (d.kind == FaultKind::kLost) {
      // Resilient callers fail fast before consuming attempts; this
      // covers an injector whose lost set raced a direct call.
      return Status::Unavailable("partition " + std::to_string(i) +
                                 " permanently lost");
    }
    if (d.kind == FaultKind::kTransient) {
      transient = true;
      transient_attempt = d.attempt;
    }
    spike_us = std::max(spike_us, d.extra_latency_us);
  }

  // The latency model sleeps *before* the read, like a request round
  // trip; the bandwidth term scales with the *encoded* bytes this pruned
  // pass will actually move — compressed segments cross the simulated
  // link at their on-disk size, so narrower *and denser* reads finish
  // sooner. Injected spikes are additive: a slow replica is slow before
  // it answers (or fails). The sleep is sliced and polls both tokens so
  // neither an expired query nor a beaten hedge racer rides out the RTT.
  size_t delay_us = options_.simulated_load_delay_us + spike_us;
  if (options_.simulated_load_bandwidth_mbps > 0) {
    delay_us += encoded_columns_bytes(i, cols) * 8 /
                options_.simulated_load_bandwidth_mbps;
  }
  PS3_RETURN_IF_ERROR(SleepWithCancel(delay_us, cancel, hedge_stop));

  // A transient fault fails *after* the latency is paid — the bytes
  // moved and were dropped, which is why transient retries cost real
  // time.
  if (transient) {
    return Status::Unavailable(
        "injected transient read error (partition " + std::to_string(i) +
        ", attempt " + std::to_string(transient_attempt) + ")");
  }

  SegmentTamper tamper;
  if (!decisions.empty()) {
    // Map the pass's corrupt decisions onto the reader's tamper seam so
    // the bit flips land on encoded bytes upstream of the checksum —
    // injected corruption exercises the real detection machinery.
    const uint64_t seed = options_.faults->plan().seed;
    tamper = [&cols, &decisions, seed, i](size_t col, uint8_t* data,
                                          size_t len) {
      for (size_t k = 0; k < cols.size(); ++k) {
        if (cols[k] == col && decisions[k].kind == FaultKind::kCorrupt) {
          FaultInjector::CorruptBytes(seed, i, col, decisions[k].attempt,
                                      data, len);
        }
      }
    };
  }

  size_t bytes_read = 0;
  auto table = ReadPartitionColumns(PartitionPath(i), schema_, dicts_,
                                    storage::ColumnSet::Of(cols), tamper,
                                    &bytes_read);
  if (!table.ok()) return table.status();
  if (table->num_rows() != part_rows_[i]) {
    return Status::Internal("partition " + std::to_string(i) +
                            " row count disagrees with manifest");
  }
  LoadedColumns out;
  out.reserve(cols.size());
  for (size_t c : cols) {
    // Column copies share the decoded buffer; the discarded table was
    // just the decode vehicle. The cache is charged the *decoded* size
    // (column_bytes) — what the entry actually occupies in memory — not
    // the smaller encoded size the disk read reported.
    out.push_back(std::make_shared<const CachedColumn>(
        table->column(c), column_bytes(i, c)));
  }
  {
    std::lock_guard<std::mutex> lock(load_mu_);
    store_stats_.segments_loaded += cols.size();
    store_stats_.bytes_loaded += bytes_read;
  }
  RecordLoadLatency(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count()));
  return out;
}

void PartitionStore::RecordLoadLatency(uint64_t us) {
  // Both cells step the shared EWMA. The mean cell uses 0 as its "no
  // sample" sentinel, so a sub-microsecond load clamps to 1; the second
  // cell tracks mean absolute deviation, so mean + 3*dev approximates a
  // p99 without keeping a histogram.
  us = std::max<uint64_t>(us, 1);
  const uint64_t mean = LatencyEwmaStep(
      load_lat_ewma_us_.load(std::memory_order_relaxed), us);
  load_lat_ewma_us_.store(mean, std::memory_order_relaxed);
  const uint64_t dev_sample = us > mean ? us - mean : mean - us;
  // No 1us floor on the dev cell: 0 is a legitimate steady-state ("no
  // spread"), and the first sample may seed it with 0 — fine, because
  // unlike the mean it is never used as a "seeded yet" sentinel.
  load_dev_ewma_us_.store(
      LatencyEwmaStep(load_dev_ewma_us_.load(std::memory_order_relaxed),
                      dev_sample, /*floor=*/0),
      std::memory_order_relaxed);
}

size_t PartitionStore::HedgeDelayUs() const {
  if (options_.hedge.fixed_delay_us != 0) return options_.hedge.fixed_delay_us;
  const uint64_t mean = load_lat_ewma_us_.load(std::memory_order_relaxed);
  if (mean == 0) return 0;  // no sample yet: don't hedge blind
  const uint64_t dev = load_dev_ewma_us_.load(std::memory_order_relaxed);
  const uint64_t p99 = mean + 3 * dev;
  return std::clamp(static_cast<size_t>(p99), kMinHedgeDelayUs,
                    options_.hedge.max_delay_us);
}

Result<PartitionStore::LoadedColumns> PartitionStore::LoadPass(
    size_t i, const std::vector<size_t>& cols, const CancelToken* cancel) {
  // Last poll before the expensive part: a query cancelled (or expired)
  // by now skips the simulated RTT, the read, and the fault draw.
  PS3_RETURN_IF_ERROR(SleepWithCancel(0, cancel));
  // Every racer's fault attempts are drawn here, on the calling thread
  // in launch order — never on a racer's own thread — so which racer
  // meets which attempt is a pure function of the plan, not of thread
  // scheduling.
  const std::vector<FaultDecision> primary_faults = DrawFaults(i, cols);
  if (!options_.hedge.enabled) {
    return LoadColumnsOnce(i, cols, primary_faults, cancel, nullptr);
  }
  const size_t hedge_delay_us = HedgeDelayUs();
  if (hedge_delay_us == 0) {
    // No latency estimate yet (and no fixed delay): load plain and let
    // the sample prime the EWMA.
    return LoadColumnsOnce(i, cols, primary_faults, cancel, nullptr);
  }

  // Hedged race: primary fires immediately; if it hasn't landed within
  // the hedge delay (~p99 of recent passes), a duplicate read fires and
  // the first success cancels the other through its racer-local token.
  // Both futures are joined on every path — the loser aborts within one
  // sleep slice of its token firing, so the join is short.
  CancelToken primary_stop;
  CancelToken secondary_stop;
  auto primary = std::async(std::launch::async, [&] {
    return LoadColumnsOnce(i, cols, primary_faults, cancel, &primary_stop);
  });
  if (primary.wait_for(std::chrono::microseconds(hedge_delay_us)) ==
      std::future_status::ready) {
    return primary.get();
  }
  // A dead query fires no hedge: the primary aborts on the same token.
  if (cancel != nullptr && !cancel->Check().ok()) return primary.get();
  {
    std::lock_guard<std::mutex> lock(load_mu_);
    ++store_stats_.hedged_loads;
  }
  const std::vector<FaultDecision> secondary_faults = DrawFaults(i, cols);
  auto secondary = std::async(std::launch::async, [&] {
    return LoadColumnsOnce(i, cols, secondary_faults, cancel,
                           &secondary_stop);
  });
  for (;;) {
    if (primary.wait_for(std::chrono::microseconds(200)) ==
        std::future_status::ready) {
      auto r = primary.get();
      if (r.ok()) {
        secondary_stop.Cancel();
        secondary.wait();
        return r;
      }
      // Primary failed: the hedge is now the only hope — wait it out.
      auto r2 = secondary.get();
      if (r2.ok()) {
        std::lock_guard<std::mutex> lock(load_mu_);
        ++store_stats_.hedge_wins;
        return r2;
      }
      // Both failed: surface the primary's error (the hedge's is the
      // same fault class one attempt later).
      return r;
    }
    if (secondary.wait_for(std::chrono::seconds(0)) ==
        std::future_status::ready) {
      auto r2 = secondary.get();
      if (r2.ok()) {
        primary_stop.Cancel();
        primary.wait();
        std::lock_guard<std::mutex> lock(load_mu_);
        ++store_stats_.hedge_wins;
        return r2;
      }
      // Hedge failed first; keep waiting on the primary.
      return primary.get();
    }
  }
}

Result<PartitionStore::LoadedColumns> PartitionStore::LoadColumns(
    size_t i, const std::vector<size_t>& cols, const CancelToken* cancel) {
  // Lost partitions fail fast before consuming attempts or bothering
  // the breaker: retries can't resurrect a partition the plan says is
  // gone, and a degraded table must not wedge the breaker shut for the
  // reachable ones.
  FaultInjector* const faults = options_.faults.get();
  if (faults != nullptr && faults->IsLost(i)) {
    {
      std::lock_guard<std::mutex> lock(load_mu_);
      ++store_stats_.lost_errors;
    }
    return Status::Unavailable("partition " + std::to_string(i) +
                               " permanently lost");
  }

  bool claimed_probe = false;
  if (!breaker_.Admit(&claimed_probe)) {
    return Status::Unavailable("circuit breaker open for store '" + dir_ +
                               "'");
  }
  // Every admitted load reports back to the breaker exactly once.
  // Success and failure record explicitly below and mark the guard
  // resolved; any other exit (abort return, exception) is an abort and
  // must release a claimed half-open probe slot, or the breaker would
  // reject everything forever — and probes are likeliest to abort
  // exactly when deadlines are firing.
  struct BreakerGuard {
    CircuitBreaker* breaker;
    bool claimed_probe;
    bool resolved = false;
    ~BreakerGuard() {
      if (!resolved) breaker->RecordAbort(claimed_probe);
    }
  } breaker_guard{&breaker_, claimed_probe};

  const RetryPolicy& retry = options_.retry;
  const auto start = std::chrono::steady_clock::now();
  const int max_attempts = std::max(1, retry.max_attempts);
  bool corrupt_refetched = false;
  Status last;
  for (int attempt = 1;;) {
    auto loaded = LoadPass(i, cols, cancel);
    if (loaded.ok()) {
      breaker_guard.resolved = true;
      breaker_.RecordSuccess();
      return loaded;
    }
    last = loaded.status();
    // Aborts are the caller's verdict, not the store's: no counters, no
    // breaker input, straight out.
    if (IsAbort(last)) return last;

    if (last.code() == StatusCode::kInternal) {
      // Corruption (checksum mismatch, decode validation): the bad
      // pass's buffers are already discarded — nothing reached the
      // cache — so the "evict" is implicit and exactly one immediate
      // refetch re-reads clean bytes. A second corrupt pass surfaces:
      // the file itself is bad, not the link.
      std::lock_guard<std::mutex> lock(load_mu_);
      ++store_stats_.corrupt_errors;
      if (corrupt_refetched) break;
      corrupt_refetched = true;
      ++store_stats_.retries;
      continue;
    }
    if (last.code() == StatusCode::kUnavailable) {
      {
        std::lock_guard<std::mutex> lock(load_mu_);
        ++store_stats_.transient_errors;
      }
      if (attempt >= max_attempts) break;
      // Retry budget: wall-clock, backoffs included.
      if (retry.retry_time_budget_us > 0 &&
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - start)
                  .count() >=
              static_cast<int64_t>(retry.retry_time_budget_us)) {
        break;
      }
      const size_t backoff_us = BackoffUs(
          retry, attempt, HashCombine(static_cast<uint64_t>(i),
                                      cols.empty() ? 0 : cols.front()));
      Status slept = SleepWithCancel(backoff_us, cancel);
      if (!slept.ok()) return slept;  // abort mid-backoff: uncounted
      {
        std::lock_guard<std::mutex> lock(load_mu_);
        ++store_stats_.retries;
      }
      ++attempt;
      continue;
    }
    // Anything else (missing file, out-of-range, ...) is not retryable.
    break;
  }
  breaker_guard.resolved = true;
  breaker_.RecordFailure();
  return last;
}

storage::PinnedPartition PartitionStore::AssemblePinned(
    size_t i, const LoadedColumns& data, PartitionCache::PinSet pins) const {
  struct AssembledPartition {
    storage::Table table;
    PartitionCache::PinSet pins;
  };
  std::vector<storage::Column> columns;
  columns.reserve(schema_.num_columns());
  for (size_t c = 0; c < schema_.num_columns(); ++c) {
    if (data[c] != nullptr) {
      columns.push_back(data[c]->column);  // shares the cached buffer
    } else {
      columns.push_back(schema_.IsNumeric(c)
                            ? storage::Column::MakeNumeric()
                            : storage::Column::MakeCategorical(dicts_[c]));
    }
  }
  const size_t rows = part_rows_[i];
  auto owner = std::make_shared<const AssembledPartition>(AssembledPartition{
      storage::Table::FromPrunedColumns(schema_, std::move(columns), rows),
      std::move(pins)});
  storage::Partition view(&owner->table, 0, rows);
  return storage::PinnedPartition(view, std::move(owner));
}

std::vector<size_t> PartitionStore::UnclaimedLocked(
    size_t i, const std::vector<size_t>& cols) const {
  std::vector<size_t> out;
  for (size_t c : cols) {
    const ColumnKey key{i, c};
    if (loading_.count(key) == 0 && !cache_.Contains(key)) out.push_back(c);
  }
  return out;
}

Status PartitionStore::ClaimAndLoad(size_t i, const std::vector<size_t>& cols,
                                    const CancelToken* cancel,
                                    PartitionCache::PinSet* pins,
                                    LoadedColumns* data) {
  // The guard, not straight-line code, clears the loading marks and wakes
  // waiters, on every exit path including a throwing load: nothing else
  // ever clears a mark, so one left behind would wedge its waiters
  // forever. It therefore owns each mark from the moment the mark is
  // set: `claim` is reserved before the first insert, so a throwing
  // insert leaves it holding exactly the marks set so far.
  struct LoadingGuard {
    PartitionStore* store;
    size_t part;
    std::vector<size_t> claim;
    bool failed = false;
    ~LoadingGuard() {
      if (claim.empty()) return;
      {
        std::lock_guard<std::mutex> lock(store->load_mu_);
        for (size_t c : claim) store->loading_.erase(ColumnKey{part, c});
        if (failed) ++store->store_stats_.load_errors;
      }
      store->load_cv_.notify_all();
    }
  } guard{this, i, {}};
  {
    std::lock_guard<std::mutex> lock(load_mu_);
    const std::vector<size_t> unclaimed = UnclaimedLocked(i, cols);
    if (unclaimed.empty()) return Status::OK();
    guard.claim.reserve(unclaimed.size());
    for (size_t c : unclaimed) {
      loading_.insert(ColumnKey{i, c});
      guard.claim.push_back(c);
    }
    ++store_stats_.cold_loads;
  }
  const std::vector<size_t>& claim = guard.claim;
  auto loaded = LoadColumns(i, claim, cancel);
  if (!loaded.ok()) {
    // An abort is not a load error: the guard still clears the marks and
    // wakes waiters (who re-claim and load for themselves), but the
    // store's error counter only tracks real IO failures.
    guard.failed = !IsAbort(loaded.status());
    return loaded.status();
  }
  // Inserted before the guard clears the marks, so a waiter that wakes
  // up finds the entries instead of reloading them.
  for (size_t k = 0; k < claim.size(); ++k) {
    auto resident = cache_.Insert(ColumnKey{i, claim[k]},
                                  std::move((*loaded)[k]), pins);
    if (data != nullptr) (*data)[claim[k]] = std::move(resident);
  }
  return Status::OK();
}

Result<storage::PinnedPartition> PartitionStore::Fetch(
    size_t i, const storage::ColumnSet& columns, const CancelToken* cancel) {
  if (i >= num_partitions()) {
    return Status::OutOfRange("partition index out of range");
  }
  const std::vector<size_t> needed = columns.Resolve(schema_.num_columns());
  // data[c] = the pinned segment serving column c; `pins` holds every pin
  // this fetch takes and releases them in one pass when the assembled
  // view — or an early return — drops it.
  LoadedColumns data(schema_.num_columns());
  PartitionCache::PinSet pins(&cache_);
  std::vector<ColumnKey> want;
  LoadedColumns got;
  for (;;) {
    // Cooperative abort between passes: the early return drops `pins`,
    // releasing every pin this fetch already took.
    if (cancel != nullptr) {
      Status live = cancel->Check();
      if (!live.ok()) return live;
    }
    want.clear();
    for (size_t c : needed) {
      if (data[c] == nullptr) want.push_back(ColumnKey{i, c});
    }
    if (!want.empty()) {
      // One lock for the whole partition's lookups (and one batched
      // release later) instead of per-column traffic on the cache mutex.
      cache_.AcquireMany(want, &got, &pins);
      for (size_t k = 0; k < want.size(); ++k) {
        if (got[k] != nullptr) data[want[k].col] = std::move(got[k]);
      }
    }
    std::vector<size_t> missing;
    for (size_t c : needed) {
      if (data[c] == nullptr) missing.push_back(c);
    }
    if (missing.empty()) return AssemblePinned(i, data, std::move(pins));
    PS3_RETURN_IF_ERROR(ClaimAndLoad(i, missing, cancel, &pins, &data));
    // Single flight: the segments this fetch did not claim are cached by
    // now or being read by someone else, whose guard clears the marks
    // only after inserting. Wait for those marks and retry the cache
    // instead of duplicating the IO. The token is polled every 200 us so
    // a waiter whose deadline fires mid-flight unblocks without waiting
    // out another query's (possibly much longer) load.
    std::unique_lock<std::mutex> lock(load_mu_);
    auto in_flight = [&] {
      return std::any_of(missing.begin(), missing.end(), [&](size_t c) {
        return data[c] == nullptr && loading_.count(ColumnKey{i, c}) != 0;
      });
    };
    while (in_flight()) {
      if (cancel != nullptr) {
        Status live = cancel->Check();
        if (!live.ok()) return live;
      }
      load_cv_.wait_for(lock, std::chrono::microseconds(200));
    }
  }
}

Status PartitionStore::Preload(size_t i, const storage::ColumnSet& columns) {
  if (i >= num_partitions()) {
    return Status::OutOfRange("partition index out of range");
  }
  return ClaimAndLoad(i, columns.Resolve(schema_.num_columns()), nullptr,
                      nullptr, nullptr);
}

std::vector<size_t> PartitionStore::UnstagedColumns(
    size_t i, const std::vector<size_t>& cols) const {
  std::lock_guard<std::mutex> lock(load_mu_);
  return UnclaimedLocked(i, cols);
}

StoreStats PartitionStore::store_stats() const {
  StoreStats out;
  {
    std::lock_guard<std::mutex> lock(load_mu_);
    out = store_stats_;
  }
  // The breaker keeps its own counters (it has its own lock discipline);
  // fold them into the snapshot so callers see one stats surface.
  out.breaker_opens = breaker_.opens();
  out.breaker_open_rejects = breaker_.open_rejects();
  return out;
}

std::vector<size_t> PartitionStore::LostPartitions() const {
  std::vector<size_t> out;
  if (options_.faults != nullptr) {
    const std::set<size_t>& lost = options_.faults->lost_partitions();
    out.assign(lost.begin(), lost.end());
  }
  return out;
}

}  // namespace ps3::io
