// Exact per-partition query evaluation and weighted combination (§2.4).
//
// Each partition produces a PartitionAnswer: group key -> per-aggregate
// (sum, count, min, max) accumulators. Weighted combination scales
// sum/count by the partition weight (extrema merge weight-free) and
// finalizes SUM/COUNT/AVG/MIN/MAX at the end, which makes AVG correct
// under weighting (weighted sum / weighted count).
//
// Whole-table scans have one entry point, EvaluateAllPartitions over a
// storage::PartitionSource: resident tables, cold stores and picked
// subsets all run the same fan-out, so an exact answer is just the
// all-weight-1 combine of the same partials an approximate one reweights.
//
// Two execution policies produce bit-identical answers:
//  - kScalar: the reference row-at-a-time interpreter (predicate AST walk
//    per row, hash-map probe per row);
//  - kVectorized: the batch engine — the predicate is compiled once per
//    query into a post-order program of column kernels, executed per
//    partition into a word-packed SelectionBitmap. Aggregation has two
//    paths: without GROUP BY, COUNT is a popcount and each aggregate one
//    ordered sum over set bits; with GROUP BY, one loop gives every
//    selected row a group slot (dense dictionary-code ids for small
//    all-categorical GROUP BYs, a key hash otherwise) and then
//    accumulates the rows in ascending order.
// Bit-identity holds because every per-group accumulator sees the same
// floating-point additions in the same (ascending row) order under both
// policies.
#ifndef PS3_QUERY_EVALUATOR_H_
#define PS3_QUERY_EVALUATOR_H_

#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "common/query_control.h"
#include "query/query.h"
#include "runtime/simd.h"
#include "storage/table.h"

namespace ps3::runtime {
class WorkerPool;
}  // namespace ps3::runtime

namespace ps3::storage {
class PartitionSource;
}  // namespace ps3::storage

namespace ps3::query {

/// Group-by key: one 64-bit encoding per group column (dictionary code for
/// categoricals, raw double bits for numerics).
using GroupKey = std::vector<int64_t>;

struct GroupKeyHash {
  size_t operator()(const GroupKey& k) const {
    // Seed with the key length and finalize with a full avalanche pass:
    // single-column keys of small dictionary codes otherwise land in
    // clustered buckets (HashCombine alone does not mix high bits down).
    uint64_t h = Mix64(0x9E3779B97F4A7C15ULL ^
                       (static_cast<uint64_t>(k.size()) + 1));
    for (int64_t v : k) h = HashCombine(h, HashInt(v));
    return static_cast<size_t>(Mix64(h));
  }
};

/// Accumulator for one aggregate within one group. Every path maintains
/// sum/count; min/max are tracked only for kMin/kMax aggregates (gated
/// on the function identically in all paths, so accumulators stay
/// comparable across policies). Extrema updates canonicalize -0.0 to
/// +0.0 before comparing, which makes the lane-parallel AVX2 reductions
/// (whose tie resolution between signed zeros differs from the scalar
/// `v < m` loop) bit-identical to the scalar reference.
struct AggAccum {
  double sum = 0.0;
  double count = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();

  void Add(const AggAccum& other, double weight) {
    sum += other.sum * weight;
    count += other.count * weight;
    // Extrema merge weight-free: scaling a minimum by a partition weight
    // is meaningless (MIN over a weighted union is still the smallest
    // observed value). A partition where the aggregate matched no rows
    // contributes the +/-inf identity and drops out.
    if (other.min < min) min = other.min;
    if (other.max > max) max = other.max;
  }

  /// Folds one expression value into the extrema (kMin/kMax paths only).
  void FoldExtrema(double v) {
    if (v == 0.0) v = 0.0;  // canonicalize -0.0, like EncodeGroupValue
    if (v < min) min = v;
    if (v > max) max = v;
  }
};

using PartitionAnswer =
    std::unordered_map<GroupKey, std::vector<AggAccum>, GroupKeyHash>;

/// Finalized answer: group key -> one value per aggregate.
using QueryAnswer =
    std::unordered_map<GroupKey, std::vector<double>, GroupKeyHash>;

/// Execution policy for partition scans.
enum class ExecPolicy {
  kScalar,      ///< reference row-at-a-time interpreter
  kVectorized,  ///< compiled predicates + selection bitmaps
};

/// Options for whole-table evaluation.
struct ExecOptions {
  ExecPolicy policy = ExecPolicy::kVectorized;
  /// Worker lanes for per-partition parallelism. 0 = all hardware
  /// threads; 1 = fully inline. Under concurrent admission (several
  /// queries in flight on one pool, e.g. via runtime::QueryScheduler)
  /// this is also the query's lane cap: at most this many lanes serve the
  /// query at once while the rest stay free for siblings. Results are
  /// identical for any value: each partition is independent and the
  /// reduction is ordered by index.
  int num_threads = 0;
  /// Resident pool to run on; nullptr = the process-wide shared pool.
  /// Per-lane execution scratch lives with the pool (submitter threads
  /// use an equally persistent thread-local slot), so a long-lived pool
  /// amortizes the dense group-id tables across a whole query stream.
  /// Concurrent evaluations on one pool interleave at chunk granularity
  /// and stay bit-identical to running each alone.
  runtime::WorkerPool* pool = nullptr;
  /// Predicate kernel selection for the vectorized policy (scalar packing
  /// vs explicit AVX2); answers are bit-identical either way.
  runtime::SimdLevel simd = runtime::SimdLevel::kAuto;
  /// Admission class under concurrent load: interactive scans preempt
  /// batch scans at chunk granularity on the shared pool, and cold
  /// sources keep their prefetch outside the batch read-ahead share.
  /// Affects only when chunks run — answers are class-blind.
  QueryClass query_class = QueryClass::kBatch;
  /// Cooperative cancel/deadline token, polled before every partition
  /// acquire and inside cold-load single-flight waits; nullable, borrowed
  /// for the evaluation's duration. When it fires the evaluation throws
  /// QueryAborted (pins already taken are released); concurrent
  /// evaluations on the pool are unaffected.
  const CancelToken* cancel = nullptr;
};

/// Evaluates the query exactly on one partition with the scalar policy.
PartitionAnswer EvaluateOnPartition(const Query& query,
                                    const storage::Partition& part);

/// Evaluates the query exactly on one partition under `policy`. The
/// vectorized policy compiles the query per call; prefer
/// EvaluateAllPartitions for whole-table scans (compiles once).
PartitionAnswer EvaluateOnPartition(const Query& query,
                                    const storage::Partition& part,
                                    ExecPolicy policy);

/// The one scan: evaluates the query exactly on every partition of a
/// PartitionSource — a resident table (storage::ResidentShardedSource, for
/// a ShardedTable or a flat PartitionedTable served as one shard), the io
/// layer's cold / cached stores, or a storage::PickedSource view of any of
/// them. Per-partition work fans out in parallel, flattened across
/// shards, and the partials merge in shard-index order into a vector
/// indexed by *global* partition id, so the result is bit-identical for
/// any shard count, assignment policy, or lane count. The query's
/// referenced-column set (predicate + aggregate + GROUP BY columns, via
/// query::ReferencedColumns) is passed to every Acquire/WillScanShard as
/// the projection hint, so out-of-core sources read only the column
/// segments this query touches. Each unit pins its partition just before
/// the kernels run and releases it right after; the first unit to enter a
/// shard fires WillScanShard(s, cols) so out-of-core sources can stage
/// upcoming shards ahead of the scan. A failed Acquire (IO error,
/// checksum mismatch) fails this evaluation only, surfaced as a thrown
/// std::runtime_error carrying the Status — or as QueryAborted when
/// opts.cancel fired (the abort is also checked before every acquire, so
/// a cancelled query stops issuing cold loads). Answers are bit-identical
/// to the resident scan for any source whose shard structure matches
/// storage::AssignShards.
std::vector<PartitionAnswer> EvaluateAllPartitions(
    const Query& query, const storage::PartitionSource& source,
    const ExecOptions& opts = {});

/// Number of vectorized-execution scratch blocks constructed so far in
/// this process. Testing hook: resident-pool scratch reuse means this must
/// not grow between two queries on the same pool.
size_t VectorScratchCreatedForTesting();

/// Total rows matching `pred` over all partitions: a COUNT(*) query with
/// that predicate through EvaluateAllPartitions, summed over partitions.
/// Used for exact selectivity labeling. A null predicate counts every row.
size_t CountMatchingRows(const PredicatePtr& pred,
                         const storage::PartitionedTable& table,
                         const ExecOptions& opts = {});

/// One weighted partition choice (§2.4).
struct WeightedPartition {
  size_t partition = 0;
  double weight = 1.0;
};

/// Combines per-partition answers with weights: A~_g = sum_j w_j A_{g,p_j},
/// then finalizes each aggregate (AVG = weighted sum / weighted count).
QueryAnswer CombineWeighted(const Query& query,
                            const std::vector<PartitionAnswer>& per_partition,
                            const std::vector<WeightedPartition>& selection);

/// Exact answer: every partition with weight 1.
QueryAnswer ExactAnswer(const Query& query,
                        const std::vector<PartitionAnswer>& per_partition);

/// Sorts a selection into canonical combine order: ascending global
/// partition index. CombineWeighted folds partitions in selection order,
/// so canonicalizing first pins the floating-point merge order — the
/// combined answer is then bit-identical for any order the picker emitted
/// its choices in, and a full uniform selection reproduces ExactAnswer
/// bit for bit. Selections hold at most one entry per partition.
void CanonicalizeSelection(std::vector<WeightedPartition>* selection);

/// A weighted combination plus its per-(group, aggregate) standard-error
/// estimate. `error` mirrors `value`: same keys, one entry per aggregate.
struct ApproxCombined {
  QueryAnswer value;
  QueryAnswer error;
};

/// The degraded-serving selection: every reachable partition, each with
/// the uniform Horvitz–Thompson weight total/|reachable| — the estimator
/// for "scan everything we can still reach, treat it as a uniform sample
/// of the whole table". With nothing lost (reachable.size() == total)
/// every weight is exactly 1.0, so CombineWeighted reproduces ExactAnswer
/// bit for bit and CombineWeightedWithError reports zero error — degraded
/// submissions over a healthy store cost nothing in fidelity. `reachable`
/// must be ascending (the canonical combine order) and non-empty.
std::vector<WeightedPartition> DegradedSelection(
    const std::vector<size_t>& reachable, size_t total_partitions);

/// CombineWeighted plus an honest error surface, computed in one pass.
/// `value` is bit-identical to CombineWeighted on the same selection
/// (identical accumulation order and arithmetic). `error` is the
/// Horvitz–Thompson-style standard-error estimate treating each
/// partition j as included with probability 1/w_j:
///   V^(T) = sum_j (1 - 1/w_j) * (w_j * t_j)^2
/// per group for SUM and COUNT totals (partitions read exactly, w_j = 1,
/// contribute zero — a fraction-1.0 uniform selection reports zero error
/// everywhere); AVG uses the delta method on the (sum, count) ratio with
/// the matching covariance term; MIN/MAX report 0 by contract (subset
/// extrema admit no distribution-free error estimate — consumers must
/// treat them as one-sided bounds). These are estimates of sampling
/// standard error, not hard bounds.
ApproxCombined CombineWeightedWithError(
    const Query& query, const std::vector<PartitionAnswer>& per_partition,
    const std::vector<WeightedPartition>& selection);

/// Finalizes a single accumulator for an aggregate function.
double FinalizeAgg(AggFunc func, const AggAccum& acc);

}  // namespace ps3::query

#endif  // PS3_QUERY_EVALUATOR_H_
