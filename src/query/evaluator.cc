#include "query/evaluator.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "query/bitmap_evaluator.h"
#include "query/compiler.h"
#include "runtime/worker_pool.h"
#include "storage/partition_source.h"

namespace ps3::query {

namespace {

int64_t EncodeGroupValue(const storage::Partition& part, size_t col,
                         size_t row) {
  const auto& schema = part.table().schema();
  if (schema.IsCategorical(col)) {
    return part.CodeAt(col, row);
  }
  double v = part.NumericAt(col, row);
  if (v == 0.0) v = 0.0;  // canonicalize -0.0
  int64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// ------------------------------------------------------------------
// Vectorized execution.

/// Cap on the dense group-id space (product of GROUP BY dictionary sizes).
/// Above this the grouped loop numbers its groups through the key hash.
constexpr size_t kMaxDenseGroups = size_t{1} << 20;

/// Dense expression materialization threshold: below this selected-row
/// fraction, evaluating the expression only at set bits beats touching
/// every row columnar.
constexpr double kDenseExprFraction = 0.25;

std::atomic<size_t> g_vector_scratch_created{0};

/// Sum of values[r] over the set bits of `bits`, in ascending row order.
/// Kept out of line: inlined into EvaluateVectorized, GCC keeps the
/// running sum on the stack and the loop runs at half speed.
__attribute__((noinline)) double OrderedSum(const SelectionBitmap& bits,
                                            const double* values) {
  double sum = 0.0;
  bits.ForEachSetBit([&](size_t r) { sum += values[r]; });
  return sum;
}

/// Per-lane scratch, owned by the executing WorkerPool (resident workers
/// keep their slot alive across ParallelFor calls, so bitmaps, expression
/// buffers and the dense group-id table amortize across a whole query
/// stream, not just the partitions of one query).
struct VectorScratch {
  VectorScratch() { g_vector_scratch_created.fetch_add(1); }

  BitmapEvaluator be;
  SelectionBitmap main;
  std::vector<SelectionBitmap> agg_bitmaps;
  std::vector<std::vector<double>> agg_values;
  std::vector<const double*> agg_ptr;  ///< dense expr values per aggregate
  // Grouped-loop containers, reused (cleared, not reconstructed) across
  // partitions.
  std::vector<uint32_t> row_idx;    ///< selected rows, ascending
  std::vector<uint32_t> row_slot;   ///< group slot of each selected row
  std::vector<const int32_t*> gcodes;
  std::vector<uint32_t> strides;
  std::vector<int32_t> slot_of;  ///< dense group id -> slot, -1 = unseen
  std::vector<size_t> touched;   ///< dense ids to reset after each partition
  std::unordered_map<GroupKey, uint32_t, GroupKeyHash> slot_index;
  std::vector<GroupKey> keys;  ///< group key of each slot
  std::vector<AggAccum> accs;  ///< n_aggs accumulators per slot
};

/// Resolves the pool an ExecOptions runs on.
runtime::WorkerPool& PoolOf(const ExecOptions& opts) {
  return opts.pool != nullptr ? *opts.pool : runtime::WorkerPool::Shared();
}

/// Maps an ExecOptions onto the pool's per-job scheduling options, so
/// every evaluation pass carries the query's lane cap and class.
runtime::WorkerPool::TaskOptions TaskOf(const ExecOptions& opts) {
  runtime::WorkerPool::TaskOptions topts;
  topts.max_lanes = opts.num_threads;
  topts.query_class = opts.query_class;
  return topts;
}

PartitionAnswer EvaluateVectorized(const CompiledQuery& cq,
                                   const storage::Partition& part,
                                   VectorScratch* s) {
  const size_t n = part.num_rows();
  const size_t n_aggs = cq.aggregates.size();
  PartitionAnswer answer;
  if (n == 0) return answer;

  s->be.EvalPredicate(cq.predicate, part, &s->main);
  const size_t selected = cq.predicate.always_true ? n : s->main.CountOnes();
  if (selected == 0) return answer;

  // Per-aggregate effective bitmaps: CASE filter ∧ main predicate.
  if (s->agg_bitmaps.size() < n_aggs) s->agg_bitmaps.resize(n_aggs);
  if (s->agg_values.size() < n_aggs) s->agg_values.resize(n_aggs);
  for (size_t a = 0; a < n_aggs; ++a) {
    if (!cq.aggregates[a].has_filter) continue;
    s->be.EvalPredicate(cq.aggregates[a].filter, part, &s->agg_bitmaps[a]);
    s->agg_bitmaps[a].AndWith(s->main);
  }

  // Expression values: columnar when the selection is dense, else lazy at
  // set bits. Per-row values are bit-identical either way. A bare-column
  // expression (SUM(col)) reads the storage span directly instead of
  // materializing a copy.
  const bool dense_expr =
      static_cast<double>(selected) >=
      kDenseExprFraction * static_cast<double>(n);
  if (s->agg_ptr.size() < n_aggs) s->agg_ptr.resize(n_aggs);
  if (dense_expr) {
    for (size_t a = 0; a < n_aggs; ++a) {
      const CompiledAggregate& ca = cq.aggregates[a];
      if (!ca.has_expr) continue;
      if (ca.expr.instrs.size() == 1 &&
          ca.expr.instrs[0].op == ExprInstr::Op::kLoadColumn) {
        s->agg_ptr[a] = part.NumericSpan(ca.expr.instrs[0].column);
        continue;
      }
      s->be.EvalExprDense(ca.expr, part, &s->agg_values[a]);
      s->agg_ptr[a] = s->agg_values[a].data();
    }
  }
  auto expr_value = [&](size_t a, size_t r) {
    return dense_expr ? s->agg_ptr[a][r]
                      : s->be.EvalExprAt(cq.aggregates[a].expr, part, r);
  };

  // ---- no GROUP BY: COUNT by popcount, one ordered sum per aggregate,
  // MIN/MAX folded per row.
  if (cq.group_by.empty()) {
    auto [it, inserted] = answer.try_emplace(GroupKey{});
    (void)inserted;
    it->second.resize(n_aggs);
    for (size_t a = 0; a < n_aggs; ++a) {
      const CompiledAggregate& ca = cq.aggregates[a];
      const SelectionBitmap& eff =
          ca.has_filter ? s->agg_bitmaps[a] : s->main;
      AggAccum& acc = it->second[a];
      acc.count = static_cast<double>(ca.has_filter ? eff.CountOnes()
                                                    : selected);
      if (ca.has_expr) {
        double sum = 0.0;
        if (dense_expr) {
          sum = OrderedSum(eff, s->agg_ptr[a]);
        } else {
          eff.ForEachSetBit(
              [&](size_t r) { sum += s->be.EvalExprAt(ca.expr, part, r); });
        }
        acc.sum = sum;
        if (ca.func == AggFunc::kMin || ca.func == AggFunc::kMax) {
          eff.ForEachSetBit(
              [&](size_t r) { acc.FoldExtrema(expr_value(a, r)); });
        }
      }
    }
    return answer;
  }

  // ---- GROUP BY: one loop in three steps.
  // 1. Expand the selection once into ascending row indices.
  s->row_idx.resize(selected);
  s->row_slot.resize(selected);
  size_t w = 0;
  s->main.ForEachSetBit(
      [&](size_t r) { s->row_idx[w++] = static_cast<uint32_t>(r); });
  const uint32_t* rows = s->row_idx.data();
  uint32_t* row_slot = s->row_slot.data();

  // 2. Give each selected row a group slot, numbered in first-seen order.
  // All-categorical GROUP BYs whose id space (product of dictionary sizes)
  // fits kMaxDenseGroups get dense ids from the code-gather kernel, mapped
  // to slots through slot_of; every other GROUP BY hashes its key.
  const size_t n_gcols = cq.group_by.size();
  const auto& schema = part.table().schema();
  bool dense_groups = true;
  size_t space = 1;
  s->gcodes.clear();
  s->strides.clear();
  for (size_t col : cq.group_by) {
    if (!schema.IsCategorical(col)) {
      dense_groups = false;
      break;
    }
    size_t dict_size = std::max<size_t>(part.table().column(col).dict()->size(), 1);
    if (space > kMaxDenseGroups / dict_size) {
      dense_groups = false;
      break;
    }
    s->strides.push_back(static_cast<uint32_t>(space));
    space *= dict_size;
    s->gcodes.push_back(part.CodeSpan(col));
  }
  s->keys.clear();
  if (dense_groups) {
    const int32_t* const* gcodes = s->gcodes.data();
#if defined(__x86_64__) || defined(__i386__)
    if (s->be.use_avx2()) {
      runtime::DenseGroupIdsAvx2(gcodes, s->strides.data(), n_gcols, rows,
                                 selected, row_slot);
    } else
#endif
    {
      runtime::DenseGroupIdsScalar(gcodes, s->strides.data(), n_gcols, rows,
                                   selected, row_slot);
    }
    if (s->slot_of.size() < space) s->slot_of.resize(space, -1);
    for (size_t k = 0; k < selected; ++k) {
      const uint32_t id = row_slot[k];
      int32_t slot = s->slot_of[id];
      if (slot < 0) {
        slot = static_cast<int32_t>(s->keys.size());
        s->slot_of[id] = slot;
        s->touched.push_back(id);
        GroupKey key(n_gcols);
        for (size_t g = 0; g < n_gcols; ++g) key[g] = gcodes[g][rows[k]];
        s->keys.push_back(std::move(key));
      }
      row_slot[k] = static_cast<uint32_t>(slot);
    }
    for (size_t id : s->touched) s->slot_of[id] = -1;
    s->touched.clear();
  } else {
    GroupKey key(n_gcols);
    for (size_t k = 0; k < selected; ++k) {
      for (size_t g = 0; g < n_gcols; ++g) {
        key[g] = EncodeGroupValue(part, cq.group_by[g], rows[k]);
      }
      auto [it, inserted] = s->slot_index.try_emplace(
          key, static_cast<uint32_t>(s->keys.size()));
      if (inserted) s->keys.push_back(key);
      row_slot[k] = it->second;
    }
    s->slot_index.clear();
  }

  // 3. One accumulate pass in ascending row order: every (group,
  // aggregate) accumulator adds its rows in the scalar interpreter's
  // order, which keeps answers bit-identical to kScalar. The pass is
  // compiled once per value source, so the dense one runs call-free.
  const size_t n_groups = s->keys.size();
  s->accs.assign(n_groups * n_aggs, AggAccum{});
  AggAccum* const slot_accs = s->accs.data();
  auto accumulate = [&](auto value_at) {
    for (size_t k = 0; k < selected; ++k) {
      const size_t r = rows[k];
      AggAccum* accs = slot_accs + row_slot[k] * n_aggs;
      for (size_t a = 0; a < n_aggs; ++a) {
        const CompiledAggregate& ca = cq.aggregates[a];
        if (ca.has_filter && !s->agg_bitmaps[a].Test(r)) continue;
        AggAccum& acc = accs[a];
        acc.count += 1.0;
        if (!ca.has_expr) continue;
        const double v = value_at(a, r);
        acc.sum += v;
        if (ca.func == AggFunc::kMin || ca.func == AggFunc::kMax) {
          acc.FoldExtrema(v);
        }
      }
    }
  };
  if (dense_expr) {
    accumulate([&](size_t a, size_t r) { return s->agg_ptr[a][r]; });
  } else {
    accumulate(expr_value);
  }
  answer.reserve(n_groups);
  for (size_t i = 0; i < n_groups; ++i) {
    answer.emplace(std::move(s->keys[i]),
                   std::vector<AggAccum>(slot_accs + i * n_aggs,
                                         slot_accs + (i + 1) * n_aggs));
  }
  return answer;
}

}  // namespace

PartitionAnswer EvaluateOnPartition(const Query& query,
                                    const storage::Partition& part) {
  PartitionAnswer answer;
  const PredicatePtr& pred = query.EffectivePredicate();
  const size_t n_aggs = query.aggregates.size();
  GroupKey key(query.group_by.size());
  for (size_t r = 0; r < part.num_rows(); ++r) {
    if (!pred->Matches(part, r)) continue;
    for (size_t g = 0; g < query.group_by.size(); ++g) {
      key[g] = EncodeGroupValue(part, query.group_by[g], r);
    }
    auto [it, inserted] = answer.try_emplace(key);
    if (inserted) it->second.resize(n_aggs);
    for (size_t a = 0; a < n_aggs; ++a) {
      const Aggregate& agg = query.aggregates[a];
      if (agg.filter && !agg.filter->Matches(part, r)) continue;
      AggAccum& acc = it->second[a];
      acc.count += 1.0;
      if (agg.expr) {
        const double v = agg.expr->Eval(part, r);
        acc.sum += v;
        if (agg.func == AggFunc::kMin || agg.func == AggFunc::kMax) {
          acc.FoldExtrema(v);
        }
      }
    }
  }
  return answer;
}

PartitionAnswer EvaluateOnPartition(const Query& query,
                                    const storage::Partition& part,
                                    ExecPolicy policy) {
  if (policy == ExecPolicy::kScalar) {
    return EvaluateOnPartition(query, part);
  }
  CompiledQuery cq = CompileQuery(query);
  VectorScratch& s =
      runtime::WorkerPool::Shared().LocalScratch<VectorScratch>();
  s.be.set_simd(runtime::SimdLevel::kAuto);
  return EvaluateVectorized(cq, part, &s);
}

std::vector<PartitionAnswer> EvaluateAllPartitions(
    const Query& query, const storage::PartitionSource& source,
    const ExecOptions& opts) {
  const size_t n_shards = source.num_shards();
  std::vector<std::vector<PartitionAnswer>> partials(n_shards);
  runtime::WorkerPool& pool = PoolOf(opts);
  // Compiled under both policies: the vectorized engine executes it, and
  // either way it yields the scan's referenced-column set — the
  // projection hint out-of-core sources use to read only the segments
  // this query touches. The compiled programs reference exactly the
  // columns the scalar AST walk does, so the hint is safe for kScalar.
  const CompiledQuery cq = CompileQuery(query);
  const storage::ColumnSet scan_columns = ReferencedColumns(cq);
  // Fan out at partition granularity, flattened across shards, so
  // parallelism scales with total partitions even when shards are fewer
  // than lanes (a 1-shard table still fills an 8-lane pool). Each unit
  // writes its own partial slot, so the reduction stays index-addressed.
  struct Unit {
    size_t shard;
    size_t k;  ///< offset within the shard's partition list
  };
  std::vector<Unit> units;
  units.reserve(source.num_partitions());
  for (size_t s = 0; s < n_shards; ++s) {
    partials[s].resize(source.shard(s).size());
    for (size_t k = 0; k < source.shard(s).size(); ++k) {
      units.push_back(Unit{s, k});
    }
  }
  // One scan-entry flag per shard: whichever lane reaches a shard first
  // fires the source's prefetch hint. Advisory only — results cannot
  // depend on which lane wins.
  std::unique_ptr<std::atomic<bool>[]> entered(
      new std::atomic<bool>[n_shards]);
  for (size_t s = 0; s < n_shards; ++s) {
    entered[s].store(false, std::memory_order_relaxed);
  }
  storage::ScanControl ctl;
  ctl.query_class = opts.query_class;
  ctl.cancel = opts.cancel;
  pool.ParallelFor(
      units.size(),
      [&](size_t u) {
        const Unit unit = units[u];
        // The scan's cancel poll: per unit, before the acquire, so a dead
        // query stops issuing cold loads immediately. The throw fails only
        // this pool job.
        ThrowIfAborted(opts.cancel);
        if (!entered[unit.shard].exchange(true, std::memory_order_relaxed)) {
          source.WillScanShard(unit.shard, scan_columns, ctl);
        }
        auto pinned = source.Acquire(source.shard(unit.shard)[unit.k],
                                     scan_columns, ctl);
        if (!pinned.ok()) {
          // The pool rethrows on this evaluation's caller; sibling
          // queries on the pool are unaffected (per-job failure). An
          // abort keeps its structured Status; real IO errors stay
          // generic runtime_errors.
          const StatusCode code = pinned.status().code();
          if (code == StatusCode::kCancelled ||
              code == StatusCode::kDeadlineExceeded) {
            throw QueryAborted(pinned.status());
          }
          throw std::runtime_error(pinned.status().ToString());
        }
        const storage::Partition& part = pinned->view();
        if (opts.policy == ExecPolicy::kScalar) {
          partials[unit.shard][unit.k] = EvaluateOnPartition(query, part);
          return;
        }
        VectorScratch& sc = pool.LocalScratch<VectorScratch>();
        sc.be.set_simd(opts.simd);
        partials[unit.shard][unit.k] = EvaluateVectorized(cq, part, &sc);
      },
      TaskOf(opts));
  // Ordered merge: walk shards in index order, placing each partial at its
  // global partition id. Deterministic for any lane count or assignment.
  std::vector<PartitionAnswer> out(source.num_partitions());
  for (size_t s = 0; s < n_shards; ++s) {
    const std::vector<size_t>& parts = source.shard(s);
    for (size_t k = 0; k < parts.size(); ++k) {
      out[parts[k]] = std::move(partials[s][k]);
    }
  }
  return out;
}

size_t VectorScratchCreatedForTesting() {
  return g_vector_scratch_created.load();
}

size_t CountMatchingRows(const PredicatePtr& pred,
                         const storage::PartitionedTable& table,
                         const ExecOptions& opts) {
  Query count;
  count.aggregates.push_back(Aggregate::Count());
  count.predicate = pred;
  double total = 0.0;
  for (const PartitionAnswer& part : EvaluateAllPartitions(
           count, storage::ResidentShardedSource(table), opts)) {
    for (const auto& [key, accs] : part) total += accs[0].count;
  }
  return static_cast<size_t>(total);
}

double FinalizeAgg(AggFunc func, const AggAccum& acc) {
  switch (func) {
    case AggFunc::kSum:
      return acc.sum;
    case AggFunc::kCount:
      return acc.count;
    case AggFunc::kAvg:
      return acc.count > 0.0 ? acc.sum / acc.count : 0.0;
    case AggFunc::kMin:
      // Accumulated extrema are already -0.0-canonicalized; an empty or
      // weight-zeroed row set finalizes to 0.0, like AVG.
      return acc.count > 0.0 ? acc.min : 0.0;
    case AggFunc::kMax:
      return acc.count > 0.0 ? acc.max : 0.0;
  }
  return 0.0;
}

QueryAnswer CombineWeighted(
    const Query& query, const std::vector<PartitionAnswer>& per_partition,
    const std::vector<WeightedPartition>& selection) {
  PartitionAnswer merged;
  const size_t n_aggs = query.aggregates.size();
  for (const auto& wp : selection) {
    const PartitionAnswer& pa = per_partition[wp.partition];
    for (const auto& [key, accs] : pa) {
      auto [it, inserted] = merged.try_emplace(key);
      if (inserted) it->second.resize(n_aggs);
      for (size_t a = 0; a < n_aggs; ++a) {
        it->second[a].Add(accs[a], wp.weight);
      }
    }
  }
  QueryAnswer out;
  out.reserve(merged.size());
  for (const auto& [key, accs] : merged) {
    std::vector<double> vals(n_aggs);
    for (size_t a = 0; a < n_aggs; ++a) {
      vals[a] = FinalizeAgg(query.aggregates[a].func, accs[a]);
    }
    out.emplace(key, std::move(vals));
  }
  return out;
}

QueryAnswer ExactAnswer(const Query& query,
                        const std::vector<PartitionAnswer>& per_partition) {
  std::vector<WeightedPartition> all;
  all.reserve(per_partition.size());
  for (size_t i = 0; i < per_partition.size(); ++i) {
    all.push_back({i, 1.0});
  }
  return CombineWeighted(query, per_partition, all);
}

void CanonicalizeSelection(std::vector<WeightedPartition>* selection) {
  std::sort(selection->begin(), selection->end(),
            [](const WeightedPartition& a, const WeightedPartition& b) {
              return a.partition < b.partition;
            });
}

std::vector<WeightedPartition> DegradedSelection(
    const std::vector<size_t>& reachable, size_t total_partitions) {
  std::vector<WeightedPartition> sel;
  sel.reserve(reachable.size());
  // Weight exactly 1.0 when nothing is lost — not total/total computed in
  // floating point — so the healthy path's bit-identity with ExactAnswer
  // never hinges on a division rounding to one.
  const double w = reachable.size() == total_partitions
                       ? 1.0
                       : static_cast<double>(total_partitions) /
                             static_cast<double>(reachable.size());
  for (size_t p : reachable) sel.push_back(WeightedPartition{p, w});
  return sel;
}

namespace {

/// Per-(group, aggregate) variance accumulators for the HT estimator:
/// vs/vc are the SUM- and COUNT-total variance estimates, cov the
/// covariance between them (the delta-method AVG term).
struct VarAccum {
  double vs = 0.0;
  double vc = 0.0;
  double cov = 0.0;
};

double FinalizeError(AggFunc func, const AggAccum& acc, const VarAccum& var) {
  switch (func) {
    case AggFunc::kSum:
      return std::sqrt(std::max(var.vs, 0.0));
    case AggFunc::kCount:
      return std::sqrt(std::max(var.vc, 0.0));
    case AggFunc::kAvg: {
      // Delta method on the ratio S/C of two HT totals:
      //   Var(S/C) ~= (Var(S) - 2r Cov(S,C) + r^2 Var(C)) / C^2,  r = S/C.
      if (!(acc.count > 0.0)) return 0.0;
      const double r = acc.sum / acc.count;
      const double v = (var.vs - 2.0 * r * var.cov + r * r * var.vc) /
                       (acc.count * acc.count);
      return std::sqrt(std::max(v, 0.0));
    }
    case AggFunc::kMin:
    case AggFunc::kMax:
      // No distribution-free estimate for subset extrema; 0 by contract
      // (the value is a one-sided bound on the true extremum).
      return 0.0;
  }
  return 0.0;
}

}  // namespace

ApproxCombined CombineWeightedWithError(
    const Query& query, const std::vector<PartitionAnswer>& per_partition,
    const std::vector<WeightedPartition>& selection) {
  // The merge below replays CombineWeighted's accumulation exactly (same
  // order, same arithmetic) so `value` stays bit-identical to it; the
  // variance terms ride along in a parallel map.
  PartitionAnswer merged;
  std::unordered_map<GroupKey, std::vector<VarAccum>, GroupKeyHash> variance;
  const size_t n_aggs = query.aggregates.size();
  for (const auto& wp : selection) {
    const PartitionAnswer& pa = per_partition[wp.partition];
    for (const auto& [key, accs] : pa) {
      auto [it, inserted] = merged.try_emplace(key);
      if (inserted) it->second.resize(n_aggs);
      auto [vit, vinserted] = variance.try_emplace(key);
      if (vinserted) vit->second.resize(n_aggs);
      for (size_t a = 0; a < n_aggs; ++a) {
        it->second[a].Add(accs[a], wp.weight);
        if (wp.weight > 1.0) {
          // Inclusion probability 1/w: this partition's expanded totals
          // w*t contribute (1 - 1/w) * (w*t)^2 to the HT variance.
          const double f = 1.0 - 1.0 / wp.weight;
          const double ts = wp.weight * accs[a].sum;
          const double tc = wp.weight * accs[a].count;
          VarAccum& v = vit->second[a];
          v.vs += f * ts * ts;
          v.vc += f * tc * tc;
          v.cov += f * ts * tc;
        }
      }
    }
  }
  ApproxCombined out;
  out.value.reserve(merged.size());
  out.error.reserve(merged.size());
  for (const auto& [key, accs] : merged) {
    const std::vector<VarAccum>& vaccs = variance.at(key);
    std::vector<double> vals(n_aggs);
    std::vector<double> errs(n_aggs);
    for (size_t a = 0; a < n_aggs; ++a) {
      vals[a] = FinalizeAgg(query.aggregates[a].func, accs[a]);
      errs[a] = FinalizeError(query.aggregates[a].func, accs[a], vaccs[a]);
    }
    out.value.emplace(key, std::move(vals));
    out.error.emplace(key, std::move(errs));
  }
  return out;
}

}  // namespace ps3::query
