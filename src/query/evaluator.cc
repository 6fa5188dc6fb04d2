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
/// Above this the engine falls back to hash-probing over set bits only.
constexpr size_t kMaxDenseGroups = size_t{1} << 20;

/// Dense expression materialization threshold: below this selected-row
/// fraction, evaluating the expression only at set bits beats touching
/// every row columnar.
constexpr double kDenseExprFraction = 0.25;

std::atomic<size_t> g_vector_scratch_created{0};

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
  std::vector<int32_t> slot_of;  ///< group id -> dense slot, -1 = unseen
  std::vector<size_t> touched;   ///< ids to reset after each partition
  std::vector<const double*> agg_ptr;  ///< dense expr values per aggregate
  // Dense group-id path containers, reused (cleared, not reconstructed)
  // across partitions.
  std::vector<const int32_t*> gcodes;
  std::vector<size_t> strides;
  std::vector<GroupKey> keys;
  std::vector<std::vector<AggAccum>> groups;
  // SIMD-assisted grouped-aggregation staging: selected row indices,
  // their dense group ids, and per-aggregate gathered values (the AVX2
  // gather kernels fill these; the FP accumulate stays scalar in row
  // order, which is what keeps answers bit-identical to kScalar).
  std::vector<uint32_t> row_idx;
  std::vector<uint32_t> group_ids;
  std::vector<uint32_t> strides32;
  std::vector<std::vector<double>> gathered;
};

/// Resolves the pool an ExecOptions runs on.
runtime::WorkerPool& PoolOf(const ExecOptions& opts) {
  return opts.pool != nullptr ? *opts.pool : runtime::WorkerPool::Shared();
}

/// Maps an ExecOptions onto the pool's per-job scheduling options, so
/// every evaluation pass carries the query's class and cancel token.
runtime::WorkerPool::TaskOptions TaskOf(const ExecOptions& opts) {
  runtime::WorkerPool::TaskOptions topts;
  topts.max_lanes = opts.num_threads;
  topts.query_class = opts.query_class;
  topts.cancel = opts.cancel;
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

  // ---- single-group fast path (no GROUP BY): bulk count + ordered sum;
  // MIN/MAX reduce through the lane-parallel gather kernels when the
  // aggregate is unfiltered over dense-materialized values (extrema are
  // order-insensitive on NaN-free data, so lanes are safe where SUM
  // would not be — see runtime/simd.h).
  if (cq.group_by.empty()) {
    auto [it, inserted] = answer.try_emplace(GroupKey{});
    (void)inserted;
    it->second.resize(n_aggs);
    bool rows_built = false;
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
          const double* vals = s->agg_ptr[a];
          eff.ForEachSetBit([&](size_t r) { sum += vals[r]; });
        } else {
          eff.ForEachSetBit(
              [&](size_t r) { sum += s->be.EvalExprAt(ca.expr, part, r); });
        }
        acc.sum = sum;
        if (ca.func == AggFunc::kMin || ca.func == AggFunc::kMax) {
#if defined(__x86_64__) || defined(__i386__)
          if (!ca.has_filter && dense_expr && s->be.use_avx2()) {
            if (!rows_built) {
              s->row_idx.resize(selected);
              size_t w = 0;
              s->main.ForEachSetBit([&](size_t r) {
                s->row_idx[w++] = static_cast<uint32_t>(r);
              });
              rows_built = true;
            }
            double mn = runtime::MinGatherAvx2(s->agg_ptr[a],
                                               s->row_idx.data(), selected);
            double mx = runtime::MaxGatherAvx2(s->agg_ptr[a],
                                               s->row_idx.data(), selected);
            // Canonicalizing the reduced extrema (not each lane) is
            // equivalent to the scalar per-row fold: signed zeros only
            // ever tie with each other.
            if (mn == 0.0) mn = 0.0;
            if (mx == 0.0) mx = 0.0;
            if (mn < acc.min) acc.min = mn;
            if (mx > acc.max) acc.max = mx;
          } else
#endif
          {
            eff.ForEachSetBit(
                [&](size_t r) { acc.FoldExtrema(expr_value(a, r)); });
          }
        }
      }
    }
    return answer;
  }

  // Row-wise accumulation shared by both grouped paths; iteration over set
  // bits in ascending row order keeps every accumulator bit-identical to
  // the scalar loop.
  auto accumulate = [&](std::vector<AggAccum>& accs, size_t r) {
    for (size_t a = 0; a < n_aggs; ++a) {
      const CompiledAggregate& ca = cq.aggregates[a];
      if (ca.has_filter && !s->agg_bitmaps[a].Test(r)) continue;
      AggAccum& acc = accs[a];
      acc.count += 1.0;
      if (ca.has_expr) {
        const double v = expr_value(a, r);
        acc.sum += v;
        if (ca.func == AggFunc::kMin || ca.func == AggFunc::kMax) {
          acc.FoldExtrema(v);
        }
      }
    }
  };

  // ---- dictionary-coded dense group-id path: all GROUP BY columns
  // categorical and the id space (product of dictionary sizes) small.
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
    s->strides.push_back(space);
    space *= dict_size;
    s->gcodes.push_back(part.CodeSpan(col));
  }

  if (dense_groups) {
    if (s->slot_of.size() < space) s->slot_of.resize(space, -1);
    s->keys.clear();
    s->groups.clear();
    const int32_t* const* gcodes = s->gcodes.data();
    const size_t* strides = s->strides.data();
    const size_t n_gcols = s->gcodes.size();

#if defined(__x86_64__) || defined(__i386__)
    // SIMD-assisted variant: expand the selection once, compute every
    // selected row's dense group id with the AVX2 code-gather kernel, and
    // compact each aggregate's expression values with the AVX2 value
    // gather — then run a tight *scalar* accumulate in ascending row
    // order. Only data movement and integer id math are vectorized; every
    // FP addition happens in the same order as the scalar reference, so
    // answers stay bit-identical. Engaged only when no aggregate carries
    // a CASE filter (their bitmaps would need per-row tests anyway) and
    // expression values are dense-materialized; sparse selections skip it
    // — the setup wouldn't amortize.
    bool simd_groups = s->be.use_avx2() && selected >= 64;
    for (size_t a = 0; simd_groups && a < n_aggs; ++a) {
      const CompiledAggregate& ca = cq.aggregates[a];
      if (ca.has_filter || (ca.has_expr && !dense_expr)) simd_groups = false;
    }
    if (simd_groups) {
      s->row_idx.resize(selected);
      size_t w = 0;
      s->main.ForEachSetBit(
          [&](size_t r) { s->row_idx[w++] = static_cast<uint32_t>(r); });
      s->strides32.assign(s->strides.begin(), s->strides.end());
      s->group_ids.resize(selected);
      runtime::DenseGroupIdsAvx2(gcodes, s->strides32.data(), n_gcols,
                                 s->row_idx.data(), selected,
                                 s->group_ids.data());
      if (s->gathered.size() < n_aggs) s->gathered.resize(n_aggs);
      for (size_t a = 0; a < n_aggs; ++a) {
        if (!cq.aggregates[a].has_expr) continue;
        s->gathered[a].resize(selected);
        runtime::GatherDoublesAvx2(s->agg_ptr[a], s->row_idx.data(),
                                   selected, s->gathered[a].data());
      }
      for (size_t k = 0; k < selected; ++k) {
        const uint32_t id = s->group_ids[k];
        int32_t slot = s->slot_of[id];
        if (slot < 0) {
          slot = static_cast<int32_t>(s->groups.size());
          s->slot_of[id] = slot;
          s->touched.push_back(id);
          const size_t r = s->row_idx[k];
          GroupKey key(n_gcols);
          for (size_t g = 0; g < n_gcols; ++g) key[g] = gcodes[g][r];
          s->keys.push_back(std::move(key));
          s->groups.emplace_back(n_aggs);
        }
        std::vector<AggAccum>& accs = s->groups[static_cast<size_t>(slot)];
        for (size_t a = 0; a < n_aggs; ++a) {
          const CompiledAggregate& ca = cq.aggregates[a];
          AggAccum& acc = accs[a];
          acc.count += 1.0;
          if (ca.has_expr) {
            const double v = s->gathered[a][k];
            acc.sum += v;
            if (ca.func == AggFunc::kMin || ca.func == AggFunc::kMax) {
              acc.FoldExtrema(v);
            }
          }
        }
      }
      for (size_t id : s->touched) s->slot_of[id] = -1;
      s->touched.clear();
      answer.reserve(s->groups.size());
      for (size_t i = 0; i < s->groups.size(); ++i) {
        answer.emplace(std::move(s->keys[i]), std::move(s->groups[i]));
      }
      return answer;
    }
#endif  // x86

    s->main.ForEachSetBit([&](size_t r) {
      size_t id = 0;
      for (size_t g = 0; g < n_gcols; ++g) {
        id += static_cast<size_t>(gcodes[g][r]) * strides[g];
      }
      int32_t slot = s->slot_of[id];
      if (slot < 0) {
        slot = static_cast<int32_t>(s->groups.size());
        s->slot_of[id] = slot;
        s->touched.push_back(id);
        GroupKey key(n_gcols);
        for (size_t g = 0; g < n_gcols; ++g) key[g] = gcodes[g][r];
        s->keys.push_back(std::move(key));
        s->groups.emplace_back(n_aggs);
      }
      accumulate(s->groups[static_cast<size_t>(slot)], r);
    });
    for (size_t id : s->touched) s->slot_of[id] = -1;
    s->touched.clear();
    answer.reserve(s->groups.size());
    for (size_t i = 0; i < s->groups.size(); ++i) {
      answer.emplace(std::move(s->keys[i]), std::move(s->groups[i]));
    }
    return answer;
  }

  // ---- generic grouped path: hash-probe, but only at set bits.
  GroupKey key(cq.group_by.size());
  s->main.ForEachSetBit([&](size_t r) {
    for (size_t g = 0; g < cq.group_by.size(); ++g) {
      key[g] = EncodeGroupValue(part, cq.group_by[g], r);
    }
    auto [it, inserted] = answer.try_emplace(key);
    if (inserted) it->second.resize(n_aggs);
    accumulate(it->second, r);
  });
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
        // Units are heavier than typical chunk items (a whole partition
        // each), so poll the token per unit too — before the acquire, so
        // a dead query stops issuing cold loads immediately.
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
