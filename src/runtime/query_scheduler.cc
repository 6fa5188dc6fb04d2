#include "runtime/query_scheduler.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/hash.h"
#include "common/random.h"
#include "core/picker.h"
#include "query/compiler.h"
#include "storage/picked_source.h"

namespace ps3::runtime {

namespace {

size_t ResolveDrivers(int num_drivers) {
  if (num_drivers > 0) return static_cast<size_t>(num_drivers);
  unsigned hw = std::thread::hardware_concurrency();
  return std::min<size_t>(4, hw == 0 ? 1 : static_cast<size_t>(hw));
}

/// The structured "partitions are gone" Status: names every lost
/// partition so the consumer can log, alert, or re-plan around exactly
/// that set instead of guessing from a generic IO error.
Status LostStatus(const std::vector<size_t>& lost) {
  std::string msg = std::to_string(lost.size()) +
                    " partition(s) permanently lost:";
  for (size_t p : lost) {
    msg += ' ';
    msg += std::to_string(p);
  }
  msg += " (resubmit via SubmitDegradable with DegradedMode::kApproximate"
         " for a bounded-error answer over the reachable set)";
  return Status::Unavailable(std::move(msg));
}

/// Step 1, picker path: the picker's weighted pick at budget
/// ceil(fraction * n), re-drawn around the lost set when it overlaps it.
std::vector<query::WeightedPartition> PickerSelection(
    const query::Query& q, const core::PartitionPicker& picker,
    const ApproxOptions& approx, size_t n, const std::vector<size_t>& lost) {
  const double frac = approx.sampling_fraction;
  if (!(frac > 0.0) || frac > 1.0) {  // !(> 0) also rejects NaN
    throw std::invalid_argument(
        "SubmitApproximate: sampling_fraction must be in (0, 1]");
  }
  const size_t budget = std::max<size_t>(
      1, std::min(n, static_cast<size_t>(
                         std::ceil(frac * static_cast<double>(n)))));
  auto is_lost = [&lost](const query::WeightedPartition& wp) {
    return std::binary_search(lost.begin(), lost.end(), wp.partition);
  };
  auto overlaps_lost = [&is_lost](const core::Selection& s) {
    return std::any_of(s.parts.begin(), s.parts.end(), is_lost);
  };
  core::Selection sel;
  {
    RandomEngine rng(approx.seed);
    sel = picker.Pick(q, budget, &rng, nullptr);
  }
  if (!lost.empty() && overlaps_lost(sel)) {
    // Re-pick around the lost set at *unchanged* budget: rounds with
    // seeds derived from the query seed, so the retry sequence is
    // deterministic and the first lost-free selection wins.
    // Deterministic pickers (and unlucky stochastic ones) may never
    // produce a lost-free pick — then fall back to dropping the lost
    // choices and rescaling the survivors' weights by picked/surviving,
    // which for a uniform all-weight pick reduces to the HT weight
    // n/|reachable ∩ picked|.
    constexpr int kRepickRounds = 8;
    bool found = false;
    for (int round = 1; round <= kRepickRounds && !found; ++round) {
      RandomEngine rng(approx.seed ^ Mix64(static_cast<uint64_t>(round)));
      core::Selection cand = picker.Pick(q, budget, &rng, nullptr);
      if (!overlaps_lost(cand)) {
        sel = std::move(cand);
        found = true;
      }
    }
    if (!found) {
      const size_t picked_count = sel.parts.size();
      sel.parts.erase(
          std::remove_if(sel.parts.begin(), sel.parts.end(), is_lost),
          sel.parts.end());
      if (sel.parts.empty()) throw QueryFailed(LostStatus(lost));
      const double rescale = static_cast<double>(picked_count) /
                             static_cast<double>(sel.parts.size());
      for (auto& wp : sel.parts) wp.weight *= rescale;
    }
  }
  // Canonical combine order (ascending global partition index) pins the
  // FP merge order, so the answer's bit pattern is independent of the
  // order the picker emitted its choices in — and a full uniform
  // selection reproduces the exact answer bit for bit.
  query::CanonicalizeSelection(&sel.parts);
  return std::move(sel.parts);
}

/// Step 1, picker-free path: every reachable partition at the uniform HT
/// weight n/|reachable| — exactly 1 when nothing is lost, which makes the
/// combine bit-identical to the exact all-partition answer with a zero
/// error surface. Lost partitions fail the query under kFail (an exact
/// answer over a partial table is never served silently).
std::vector<query::WeightedPartition> ReachableSelection(
    size_t n, const std::vector<size_t>& lost, DegradedMode on_lost) {
  if (!lost.empty() && on_lost == DegradedMode::kFail) {
    throw QueryFailed(LostStatus(lost));
  }
  // Reachable = [0, n) minus the (sorted) lost set.
  std::vector<size_t> reachable;
  reachable.reserve(n - std::min(n, lost.size()));
  auto it = lost.begin();
  for (size_t p = 0; p < n; ++p) {
    while (it != lost.end() && *it < p) ++it;
    if (it != lost.end() && *it == p) continue;
    reachable.push_back(p);
  }
  if (!lost.empty() && reachable.empty()) throw QueryFailed(LostStatus(lost));
  return query::DegradedSelection(reachable, n);
}

}  // namespace

QueryScheduler::QueryScheduler() : QueryScheduler(Options()) {}

QueryScheduler::QueryScheduler(Options options)
    : pool_(options.pool != nullptr ? options.pool
                                    : &WorkerPool::Shared()) {
  const size_t n = ResolveDrivers(options.num_drivers);
  drivers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    drivers_.emplace_back([this] { DriverMain(); });
  }
}

QueryScheduler::~QueryScheduler() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& d : drivers_) d.join();
}

void QueryScheduler::Enqueue(std::function<void()> task,
                             QueryClass query_class) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queues_[query_class == QueryClass::kInteractive ? 1 : 0].push_back(
        std::move(task));
  }
  cv_.notify_one();
}

void QueryScheduler::DriverMain() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] {
        return stop_ || !queues_[0].empty() || !queues_[1].empty();
      });
      // Drain-on-destruction: exit only once both queues are empty, so
      // every admitted future becomes ready.
      // Interactive first: a latency-class query never waits behind the
      // batch backlog for a driver.
      std::deque<std::function<void()>>& q =
          !queues_[1].empty() ? queues_[1] : queues_[0];
      if (q.empty()) return;
      task = std::move(q.front());
      q.pop_front();
    }
    // packaged_task catches the body's exception and parks it in the
    // future, so a throwing query can't take the driver down.
    task();
  }
}

QueryScheduler::Admission QueryScheduler::Admit(const SubmitOptions& submit,
                                                query::ExecOptions opts) const {
  Admission a;
  a.token = submit.cancel;
  if (a.token == nullptr && submit.deadline.count() != 0) {
    a.token = std::make_shared<CancelToken>();
  }
  if (a.token != nullptr && submit.deadline.count() != 0) {
    // Armed now — at admission — so time spent queued behind other tasks
    // counts against the deadline, which is what a latency SLO means.
    a.token->SetDeadline(std::chrono::steady_clock::now() + submit.deadline);
  }
  opts.pool = pool_;
  opts.query_class = submit.query_class;
  opts.cancel = a.token.get();
  a.opts = std::move(opts);
  return a;
}

template <typename Answer>
std::future<Answer> QueryScheduler::Serve(
    query::Query query, const storage::PartitionSource& source,
    const Selector& selector, const SubmitOptions& submit,
    query::ExecOptions opts) {
  Admission a = Admit(submit, std::move(opts));
  return Defer(
      [q = std::move(query), &source, selector, a = std::move(a)] {
        a.ThrowIfDead();
        // 1. Select. Lost partitions are read before anything else, so
        // an exact query fails fast before any byte moves.
        const size_t n = source.num_partitions();
        const std::vector<size_t> lost = source.UnreachablePartitions();
        const std::vector<query::WeightedPartition> sel =
            selector.picker != nullptr
                ? PickerSelection(q, *selector.picker, selector.approx, n,
                                  lost)
                : ReachableSelection(n, lost, selector.on_lost);
        // 2. Scan the selection: the view only ever acquires selected
        // partitions, and its prefetch hints follow the selected plan.
        std::vector<size_t> picked;
        picked.reserve(sel.size());
        for (const auto& wp : sel) picked.push_back(wp.partition);
        const storage::PickedSource view(source, picked);
        const std::vector<query::PartitionAnswer> partials =
            query::EvaluateAllPartitions(q, view, a.opts);
        // 3. Combine.
        if constexpr (std::is_same_v<Answer, query::QueryAnswer>) {
          return query::CombineWeighted(q, partials, sel);
        } else {
          query::ApproxCombined combined =
              query::CombineWeightedWithError(q, partials, sel);
          ApproxAnswer out;
          out.value = std::move(combined.value);
          out.error_estimate = std::move(combined.error);
          out.partitions_scanned = picked.size();
          out.partitions_total = n;
          out.bytes_moved = source.ColdScanBytes(
              picked, query::ReferencedColumns(query::CompileQuery(q)));
          return out;
        }
      },
      submit.query_class);
}

std::future<query::QueryAnswer> QueryScheduler::Submit(
    query::Query query, const storage::PartitionSource& source,
    query::ExecOptions opts) {
  return Submit(std::move(query), source, SubmitOptions{}, std::move(opts));
}

std::future<query::QueryAnswer> QueryScheduler::Submit(
    query::Query query, const storage::PartitionSource& source,
    SubmitOptions submit, query::ExecOptions opts) {
  return Serve<query::QueryAnswer>(std::move(query), source, Selector{},
                                   submit, std::move(opts));
}

std::future<ApproxAnswer> QueryScheduler::SubmitApproximate(
    query::Query query, const storage::PartitionSource& source,
    const core::PartitionPicker& picker, ApproxOptions approx,
    query::ExecOptions opts) {
  return SubmitApproximate(std::move(query), source, picker, approx,
                           SubmitOptions{}, std::move(opts));
}

std::future<ApproxAnswer> QueryScheduler::SubmitApproximate(
    query::Query query, const storage::PartitionSource& source,
    const core::PartitionPicker& picker, ApproxOptions approx,
    SubmitOptions submit, query::ExecOptions opts) {
  return Serve<ApproxAnswer>(std::move(query), source,
                             Selector{&picker, approx, DegradedMode::kFail},
                             submit, std::move(opts));
}

std::future<ApproxAnswer> QueryScheduler::SubmitDegradable(
    query::Query query, const storage::PartitionSource& source,
    SubmitOptions submit, query::ExecOptions opts) {
  return Serve<ApproxAnswer>(std::move(query), source,
                             Selector{nullptr, {}, submit.degraded_mode},
                             submit, std::move(opts));
}

}  // namespace ps3::runtime
