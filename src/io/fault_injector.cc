#include "io/fault_injector.h"

#include "common/hash.h"

namespace ps3::io {

namespace {

// Distinct salts per fault class keep the per-coordinate draws
// independent: a coordinate unlucky on the transient draw is no more or
// less likely to be unlucky on the corrupt draw.
constexpr uint64_t kTransientSalt = 0x7472616E7369656EULL;  // "transien"
constexpr uint64_t kCorruptSalt = 0x636F727275707421ULL;    // "corrupt!"
constexpr uint64_t kLatencySalt = 0x6C6174656E637921ULL;    // "latency!"
constexpr uint64_t kBitSalt = 0x626974666C697021ULL;        // "bitflip!"

/// Uniform [0, 1) draw for one (seed, salt, partition, column, attempt)
/// coordinate — a pure hash, so replays are exact.
double Draw(uint64_t seed, uint64_t salt, size_t partition, size_t column,
            int attempt) {
  uint64_t h = Mix64(seed ^ salt);
  h = HashCombine(h, Mix64(static_cast<uint64_t>(partition)));
  h = HashCombine(h, Mix64(static_cast<uint64_t>(column) + 1));
  h = HashCombine(h, Mix64(static_cast<uint64_t>(attempt) + 1));
  return HashToUnit(Mix64(h));
}

}  // namespace

FaultDecision FaultInjector::Decide(size_t partition, size_t column,
                                    int attempt) const {
  FaultDecision decision;
  decision.attempt = attempt;

  // Lost partitions dominate everything: no rate or rule can make an
  // unreachable partition readable.
  if (plan_.lost_partitions.count(partition) != 0) {
    decision.kind = FaultKind::kLost;
    return decision;
  }

  // Scripted rules next, first match wins.
  for (const FaultRule& rule : plan_.rules) {
    if (rule.partition != partition) continue;
    if (rule.column != FaultRule::kAnyColumn && rule.column != column) {
      continue;
    }
    if (attempt < rule.attempt_begin || attempt >= rule.attempt_end) {
      continue;
    }
    decision.kind = rule.kind;
    if (rule.kind == FaultKind::kLatency) {
      decision.extra_latency_us =
          rule.latency_us != 0 ? rule.latency_us : plan_.latency_spike_us;
    }
    return decision;
  }

  // Hashed rates. Latency is resolved independently and is additive: a
  // spiked read can still fail transient (slow *and* broken replicas are
  // the common cloud-store case the hedging battery needs).
  if (plan_.latency_rate > 0.0 &&
      Draw(plan_.seed, kLatencySalt, partition, column, attempt) <
          plan_.latency_rate) {
    decision.kind = FaultKind::kLatency;
    decision.extra_latency_us = plan_.latency_spike_us;
  }
  if (plan_.transient_rate > 0.0 &&
      Draw(plan_.seed, kTransientSalt, partition, column, attempt) <
          plan_.transient_rate) {
    decision.kind = FaultKind::kTransient;
    return decision;
  }
  if (plan_.corrupt_rate > 0.0 &&
      Draw(plan_.seed, kCorruptSalt, partition, column, attempt) <
          plan_.corrupt_rate) {
    decision.kind = FaultKind::kCorrupt;
  }
  return decision;
}

FaultDecision FaultInjector::Next(size_t partition, size_t column) {
  int attempt;
  {
    std::lock_guard<std::mutex> lock(mu_);
    attempt = attempts_[{partition, column}]++;
  }
  return Decide(partition, column, attempt);
}

FaultDecision FaultInjector::Peek(size_t partition, size_t column,
                                  int attempt) const {
  return Decide(partition, column, attempt);
}

void FaultInjector::ResetAttempts() {
  std::lock_guard<std::mutex> lock(mu_);
  attempts_.clear();
}

void FaultInjector::CorruptBytes(uint64_t seed, size_t partition,
                                 size_t column, int attempt, uint8_t* data,
                                 size_t len) {
  if (len == 0) return;
  uint64_t h = Mix64(seed ^ kBitSalt);
  h = HashCombine(h, Mix64(static_cast<uint64_t>(partition)));
  h = HashCombine(h, Mix64(static_cast<uint64_t>(column) + 1));
  h = HashCombine(h, Mix64(static_cast<uint64_t>(attempt) + 1));
  h = Mix64(h);
  data[(h >> 3) % len] ^= static_cast<uint8_t>(1u << (h & 7));
}

}  // namespace ps3::io
