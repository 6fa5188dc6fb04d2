#include "common/retry.h"

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <thread>

#include "common/hash.h"

namespace ps3 {

namespace {

/// Seeds the deterministic jitter hash.
constexpr uint64_t kJitterSeed = 0x9E3779B9;

}  // namespace

size_t BackoffUs(const RetryPolicy& policy, int retry, uint64_t salt) {
  if (retry < 1) return 0;
  double backoff = static_cast<double>(policy.backoff_base_us);
  for (int i = 1; i < retry; ++i) backoff *= policy.backoff_multiplier;
  backoff = std::min(backoff, static_cast<double>(policy.backoff_cap_us));
  if (policy.jitter_fraction > 0.0) {
    // u in [0, 1) from the top 53 bits of a (seed, salt, retry) hash —
    // a pure function of the policy, so replays are bit-identical.
    uint64_t h = Mix64(kJitterSeed ^ Mix64(salt) ^
                       Mix64(static_cast<uint64_t>(retry)));
    double u = static_cast<double>(h >> 11) * 0x1.0p-53;
    backoff *= 1.0 + policy.jitter_fraction * u;
  }
  return static_cast<size_t>(backoff);
}

Status SleepWithCancel(size_t us, const CancelToken* cancel,
                       const CancelToken* stop) {
  // Same 200us slice the store's single-flight wait uses: fine enough
  // that a fired deadline stops a sleep almost immediately, coarse
  // enough to stay off the scheduler's back.
  constexpr size_t kSliceUs = 200;
  size_t remaining = us;
  for (;;) {
    for (const CancelToken* token : {cancel, stop}) {
      if (token == nullptr) continue;
      Status live = token->Check();
      if (!live.ok()) return live;
    }
    if (remaining == 0) return Status::OK();
    const size_t step = std::min(remaining, kSliceUs);
    std::this_thread::sleep_for(std::chrono::microseconds(step));
    remaining -= step;
  }
}

bool CircuitBreaker::Admit(bool* claimed_probe) {
  if (claimed_probe != nullptr) *claimed_probe = false;
  if (policy_.failure_threshold <= 0) return true;
  std::lock_guard<std::mutex> lock(mu_);
  switch (state_) {
    case State::kClosed:
      return true;
    case State::kOpen:
      if (Clock::now() < open_until_) {
        ++open_rejects_;
        return false;
      }
      // Cooldown elapsed: this caller becomes the half-open probe.
      state_ = State::kHalfOpen;
      probe_in_flight_ = true;
      if (claimed_probe != nullptr) *claimed_probe = true;
      return true;
    case State::kHalfOpen:
      if (probe_in_flight_) {
        ++open_rejects_;
        return false;
      }
      probe_in_flight_ = true;
      if (claimed_probe != nullptr) *claimed_probe = true;
      return true;
  }
  return true;
}

void CircuitBreaker::RecordSuccess() {
  if (policy_.failure_threshold <= 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  switch (state_) {
    case State::kClosed:
      consecutive_failures_ = 0;
      break;
    case State::kOpen:
      // A slow load admitted before the circuit opened, landing late:
      // it predates the outage, so it must not short-circuit the
      // cooldown + probe discipline. Ignore it.
      break;
    case State::kHalfOpen:
      // The probe (the only load Admit lets through half-open; stale
      // pre-open successes closing here too is fine — either way the
      // store just served a read).
      state_ = State::kClosed;
      consecutive_failures_ = 0;
      probe_in_flight_ = false;
      break;
  }
}

void CircuitBreaker::RecordFailure() {
  if (policy_.failure_threshold <= 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (state_ == State::kHalfOpen) {
    // The probe failed: straight back to open for another cooldown.
    state_ = State::kOpen;
    probe_in_flight_ = false;
    open_until_ = Clock::now() + std::chrono::microseconds(
                                     policy_.open_duration_us);
    ++opens_;
    return;
  }
  if (++consecutive_failures_ >= policy_.failure_threshold &&
      state_ == State::kClosed) {
    state_ = State::kOpen;
    open_until_ = Clock::now() + std::chrono::microseconds(
                                     policy_.open_duration_us);
    ++opens_;
  }
}

void CircuitBreaker::RecordAbort(bool claimed_probe) {
  // Non-probe aborts carry no signal and claimed no exclusive slot.
  if (!claimed_probe || policy_.failure_threshold <= 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (state_ == State::kHalfOpen && probe_in_flight_) {
    // The probe aborted before proving anything. Release the slot and
    // fall back to open without counting a re-open; open_until_ already
    // elapsed when this probe was admitted, so the very next Admit()
    // becomes the new probe.
    probe_in_flight_ = false;
    state_ = State::kOpen;
  }
  // Any other state: a stale success/failure already moved the breaker
  // on; the slot this probe held is gone with that transition.
}

CircuitBreaker::State CircuitBreaker::state() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_;
}

uint64_t CircuitBreaker::opens() const {
  std::lock_guard<std::mutex> lock(mu_);
  return opens_;
}

uint64_t CircuitBreaker::open_rejects() const {
  std::lock_guard<std::mutex> lock(mu_);
  return open_rejects_;
}

}  // namespace ps3
