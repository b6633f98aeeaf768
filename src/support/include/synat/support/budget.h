// Cooperative execution budgets for fault isolation (DESIGN.md §3c).
//
// Long-running analysis stages (variant expansion, mover classification)
// poll an ExecBudget at their loop heads. A trip raises BudgetExceeded,
// which the batch driver catches at the task boundary and converts into a
// degraded per-procedure verdict; nothing below the driver ever reports a
// partially computed result as complete.
//
// The hot-path contract: without a deadline, check() is a single relaxed
// atomic load. With one armed, check() also reads the steady clock on every
// call, so a deadline trips at the first check after it passes. This is the
// only deadline path: the batch driver, sandbox workers and fuzz replay all
// rely on it (DESIGN.md §3c gives the check count and the clock's cost).
#pragma once

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace synat {

/// Thrown when a cancellation point observes a tripped budget. `reason()`
/// is a short machine-readable slug ("deadline", "variant-budget", ...);
/// what() carries the human-readable detail.
class BudgetExceeded : public std::runtime_error {
 public:
  BudgetExceeded(std::string reason, const std::string& detail)
      : std::runtime_error(detail), reason_(std::move(reason)) {}
  const std::string& reason() const { return reason_; }

 private:
  std::string reason_;
};

/// Monotonic clock in nanoseconds (steady_clock).
uint64_t steady_now_ns();

/// a + b and a * b, saturating at UINT64_MAX: a deadline or limit derived
/// from a delay too far off to represent never trips.
constexpr uint64_t saturating_add(uint64_t a, uint64_t b) {
  return a > UINT64_MAX - b ? UINT64_MAX : a + b;
}
constexpr uint64_t saturating_mul(uint64_t a, uint64_t b) {
  return b != 0 && a > UINT64_MAX / b ? UINT64_MAX : a * b;
}

/// Cancellation token + deadline for one analysis task. One instance per
/// task; the analysis thread polls check(), any other thread may cancel().
class ExecBudget {
 public:
  /// Sets an absolute deadline `delay_ms` from now; 0 disables it. A
  /// deadline beyond the clock's range never trips.
  void arm_deadline_ms(uint64_t delay_ms) {
    deadline_ns_ =
        delay_ms == 0
            ? 0
            : saturating_add(steady_now_ns(), saturating_mul(delay_ms, 1000000));
  }

  /// Trips the budget. Safe from any thread; first reason wins.
  void cancel(const char* reason) {
    const char* expected = nullptr;
    reason_.compare_exchange_strong(expected, reason,
                                    std::memory_order_release,
                                    std::memory_order_relaxed);
    cancelled_.store(true, std::memory_order_release);
  }
  bool cancelled() const { return cancelled_.load(std::memory_order_acquire); }

  /// Cancellation point: throws BudgetExceeded when tripped. `where` names
  /// the polling loop for the exception detail.
  void check(const char* where) {
    if (cancelled_.load(std::memory_order_relaxed)) throw_tripped(where);
    if (deadline_ns_ != 0 && steady_now_ns() > deadline_ns_) {
      cancel("deadline");
      throw_tripped(where);
    }
  }

 private:
  [[noreturn]] void throw_tripped(const char* where) const;

  std::atomic<bool> cancelled_{false};
  std::atomic<const char*> reason_{nullptr};
  uint64_t deadline_ns_ = 0;
};

}  // namespace synat
