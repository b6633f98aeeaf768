// Per-program quarantine circuit breaker for sandboxed serve (DESIGN.md
// §3h). A program whose sandboxed execution keeps dying — every fork
// attempt crashed, hung, or OOMed — is a repeat offender: re-forking it on
// every request would let one hostile input monopolize the daemon's fork
// bandwidth. After `threshold` consecutive failed executions of the same
// content fingerprint the entry trips, and further requests short-circuit
// to kErrQuarantined (-32004) without forking at all, until `ttl_ms`
// elapses. Any successful execution resets the entry (the "consecutive"
// in the contract).
//
// The state machine per fingerprint:
//
//     (absent) --death--> counting(n) --death at n==threshold--> tripped
//     counting --success--> (absent)
//     tripped  --check after ttl--> (absent)   [one free retry]
//
// Time is passed in by the caller (milliseconds on any monotonic clock) so
// the tests can drive the TTL with a fake clock.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <unordered_map>

namespace synat::serve {

class Quarantine {
 public:
  struct Options {
    unsigned threshold = 3;     ///< consecutive failed executions to trip
    uint64_t ttl_ms = 60'000;   ///< how long a tripped entry blocks forks
    size_t max_entries = 4096;  ///< bound on tracked fingerprints
  };

  explicit Quarantine(Options opts) : opts_(opts) {}

  /// True while `fp` is tripped. A tripped entry past its TTL is erased
  /// (the offender gets a fresh fork) and reports false.
  bool check(uint64_t fp, uint64_t now_ms);

  /// Records one failed sandboxed execution (all fork attempts died); the
  /// `threshold`-th in a row trips the breaker.
  void record_death(uint64_t fp, uint64_t now_ms);

  /// A successful execution clears the consecutive-death count.
  void record_success(uint64_t fp);

  /// Tracked fingerprints (counting + tripped), for status reporting.
  size_t size() const;

 private:
  struct Entry {
    unsigned deaths = 0;
    uint64_t until_ms = 0;  ///< 0 = counting; nonzero = tripped until then
  };

  Options opts_;
  mutable std::mutex mu_;
  std::unordered_map<uint64_t, Entry> entries_;
};

}  // namespace synat::serve
