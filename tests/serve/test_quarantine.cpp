// The quarantine circuit breaker's state machine (DESIGN.md §3h), driven
// with a fake clock: trip at the threshold, TTL decay with one free retry,
// success resets, bounded memory.
#include "synat/serve/quarantine.h"

#include <gtest/gtest.h>

namespace synat::serve {
namespace {

Quarantine::Options opts(unsigned threshold, uint64_t ttl_ms,
                         size_t max_entries = 4096) {
  Quarantine::Options o;
  o.threshold = threshold;
  o.ttl_ms = ttl_ms;
  o.max_entries = max_entries;
  return o;
}

TEST(ServeQuarantine, StartsClear) {
  Quarantine q(opts(3, 1000));
  EXPECT_FALSE(q.check(42, 0));
  EXPECT_EQ(q.size(), 0u);
}

TEST(ServeQuarantine, TripsAtThreshold) {
  Quarantine q(opts(3, 1000));
  q.record_death(42, 0);
  EXPECT_FALSE(q.check(42, 1));
  q.record_death(42, 2);
  EXPECT_FALSE(q.check(42, 3));
  q.record_death(42, 4);  // third death trips
  EXPECT_TRUE(q.check(42, 5));
  EXPECT_EQ(q.size(), 1u);
}

TEST(ServeQuarantine, SuccessResetsConsecutiveCount) {
  Quarantine q(opts(3, 1000));
  q.record_death(42, 0);
  q.record_death(42, 1);
  q.record_success(42);  // breaks the streak; entry erased
  EXPECT_EQ(q.size(), 0u);
  q.record_death(42, 2);
  q.record_death(42, 3);
  EXPECT_FALSE(q.check(42, 4));  // only 2 consecutive again
}

TEST(ServeQuarantine, SuccessCannotLiftATrip) {
  Quarantine q(opts(2, 1000));
  q.record_death(42, 0);
  q.record_death(42, 1);
  ASSERT_TRUE(q.check(42, 2));
  // A request that forked before the trip landed may succeed afterwards;
  // the trip still holds for its full TTL.
  q.record_success(42);
  EXPECT_TRUE(q.check(42, 3));
}

TEST(ServeQuarantine, TtlExpiryGrantsOneFreeRetry) {
  Quarantine q(opts(2, 1000));
  q.record_death(42, 0);
  q.record_death(42, 100);  // trips; until = 1100
  EXPECT_TRUE(q.check(42, 1099));
  EXPECT_FALSE(q.check(42, 1100));  // expired: erased, fork allowed
  EXPECT_EQ(q.size(), 0u);
  // The fresh chance starts the count from zero, not from the old streak.
  q.record_death(42, 1200);
  EXPECT_FALSE(q.check(42, 1201));
  q.record_death(42, 1300);
  EXPECT_TRUE(q.check(42, 1301));
}

TEST(ServeQuarantine, DeathsWhileTrippedDoNotExtendTheTrip) {
  Quarantine q(opts(2, 1000));
  q.record_death(42, 0);
  q.record_death(42, 0);  // until = 1000
  // A racing request that forked pre-trip and died late must not push the
  // expiry out (record_death on a tripped entry is a no-op).
  q.record_death(42, 900);
  EXPECT_TRUE(q.check(42, 999));
  EXPECT_FALSE(q.check(42, 1000));
}

TEST(ServeQuarantine, FingerprintsAreIndependent) {
  Quarantine q(opts(2, 1000));
  q.record_death(1, 0);
  q.record_death(1, 1);
  EXPECT_TRUE(q.check(1, 2));
  EXPECT_FALSE(q.check(2, 2));
  q.record_death(2, 3);
  EXPECT_FALSE(q.check(2, 4));  // one death, threshold two
  EXPECT_EQ(q.size(), 2u);
}

TEST(ServeQuarantine, BoundedEntries) {
  Quarantine q(opts(2, 1000, /*max_entries=*/3));
  for (uint64_t fp = 0; fp < 100; ++fp) q.record_death(fp, 0);
  EXPECT_LE(q.size(), 3u);
  // Eviction costs memory-of-offense only; new deaths still track and trip.
  q.record_death(777, 1);
  q.record_death(777, 2);
  EXPECT_TRUE(q.check(777, 3));
}

}  // namespace
}  // namespace synat::serve
