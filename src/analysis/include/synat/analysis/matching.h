// Matching-LL and matching-read resolution (paper Section 5.2).
//
// For each SC(v, val) or VL(v) event, its matching LL *expressions* are
// found by a backward DFS over the CFG starting at the event and not going
// past LL(v) nodes; every LL(v) reached is a match. For each CAS(v, e, n)
// whose expected value e is a variable x, the matching reads are the reads
// of v that were saved into x (statements `x := v` / `local x := v`),
// found by the same backward search not going past writes of x.
//
// `complete` records whether every backward path hits a match before
// reaching procedure entry: an SC with an incomplete match set may execute
// with no matching LL (and then must fail); a CAS may succeed without a
// matching read, in which case Theorem 5.3's CAS analogue does not apply.
//
// Layout: one table entry per SC, VL and CAS event in ascending EventId
// order, found by binary search, with every match list a slice of one
// array; an inverse (LL, primitive) index, sorted, answers matched_by.
// Every search reuses one visited/matched mark buffer and work stack per
// thread.
#pragma once

#include <span>
#include <vector>

#include "synat/cfg/cfg.h"

namespace synat::analysis {

using cfg::Cfg;
using cfg::EventId;
using synl::Program;

struct MatchInfo {
  std::span<const EventId> matches;  ///< LL events (or reads for CAS)
  bool complete = false;  ///< a match lies on every backward path
};

/// Its match lists are slices of an array it owns, so it is not copied.
class MatchingAnalysis {
 public:
  MatchingAnalysis(const Program& prog, const Cfg& cfg);
  MatchingAnalysis(const MatchingAnalysis&) = delete;
  MatchingAnalysis& operator=(const MatchingAnalysis&) = delete;

  /// Match info for an SC/VL/CAS event; null if `e` is not such an event.
  const MatchInfo* info(EventId e) const;

  /// True if `ll` is a matching LL (or matching read) of `primitive`.
  bool is_match(EventId primitive, EventId ll) const {
    const MatchInfo* mi = info(primitive);
    if (!mi) return false;
    for (EventId m : mi->matches)
      if (m == ll) return true;
    return false;
  }

  /// All SC/VL/CAS events for which `ll` is a match, in ascending order.
  std::span<const EventId> matched_by(EventId ll) const;

 private:
  struct Entry {
    EventId primitive;
    MatchInfo info;
  };
  std::vector<Entry> entries_;     ///< by ascending primitive
  std::vector<EventId> matches_;   ///< every match list, in entry order
  /// The (match, primitive) pairs sorted: inverse_lls_[k] is matched by
  /// inverse_prims_[k].
  std::vector<EventId> inverse_lls_, inverse_prims_;
};

}  // namespace synat::analysis
