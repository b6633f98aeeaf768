// Uniqueness analysis for working copies (paper Section 3.3 and [16]).
//
// Non-blocking algorithms in the Herlihy style keep a thread-private
// *working copy* of the shared object: read the shared reference with LL,
// copy its data into the private object, compute, then publish the private
// object with SC and retire the old shared copy into the private slot:
//
//     TRUE(SC(Q, prv));   // publish: prv's object becomes shared
//     prv := m;           // retire: the old shared copy becomes private
//
// The paper states that such a variable "effectively contains a unique
// reference", making every dereference through it a local action
// (both-mover, Theorem 3.1).
//
// This analysis recognizes the pattern: a candidate variable v (thread-local
// or local, reference-typed) is a working copy iff
//   (1) every statement that lets v's value escape is an SC/CAS publishing v
//       into a global-rooted location, and
//   (2) after each such publication (following only the success outcome),
//       the first event touching v on every path is a plain re-assignment
//       `v := m` (the retirement), and
//   (3) every non-`new` assignment to v is one of those retirements.
// Thread-local candidates are assumed to hold a unique reference initially
// (the standard setup for these algorithms; documented in DESIGN.md).
// The working copies are kept as a sorted array; the checks' buffers are
// reused per thread.
#pragma once

#include <algorithm>
#include <vector>

#include "synat/cfg/cfg.h"

namespace synat::analysis {

using cfg::Cfg;
using cfg::EventId;
using synl::Program;
using synl::VarId;

class UniqueAnalysis {
 public:
  UniqueAnalysis(const Program& prog, const Cfg& cfg);

  /// True if v is a verified working copy: dereferences through v are local
  /// actions everywhere in this procedure.
  bool is_working_copy(VarId v) const {
    return std::binary_search(working_.begin(), working_.end(), v);
  }

 private:
  std::vector<VarId> working_;  ///< by ascending VarId
};

}  // namespace synat::analysis
