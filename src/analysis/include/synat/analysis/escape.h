// Simple flow-sensitive escape analysis (paper Sections 3.2 / 5.4 step 1).
//
// Determines, per reference-typed local variable v and per CFG event e,
// whether the object v refers to at e is certainly a fresh allocation that
// has not yet escaped the creating thread. Accesses through such a variable
// behave like accesses to unshared variables and are both-movers.
//
// v is a *fresh* variable if every assignment to v in the procedure is a
// `new C`. v has *escaped* at event e if e is reachable from any leak of v:
// storing v into the heap or a global, publishing it via SC/CAS, copying it
// into another variable (conservative), or returning it.
//
// Layout: the fresh variables in one array, each with one row of escaped
// bits over the CFG's nodes in a NodeRows; the scan's buffers are reused
// per thread.
#pragma once

#include <vector>

#include "synat/cfg/cfg.h"

namespace synat::analysis {

using cfg::Cfg;
using cfg::EventId;
using synl::Program;
using synl::VarId;

class EscapeAnalysis {
 public:
  EscapeAnalysis(const Program& prog, const Cfg& cfg);

  /// True if, at event `e`, variable `v` certainly holds a reference to an
  /// object that has not escaped its creating thread.
  bool unescaped_at(EventId e, VarId v) const;

  /// True if every assignment to v is a fresh allocation.
  bool is_fresh_var(VarId v) const { return fresh_row(v) >= 0; }

 private:
  /// Row of fresh variable `v` in escaped_, or -1 when v is not fresh.
  int fresh_row(VarId v) const;

  /// The fresh variables, in the order analyzed. Row k of escaped_ holds
  /// the events that a leak of fresh_[k] may precede. A variable that is
  /// not fresh always reports escaped.
  std::vector<VarId> fresh_;
  cfg::NodeRows escaped_;
};

class UniqueAnalysis;

/// Theorem 3.1's test: `e` is a *local action* if it accesses an unshared
/// variable, or dereferences a verified unique reference (a working copy,
/// unique.h) or an object that has not escaped at `e`. Step 1 of the mover
/// assignment and purity conditions (i) and (ii) both use it.
bool is_local_action(const Program& prog, const Cfg& cfg,
                     const EscapeAnalysis& escape,
                     const UniqueAnalysis& unique, EventId e);

}  // namespace synat::analysis
