// Pure-loop analysis (paper Section 4).
//
// A loop is pure if every action that can occur in a *normally terminating*
// iteration of its body is pure with respect to the loop:
//   (i)  global actions must not perform updates;
//   (ii) local updates must be dead at the end of the loop body (liveness
//        over access paths, cfg/liveness.h) and invisible outside the
//        procedure;
//   (iii) each LL(v) executable under normal termination must have all of
//        its matching SC(v,·) inside the loop, with an LL(v) on every path
//        from the loop entry to that SC.
// Special case: an SC/CAS that is the test of an `if` whose success branch
// cannot execute under normal termination is treated as a read.
//
// Lock acquire/release pairs are permitted in normally terminating
// iterations: the CFG builder guarantees they are matched on every path
// (Theorem 4.1's proof relies on exactly this).
//
// Only step 0 reads these verdicts, on original procedures: its
// atomicity::loop_verdicts builds a PurityAnalysis over the CFG, escape,
// uniqueness and matching results, once per original with a loop. Variant
// contexts (ProcAnalysis) build none. Conditions (i) and (ii) use Theorem
// 3.1's local-action test, which lives in escape.h because the mover
// assignment asks it too.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "synat/analysis/escape.h"
#include "synat/analysis/matching.h"
#include "synat/analysis/unique.h"
#include "synat/cfg/cfg.h"

namespace synat::analysis {

using synl::StmtId;

/// One broken purity premise: which of the Section 4 conditions failed
/// ("i" global updates, "ii" live local updates, "iii" LL/SC containment),
/// where, and a rendered explanation. Structured so the provenance layer
/// can cite the exact premise instead of re-parsing a message.
struct ImpureReason {
  std::string condition;  ///< "i", "ii", or "iii"
  std::string message;    ///< human-readable, includes path/kind/line
  uint32_t line = 0;      ///< source line of the offending event (0 unknown)
};

struct LoopPurity {
  StmtId loop;
  bool pure = false;
  /// Action events that can occur in a normally terminating iteration.
  cfg::NodeSet normal_events;
  /// Broken purity premises (empty when pure).
  std::vector<ImpureReason> reasons;
};

class PurityAnalysis {
 public:
  PurityAnalysis(const Program& prog, const Cfg& cfg,
                 const MatchingAnalysis& matching, const EscapeAnalysis& escape,
                 const UniqueAnalysis& unique);

  bool is_pure(StmtId loop) const {
    const LoopPurity* p = result(loop);
    return p && p->pure;
  }
  const LoopPurity* result(StmtId loop) const {
    auto it = results_.find(loop);
    return it == results_.end() ? nullptr : &it->second;
  }

  /// True if the SC/CAS at `e` counts as a read under normal termination of
  /// its innermost loop (success branch unreachable from normal paths).
  bool treated_as_read(EventId e) const { return sc_as_read_.contains(e); }

 private:
  void analyze_loop(const cfg::LoopInfo& info);

  const Program& prog_;
  const Cfg& cfg_;
  const MatchingAnalysis& matching_;
  const EscapeAnalysis& escape_;
  const UniqueAnalysis& unique_;
  std::unordered_map<StmtId, LoopPurity> results_;
  cfg::NodeSet sc_as_read_;
};

}  // namespace synat::analysis
