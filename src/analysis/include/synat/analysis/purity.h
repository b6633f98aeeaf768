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
//
// The verdicts sit in one array in CFG loop order; the per-loop sets and
// searches reuse per-thread buffers, and an impure reason stores what broke
// and where, rendering its text only when provenance asks for it.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "synat/analysis/escape.h"
#include "synat/analysis/matching.h"
#include "synat/analysis/unique.h"
#include "synat/cfg/cfg.h"

namespace synat::analysis {

using synl::StmtId;

/// One broken purity premise: which of the Section 4 conditions failed
/// ("i" global updates, "ii" live local updates, "iii" LL/SC containment),
/// why, and at which event. Structured so the provenance layer can cite
/// the exact premise instead of re-parsing a message.
struct ImpureReason {
  std::string condition;   ///< "i", "ii", or "iii"
  std::string_view cause;  ///< what broke, a static string
  cfg::EventKind kind = cfg::EventKind::Join;  ///< the offending event's
  cfg::AccessPath path;                        ///< kind and location
  uint32_t line = 0;  ///< source line of the offending event (0 unknown)

  /// "<cause> at <path> (<kind>, line <line>)", the text step-0
  /// provenance quotes.
  std::string message(const Program& prog) const;
};

struct LoopPurity {
  StmtId loop;
  bool pure = false;
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
  /// The verdict on `loop`, found by a scan; null if it is not a loop of
  /// the CFG.
  const LoopPurity* result(StmtId loop) const {
    for (const LoopPurity& r : results_)
      if (r.loop == loop) return &r;
    return nullptr;
  }
  /// Every verdict, in CFG loop order, moved out of the analysis.
  std::vector<LoopPurity> take_results() { return std::move(results_); }

  /// True if the SC/CAS at `e` counts as a read under normal termination of
  /// its innermost loop (success branch unreachable from normal paths).
  bool treated_as_read(EventId e) const { return sc_as_read_.contains(e); }

 private:
  LoopPurity analyze_loop(const cfg::LoopInfo& info);

  const Program& prog_;
  const Cfg& cfg_;
  const MatchingAnalysis& matching_;
  const EscapeAnalysis& escape_;
  const UniqueAnalysis& unique_;
  std::vector<LoopPurity> results_;  ///< in CFG loop order
  cfg::NodeSet sc_as_read_;
};

}  // namespace synat::analysis
