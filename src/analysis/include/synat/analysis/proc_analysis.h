// One-stop per-procedure analysis bundle: the facts steps 1-6 of the
// mover assignment read about one exceptional variant.
//
// Runs, in dependency order: CFG construction, escape analysis, uniqueness
// (working copy) analysis, matching-LL/matching-read resolution and
// local-condition inference, and answers Theorem 3.1's local-action test
// from the escape and uniqueness results. The atomicity inference
// (synat/atomicity) builds one ProcAnalysis per exceptional variant.
//
// It builds no pure-loop analysis, which nothing reads on a variant. Step 0
// reads §4 only on original procedures, through atomicity::loop_verdicts,
// which builds a PurityAnalysis (purity.h) over just the CFG, escape,
// uniqueness and matching results.
//
// Every fact is a few exact-size arrays (DESIGN.md §5, "Flat per-procedure
// structures"), built in per-thread buffers that each analysis reuses, so
// the bundle costs about a dozen allocations and frees as many.
#pragma once

#include <memory>
#include <optional>

#include "synat/analysis/escape.h"
#include "synat/analysis/localcond.h"
#include "synat/analysis/matching.h"
#include "synat/analysis/unique.h"
#include "synat/cfg/cfg.h"
#include "synat/obs/trace.h"

namespace synat::analysis {

class ProcAnalysis {
 public:
  ProcAnalysis(const Program& prog, synl::ProcId proc)
      : prog_(prog), proc_(proc), cfg_(cfg::build_cfg(prog, proc)) {
    obs::SpanScope span(obs::StageId::Dataflow);
    escape_.emplace(prog, cfg_);
    unique_.emplace(prog, cfg_);
    matching_.emplace(prog, cfg_);
    localcond_.emplace(prog, cfg_);
  }

  ProcAnalysis(const ProcAnalysis&) = delete;
  ProcAnalysis& operator=(const ProcAnalysis&) = delete;

  const Program& prog() const { return prog_; }
  synl::ProcId proc() const { return proc_; }
  const Cfg& cfg() const { return cfg_; }
  const EscapeAnalysis& escape() const { return *escape_; }
  const UniqueAnalysis& unique() const { return *unique_; }
  const MatchingAnalysis& matching() const { return *matching_; }
  const LocalCondAnalysis& localcond() const { return *localcond_; }

  /// Theorem 3.1: whether `e` is a local action (escape.h).
  bool is_local_action(EventId e) const {
    return analysis::is_local_action(prog_, cfg_, *escape_, *unique_, e);
  }

 private:
  const Program& prog_;
  synl::ProcId proc_;
  Cfg cfg_;
  // Built in the constructor body, so one `dataflow` span covers them and
  // stays disjoint from the CFG's own span.
  std::optional<EscapeAnalysis> escape_;
  std::optional<UniqueAnalysis> unique_;
  std::optional<MatchingAnalysis> matching_;
  std::optional<LocalCondAnalysis> localcond_;
};

}  // namespace synat::analysis
