// One-stop per-procedure analysis bundle.
//
// Runs, in dependency order: CFG construction, escape analysis, uniqueness
// (working copy) analysis, matching-LL/matching-read resolution,
// local-condition inference, and pure-loop analysis. The atomicity
// inference (synat/atomicity) consumes one ProcAnalysis per exceptional
// variant.
#pragma once

#include <memory>
#include <optional>

#include "synat/analysis/escape.h"
#include "synat/analysis/localcond.h"
#include "synat/analysis/matching.h"
#include "synat/analysis/purity.h"
#include "synat/analysis/unique.h"
#include "synat/cfg/cfg.h"
#include "synat/obs/trace.h"

namespace synat::analysis {

class ProcAnalysis {
 public:
  ProcAnalysis(const Program& prog, synl::ProcId proc)
      : prog_(prog), proc_(proc), cfg_(cfg::build_cfg(prog, proc)) {
    {
      obs::SpanScope span(obs::StageId::Dataflow);
      escape_.emplace(prog, cfg_);
      unique_.emplace(prog, cfg_);
      matching_.emplace(prog, cfg_);
      localcond_.emplace(prog, cfg_);
    }
    purity_.emplace(prog, cfg_, *matching_, *escape_, *unique_);
  }

  ProcAnalysis(const ProcAnalysis&) = delete;
  ProcAnalysis& operator=(const ProcAnalysis&) = delete;

  const Program& prog() const { return prog_; }
  synl::ProcId proc() const { return proc_; }
  const Cfg& cfg() const { return cfg_; }
  const EscapeAnalysis& escape() const { return *escape_; }
  const UniqueAnalysis& unique() const { return *unique_; }
  const MatchingAnalysis& matching() const { return *matching_; }
  const PurityAnalysis& purity() const { return *purity_; }
  const LocalCondAnalysis& localcond() const { return *localcond_; }

 private:
  const Program& prog_;
  synl::ProcId proc_;
  Cfg cfg_;
  // Built in the constructor body, so one `dataflow` span covers the first
  // four and stays disjoint from purity's own span.
  std::optional<EscapeAnalysis> escape_;
  std::optional<UniqueAnalysis> unique_;
  std::optional<MatchingAnalysis> matching_;
  std::optional<LocalCondAnalysis> localcond_;
  std::optional<PurityAnalysis> purity_;
};

}  // namespace synat::analysis
