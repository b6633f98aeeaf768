// Exceptional-variant generation (paper Section 5.2).
//
// For each pure loop, every control-flow path of its body that terminates
// exceptionally (break out of the loop, jump past it, or return) is an
// *exceptional slice*. A procedure's exceptional variants are the cartesian
// product, over its pure loops, of their slices: each variant replaces each
// pure loop by one selected slice, with branch decisions along the slice
// turned into TRUE(e) / TRUE(!e) assumptions. Normally terminating paths
// are dropped (Theorem 4.1 lets them be deleted), and non-pure loops are
// kept whole.
//
// Variants are appended to the same Program as new procedures with
// `variant_of` pointing at the original; they are re-run through sema so
// all names, types and jump targets are resolved in the cloned bodies.
//
// Generation reads only Section 4's verdict on each loop of the original.
// loop_verdicts computes them from the facts that section needs, and
// nothing for a procedure without a loop, so step 0 costs one CFG and one
// pure-loop analysis per original with a loop, and nothing per other.
#pragma once

#include <vector>

#include "synat/analysis/purity.h"
#include "synat/support/budget.h"
#include "synat/support/diag.h"
#include "synat/synl/ast.h"

namespace synat::atomicity {

using synl::ProcId;
using synl::Program;

struct VariantSet {
  ProcId original;
  std::vector<ProcId> variants;
  /// True when the path count exceeded the generation cap and the variant
  /// list is a single unspecialized clone of the procedure.
  bool bailed_out = false;
  /// True when the variant count exceeded VariantOptions::max_variants and
  /// the list was replaced by a single unspecialized clone. Sound for the
  /// conflict universe (the clone over-approximates every variant); the
  /// driver degrades the procedure when it is the classification target.
  bool budget_tripped = false;
};

struct VariantOptions {
  /// Maximum number of paths enumerated per statement before bailing out.
  size_t max_paths = 256;
  /// Ablation hook (DESIGN.md E8-i): treat every loop as impure, so each
  /// procedure has exactly one variant, itself.
  bool disable = false;
  /// Hard cap on exceptional variants per procedure; 0 means unlimited.
  /// Exceeding it sets VariantSet::budget_tripped (see above). Part of the
  /// driver's cache fingerprint: it changes generated results.
  size_t max_variants = 0;
  /// Optional cancellation token polled during enumeration. Never part of
  /// the cache fingerprint — a trip aborts the task, it cannot change a
  /// completed result.
  ExecBudget* budget = nullptr;
};

/// Section 4's verdict on one loop of an original procedure (the loop,
/// whether it is pure, and the broken premises when not): all that step 0
/// keeps of the procedure's analysis.
using LoopVerdict = analysis::LoopPurity;

/// The verdict on every loop of `proc`, in CFG loop order. Builds only
/// what Section 4 reads: the CFG, escape, uniqueness, matching and a
/// PurityAnalysis, and no local conditions. A body with no `loop`
/// statement has no verdicts, and builds no CFG.
std::vector<LoopVerdict> loop_verdicts(const Program& prog, ProcId proc);

/// Generates the exceptional variants of `proc`. `loops` must be the loop
/// verdicts of the original procedure (purity decides which loops are
/// sliced).
VariantSet generate_variants(Program& prog, ProcId proc,
                             const std::vector<LoopVerdict>& loops,
                             DiagEngine& diags,
                             const VariantOptions& opts = {});

}  // namespace synat::atomicity
