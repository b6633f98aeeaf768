// Atomicity inference: the seven-step algorithm of paper Section 5.4.
//
//  Step 0 (Section 5.2): replace each procedure by its exceptional variants.
//  Step 1: local actions are B; lock acquire R; lock release L.
//  Step 2: when every update of a variable goes through SC, successful
//          SC/VL on it are L and their matching LLs are R (Theorem 5.3);
//          CAS analogue for counted (ABA-protected) targets.
//  Step 3: infer local conditions of local blocks (Section 5.3).
//  Step 4: per global read/write, decide whether a conflicting access from
//          another thread can be adjacent, using locks (Theorem 5.1),
//          successful-SC windows (Theorem 5.4) and condition-disjoint
//          blocks (Theorem 5.5); assign L/R/B accordingly and meet with the
//          earlier classification.
//  Step 5: unclassified actions get A.
//  Step 6: propagate through the AST with join / seq / iterative closure.
//  Step 7: a procedure is atomic iff every variant's body is ⊑ A.
//
// Step 4 classifies each action against one whole-program *conflict
// universe*: every procedure's variants with their regions and lock sets.
// ConflictUniverse builds it once (step 0 plus every variant's context,
// and an alias index from which steps 2 and 4 take only the candidates
// that may alias, in scan order: DESIGN.md §5); ConflictUniverse::classify
// then runs steps 1-7 for one procedure against it, so classifying any
// subset of procedures gives exactly the results of a whole-program run.
//
// Given a thread pool with idle workers, the build runs its read-only
// phases in parallel: the originals' loop verdicts (loop_verdicts: §4's
// facts only, and none for a procedure without a loop) and the variants'
// contexts, each into its own slot. Variant generation between them
// appends to the Program, so it runs serially, as does the alias index.
// classify() is const and only reads the universe and the Program, so
// callers may classify procedures concurrently.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "synat/analysis/proc_analysis.h"
#include "synat/atomicity/types.h"
#include "synat/atomicity/variants.h"
#include "synat/obs/provenance.h"
#include "synat/support/diag.h"

namespace synat {
class ThreadPool;
}

namespace synat::atomicity {

using cfg::EventId;
using synl::StmtId;

struct InferOptions {
  VariantOptions variant_opts;
  /// Theorem 5.4 successful-SC window exclusions (ablation E8-ii).
  bool use_window_rule = true;
  /// Theorem 5.5 local-condition exclusions (ablation E8-iii).
  bool use_local_conditions = true;
  /// Treat CAS targets as ABA-protected (modification counters), enabling
  /// the CAS analogues of Theorems 5.3/5.4. The paper assumes the counter
  /// discipline for the algorithms of Section 6.4; list the protected
  /// locations as "Var" (global) or "Class.field" strings, or "*" for all.
  std::vector<std::string> counted_cas;
  /// Record a structured justification for every classification decision
  /// (DESIGN.md §3f): which step fired, citing which theorem, on which
  /// event, with conflict witnesses. Off by default — collection costs a
  /// record per classified event. Part of the driver's cache fingerprint.
  bool provenance = false;
};

/// Step 6's types for the statements of one variant body: one entry per
/// statement in a flat table sorted by StmtId, found by binary search.
class StmtAtoms {
 public:
  struct Entry {
    StmtId stmt;
    Atomicity whole = Atomicity::B;  ///< the statement with all it contains
    /// seq of the statement's own events in evaluation order: an if's
    /// test, a local's initializer, a lock's acquire and release; for a
    /// statement without children, the same as `whole`.
    Atomicity own = Atomicity::B;
  };

  /// The entry of `id`, or nullptr when `id` is not in the body.
  const Entry* find(StmtId id) const;

 private:
  friend class InferEngine;
  std::vector<Entry> entries_;
};

struct VariantResult {
  synl::ProcId variant;
  Atomicity atomicity = Atomicity::N;  ///< of the variant body
  /// Type of every CFG node of the variant, indexed by EventId.idx;
  /// nullopt for a node that is not an action.
  std::vector<std::optional<Atomicity>> event_atom;
  StmtAtoms stmt_atom;
  std::shared_ptr<analysis::ProcAnalysis> pa;
  /// Per-event and per-variant derivation records, in deterministic
  /// (event-index, then emission) order. Empty unless
  /// InferOptions::provenance.
  std::vector<obs::ProvenanceRecord> prov;
};

struct ProcResult {
  synl::ProcId proc;
  bool atomic = false;
  Atomicity atomicity = Atomicity::N;  ///< join over variant bodies
  bool no_variants = false;  ///< pure non-terminating loop: trivially atomic
  bool bailed_out = false;
  std::vector<VariantResult> variants;
  /// Procedure-level derivation records (step 0 variant/purity facts and
  /// the step 7 verdict). Empty unless InferOptions::provenance.
  std::vector<obs::ProvenanceRecord> prov;
};

class AtomicityResult {
 public:
  const std::vector<ProcResult>& procs() const { return procs_; }
  const ProcResult* result_for(synl::ProcId proc) const {
    for (const ProcResult& r : procs_)
      if (r.proc == proc) return &r;
    return nullptr;
  }
  bool all_atomic() const {
    for (const ProcResult& r : procs_)
      if (!r.atomic) return false;
    return !procs_.empty();
  }

  /// Annotated listing of a variant in the style of the paper's Figure 3:
  /// one line per statement, prefixed with its atomicity type.
  std::string listing(const synl::Program& prog, const VariantResult& v) const;
  /// Listing of every variant of every procedure.
  std::string full_listing(const synl::Program& prog) const;

 private:
  friend AtomicityResult infer_atomicity(synl::Program&, DiagEngine&,
                                         const InferOptions&);
  std::vector<ProcResult> procs_;
};

class InferEngine;

/// The program's conflict universe, built once: step 0 for every procedure,
/// the context (regions, lock sets) of every exceptional variant, and the
/// alias index that hands steps 2 and 4 their conflict candidates.
class ConflictUniverse {
 public:
  /// Appends the exceptional variants to `prog`, which must outlive the
  /// universe and stay otherwise unmodified. Polls
  /// `opts.variant_opts.budget` and throws BudgetExceeded when it trips. A
  /// procedure over `opts.variant_opts.max_variants` enters the universe as
  /// its unspecialized clone, which over-approximates every variant for
  /// the other procedures; only its own classify() fails. With a `pool`,
  /// the pool's idle workers help build the universe (see above); the
  /// result is the same either way.
  ConflictUniverse(synl::Program& prog, DiagEngine& diags,
                   const InferOptions& opts, ThreadPool* pool = nullptr);
  ~ConflictUniverse();
  ConflictUniverse(const ConflictUniverse&) = delete;
  ConflictUniverse& operator=(const ConflictUniverse&) = delete;

  /// Original procedures, ProcIds 0 .. num_procs()-1.
  size_t num_procs() const;

  /// Steps 1-7 for original procedure `proc`. Throws BudgetExceeded:
  /// "max-variants" when `proc` exceeded the variant budget, or the
  /// budget's own reason when it trips mid-classification.
  ProcResult classify(synl::ProcId proc) const;

  /// ProgramFingerprint::universe, hashed from the contexts built above.
  uint64_t fingerprint() const;

 private:
  std::unique_ptr<InferEngine> engine_;
};

/// Runs the complete analysis: builds the universe and classifies every
/// procedure. Appends exceptional variants to `prog`.
AtomicityResult infer_atomicity(synl::Program& prog, DiagEngine& diags,
                                const InferOptions& opts = {});

/// Content/interference fingerprints for fine-grained result caching.
///
/// A procedure's verdict is a function of (a) its own body and source
/// layout, (b) the program's declarations, and (c) the *interference
/// signature* of every procedure in the program — the projection of each
/// variant context that steps 2/4 read across contexts: region lists
/// (kind, shared-variable alias class, condition), global-action events
/// (kind, path alias class, lock set, region membership). Two programs
/// with equal `content[p]` and equal `universe` therefore give procedure
/// `p` byte-identical reports, even if other procedure bodies differ —
/// this is what lets the driver cache (and `synat serve`) re-analyze only
/// edited procedures instead of the whole program.
struct ProgramFingerprint {
  /// False when the program could not be fingerprinted precisely (broken
  /// procedures, a budget trip mid-fingerprint, reparse failure); callers
  /// must fall back to whole-program keying.
  bool complete = false;
  /// Declarations + every procedure's interference signature. Shared by
  /// all procedures of the program.
  uint64_t universe = 0;
  /// Per original procedure, in declaration order: content_fingerprint.
  std::vector<uint64_t> content;
};

/// ProgramFingerprint::content of original procedure `proc`: its printed
/// body plus its statement source layout (reports render line numbers, so
/// layout is part of the result's identity).
uint64_t content_fingerprint(const synl::Program& prog, synl::ProcId proc);
/// The same from the procedure's printed text (print_proc's, such as a
/// slice of synl::ProgramText), so a printed program serves every one.
uint64_t content_fingerprint(const synl::Program& prog, synl::ProcId proc,
                             std::string_view printed);

/// Computes the fingerprint without running steps 1-7 (it pays variant
/// generation, the per-variant contexts and the alias index, but
/// classifies nothing). Never appends to `prog`: the universe is built from
/// a private reparse. Honors `opts.variant_opts.budget`; a trip yields an incomplete
/// fingerprint instead of throwing.
ProgramFingerprint fingerprint_program(const synl::Program& prog,
                                       const InferOptions& opts = {});

}  // namespace synat::atomicity
