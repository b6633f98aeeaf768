#include "synat/atomicity/infer.h"

#include <algorithm>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <unordered_set>

#include "synat/analysis/expr_util.h"
#include "synat/analysis/locksets.h"
#include "synat/obs/metrics.h"
#include "synat/obs/trace.h"
#include "synat/support/hash.h"
#include "synat/support/thread_pool.h"
#include "synat/synl/parser.h"
#include "synat/synl/printer.h"

namespace synat::atomicity {

using analysis::may_alias;
using analysis::Pred;
using analysis::ProcAnalysis;
using cfg::AccessPath;
using cfg::Edge;
using cfg::Event;
using cfg::EventKind;
using synl::ProcId;
using synl::Program;
using synl::Stmt;
using synl::StmtKind;

namespace {

/// InferOptions::counted_cas resolved against the program's symbols. A
/// location's key is "Var" for a plain variable and "Class.field" for a
/// selector path, with "?" for a holder that is not a class reference and
/// "[]" for an array element; "*" matches every location.
class CountedSet {
 public:
  CountedSet(const Program& prog, const std::vector<std::string>& specs) {
    for (const std::string& s : specs) {
      if (s == "*") {
        all_ = true;
      } else if (s.empty()) {
        invalid_root_ = true;
      } else if (size_t dot = s.find('.'); dot == std::string::npos) {
        if (Symbol v = prog.syms().lookup(s); v.valid()) vars_.insert(v.id());
      } else {
        std::string_view cls = std::string_view(s).substr(0, dot);
        std::string_view field = std::string_view(s).substr(dot + 1);
        // Symbol id 0 is never interned: it stands for "?" and "[]".
        Symbol c = cls == "?" ? Symbol() : prog.syms().lookup(cls);
        Symbol f = field == "[]" ? Symbol() : prog.syms().lookup(field);
        if ((c.valid() || cls == "?") && (f.valid() || field == "[]"))
          fields_.insert(pack(c.id(), f.id()));
      }
    }
  }

  bool contains(const Program& prog, const AccessPath& path) const {
    if (all_) return true;
    if (!path.root.valid()) return invalid_root_;
    if (path.is_plain_var()) return vars_.count(prog.var(path.root).name.id());
    synl::TypeId holder = analysis::path_prefix_type(prog, path);
    Symbol cls;
    if (holder.valid() && prog.type(holder).kind == synl::TypeKind::Ref)
      cls = prog.cls(prog.type(holder).cls).name;
    return fields_.count(pack(cls.id(), path.last_field().id()));
  }

 private:
  static uint64_t pack(uint32_t cls, uint32_t field) {
    return (static_cast<uint64_t>(cls) << 32) | field;
  }
  bool all_ = false;
  bool invalid_root_ = false;
  std::unordered_set<uint32_t> vars_;
  std::unordered_set<uint64_t> fields_;
};

/// Deterministic work tallies of one universe build or one classify call,
/// added to the registry once (DESIGN.md §5).
struct Work {
  uint64_t candidates = 0;  ///< locations an alias index handed out
  uint64_t rejected = 0;    ///< of those, rejected by may_alias
  uint64_t exclusion_checks = 0;  ///< excluded() calls

  void flush() const {
    static obs::Counter& cand =
        obs::registry().counter("synat_alias_candidates_total");
    static obs::Counter& rej =
        obs::registry().counter("synat_alias_rejected_total");
    static obs::Counter& excl =
        obs::registry().counter("synat_exclusion_checks_total");
    cand.inc(candidates);
    rej.inc(rejected);
    excl.inc(exclusion_checks);
  }
};

/// "SC Ready" / "Write Node.val" — stable event rendering for provenance
/// subjects and conflict witnesses.
std::string event_text(const Program& prog, const Event& ev) {
  std::string out{to_string(ev.kind)};
  if (ev.path.root.valid()) {
    out += ' ';
    out += ev.path.str(prog);
  }
  return out;
}

SourceLoc event_loc(const Program& prog, const Event& ev) {
  if (ev.expr.valid()) return prog.expr(ev.expr).loc;
  if (ev.stmt.valid()) return prog.stmt(ev.stmt).loc;
  return {};
}

/// A mutual-exclusion region inside one variant (Theorems 5.4/5.5). Its
/// three node sets are rows `row` (members: the closed region,
/// anchor..terminal), `row + 1` (in_s: the anchor and the part strictly
/// after it) and `row + 2` (prot: strictly after the anchor) of its
/// context's region_rows.
struct Region {
  enum Kind : uint8_t { Window, LLSCBlock, PlainBlock } kind = Window;
  AccessPath svar;
  Pred cond = Pred::True;
  uint32_t row = 0;
  /// Theorem 5.5 premise for svar's alias class (llsc_premise), set when
  /// the universe is built for the blocks excluded() consults.
  std::optional<Pred> premise;
};

/// body(0) .. body(n-1) on `pool` (its idle workers help), or in order on
/// this thread when there is no pool.
void for_each_index(ThreadPool* pool, size_t n,
                    const std::function<void(size_t)>& body) {
  if (pool != nullptr) {
    pool->parallel_for(n, body);
  } else {
    for (size_t i = 0; i < n; ++i) body(i);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Engine

class InferEngine {
 public:
  /// Builds the conflict universe (see ConflictUniverse).
  InferEngine(Program& prog, DiagEngine& diags, const InferOptions& opts,
              ThreadPool* pool);

  size_t num_procs() const { return procs_.size(); }
  ProcResult classify(ProcId proc) const;
  uint64_t fingerprint() const;

 private:
  /// One variant's context: its analysis, its regions with their node
  /// sets in one array, and its lock sets.
  struct VariantCtx {
    ProcId id;
    std::shared_ptr<ProcAnalysis> pa;
    std::vector<Region> regions;
    cfg::NodeRows region_rows;
    analysis::LockSets locks;  ///< lock paths held on entry to each event

    bool member(const Region& r, EventId e) const {
      return region_rows.contains(r.row, e);
    }
    bool in_s(const Region& r, EventId e) const {
      return region_rows.contains(r.row + 1, e);
    }
    bool prot(const Region& r, EventId e) const {
      return region_rows.contains(r.row + 2, e);
    }
  };

  /// Step 0 of one original procedure: its variants, where their contexts
  /// start in vctx_ (contiguous, in variant order), and its step-0
  /// provenance records.
  struct ProcEntry {
    VariantSet vs;
    size_t first_ctx = 0;
    std::vector<obs::ProvenanceRecord> step0;
  };

  /// Step-0 provenance of one original procedure: loop purity verdicts,
  /// a path-budget bailout, and how many variants it contributes.
  std::vector<obs::ProvenanceRecord> step0_provenance(
      ProcId pid, const std::vector<LoopVerdict>& loops,
      const VariantSet& vs) const;

  VariantCtx make_variant_ctx(ProcId variant) const;
  void build_regions(VariantCtx& ctx) const;
  /// Lists the conflict candidates and LL-SC blocks into their alias
  /// indexes, then computes every Theorem 5.5 block's premise.
  void build_index(Work& work);

  /// A global action other than Acquire/Release: a conflict candidate.
  struct Action {
    uint32_t ctx;  ///< index into vctx_
    EventId ev;
  };
  const Event& node(const Action& a) const {
    return vctx_[a.ctx].pa->cfg().node(a.ev);
  }

  bool is_global_action(const VariantCtx& ctx, EventId e) const {
    const Event& ev = ctx.pa->cfg().node(e);
    if (!ev.is_action()) return false;
    switch (ev.kind) {
      case EventKind::Read:
      case EventKind::Write:
      case EventKind::LL:
      case EventKind::VL:
      case EventKind::SC:
      case EventKind::CAS:
        return !ctx.pa->is_local_action(e);
      case EventKind::Acquire:
      case EventKind::Release:
        return true;
      default:
        return false;
    }
  }

  bool write_like(const Event& ev) const {
    return ev.kind == EventKind::Write || ev.kind == EventKind::SC ||
           ev.kind == EventKind::CAS;
  }
  bool read_like(const Event& ev) const {
    return ev.kind == EventKind::Read || ev.kind == EventKind::LL ||
           ev.kind == EventKind::VL || ev.kind == EventKind::SC ||
           ev.kind == EventKind::CAS;
  }

  bool counted_cas(const AccessPath& path) const {
    return counted_.contains(prog_, path);
  }

  /// Step-2 discipline: every global update of any location aliasing `path`
  /// is performed by the given primitive kind.
  bool all_updates_via(const AccessPath& path, EventKind prim,
                       Work& work) const;

  /// Theorem 5.5 premise for svar's alias class: all LL-SC blocks on it
  /// share one non-trivial condition and all global updates are SCs inside
  /// such blocks. Returns the common condition.
  std::optional<Pred> llsc_premise(const AccessPath& svar, Work& work) const;

  /// Directional protection of `e` by region `r` (see DESIGN.md):
  /// the slot immediately before/after e is strictly inside the region.
  bool before_protected(const VariantCtx& ctx, const Region& r, EventId e) const;
  bool after_protected(const VariantCtx& ctx, const Region& r, EventId e) const;

  /// Whether a conflicting access `f` (in ctx_f) is excluded from the slot
  /// adjacent to `e` (in ctx_e) in the given direction. When it is, `*why`
  /// (if non-null) names the exclusion theorem: "5.1", "5.4" or "5.5".
  bool excluded(const VariantCtx& ctx_e, EventId e, const VariantCtx& ctx_f,
                EventId f, bool before, const char** why, Work& work) const;

  /// Evidence collected by the step-4 conflict scan in provenance mode.
  struct Step4Info {
    bool had_conflict = false;  ///< some aliasing conflicting access scanned
    uint8_t excl = 0;           ///< exclusion theorems fired: 1=5.1 2=5.4 4=5.5
    const VariantCtx* witness_ctx = nullptr;  ///< first non-excluded conflict
    EventId witness;
    const VariantCtx* excl_ctx = nullptr;  ///< first excluded conflict
    EventId excl_witness;
    const char* excl_theorem = nullptr;    ///< theorem that excluded it
  };

  Atomicity classify_event(const VariantCtx& ctx, EventId e,
                           std::vector<obs::ProvenanceRecord>* prov,
                           Work& work) const;
  Atomicity step4(const VariantCtx& ctx, EventId e, Step4Info* info,
                  Work& work) const;

  std::string variant_name(const VariantCtx& ctx) const {
    return prog_.proc(ctx.id).variant_tag.empty()
               ? std::string(prog_.syms().name(prog_.proc(ctx.id).name))
               : prog_.proc(ctx.id).variant_tag;
  }
  void set_witness(obs::ProvenanceRecord* r, const VariantCtx* wctx,
                   EventId f) const;

  void mix_variant_signature(Hasher& h, const VariantCtx& ctx) const;

  /// Each action of a variant as (StmtId.idx, EventId.idx), sorted: one
  /// statement's events are one run, in ascending EventId order.
  using StmtEvents = std::vector<std::pair<uint32_t, uint32_t>>;

  void propagate(const VariantCtx& ctx, VariantResult& out, Work& work) const;
  /// Step 6 for statement `id`: returns its type and appends the entries
  /// of `id` and everything it contains to `out`.
  Atomicity stmt_atom(const StmtEvents& events, const VariantResult& res,
                      synl::StmtId id,
                      std::vector<StmtAtoms::Entry>& out) const;
  Atomicity seq_events_of(const StmtEvents& events, const VariantResult& res,
                          synl::StmtId id, bool pre_release_only,
                          bool release_only) const;

  Program& prog_;
  const InferOptions opts_;
  const CountedSet counted_;
  std::vector<ProcEntry> procs_;  ///< per original procedure
  std::vector<VariantCtx> vctx_;  ///< every variant of every procedure
  /// Every conflict candidate in (variant, event) order, and its alias
  /// index: steps 2 and 4 and the premises read only the candidates of
  /// the queried location's bucket, in this order.
  std::vector<Action> actions_;
  analysis::AliasIndex action_index_;
  /// Every LL-SC block as (variant, region), in order, and its svar index.
  std::vector<std::pair<uint32_t, uint32_t>> llsc_blocks_;
  analysis::AliasIndex llsc_index_;
};

// ---------------------------------------------------------------------------

namespace {

/// build_regions' buffers, reused by every context built on this thread:
/// the regions and their rows before they are copied out at their exact
/// size, and the reachability sets and search stack.
struct RegionScratch {
  std::vector<Region> regions;
  cfg::NodeRows rows;
  cfg::NodeSet back, fwd;
  std::vector<EventId> work;
};
thread_local RegionScratch region_scratch;

}  // namespace

InferEngine::VariantCtx InferEngine::make_variant_ctx(ProcId variant) const {
  VariantCtx ctx;
  ctx.id = variant;
  ctx.pa = std::make_shared<ProcAnalysis>(prog_, variant);
  obs::SpanScope span(obs::StageId::Contexts);
  build_regions(ctx);
  ctx.locks = analysis::LockSets(ctx.pa->cfg());
  return ctx;
}

void InferEngine::build_regions(VariantCtx& ctx) const {
  const cfg::Cfg& cfg = ctx.pa->cfg();
  const size_t n = cfg.num_nodes();
  auto all = [](EventId) { return true; };
  RegionScratch& s = region_scratch;
  s.regions.clear();
  s.rows.reset(n);

  // Successful-SC windows (Theorem 5.4) and, for counted targets, CAS
  // windows from the matching read to the CAS.
  for (uint32_t i = 0; i < n; ++i) {
    EventId sc(i);
    const Event& ev = cfg.node(sc);
    bool is_sc_window = ev.kind == EventKind::SC && ev.must_succeed;
    bool is_cas_window = ev.kind == EventKind::CAS && ev.must_succeed &&
                         counted_cas(ev.path);
    if (!is_sc_window && !is_cas_window) continue;
    const analysis::MatchInfo* mi = ctx.pa->matching().info(sc);
    if (!mi || mi->matches.empty()) continue;

    Region r;
    r.kind = Region::Window;
    r.svar = ev.path;
    r.row = s.rows.add_rows(3);
    s.back.reset(n);
    cfg.reach_back(sc, all, s.back, s.work);
    for (EventId anchor : mi->matches) {
      s.fwd.reset(n);
      cfg.reach(anchor, all, s.fwd, s.work);
      for (EventId m : s.fwd) {
        if (!s.back.contains(m)) continue;
        s.rows.insert(r.row, m);
        s.rows.insert(r.row + 1, m);
        if (m != anchor) s.rows.insert(r.row + 2, m);
      }
    }
    // Anchors of one window are never "protected" even if another anchor
    // reaches them.
    for (EventId anchor : mi->matches) s.rows.erase(r.row + 2, anchor);
    s.regions.push_back(std::move(r));
  }

  // Local blocks (Theorem 5.5): LL-SC blocks and plain local blocks.
  for (const analysis::LocalBlock& b : ctx.pa->localcond().blocks()) {
    if (!b.reads_svar || b.lvar_updated) continue;
    // Anchor: the initializer's read/LL of svar.
    EventId anchor;
    for (EventId e : b.events) {
      const Event& ev = cfg.node(e);
      if (ev.stmt == b.stmt &&
          (ev.kind == EventKind::LL || ev.kind == EventKind::Read) &&
          ev.path == b.svar) {
        anchor = e;
        break;
      }
    }
    if (!anchor.valid()) continue;
    Region r;
    r.kind = b.is_llsc_block() ? Region::LLSCBlock : Region::PlainBlock;
    r.svar = b.svar;
    r.cond = b.cond;
    r.row = s.rows.add_rows(3);
    for (EventId e : b.events) s.rows.insert(r.row, e);
    s.fwd.reset(n);
    cfg.reach(anchor, all, s.fwd, s.work);
    for (EventId m : s.fwd) {
      if (!s.rows.contains(r.row, m)) continue;
      s.rows.insert(r.row + 1, m);
      if (m != anchor) s.rows.insert(r.row + 2, m);
    }
    s.regions.push_back(std::move(r));
  }

  if (s.regions.empty()) return;
  ctx.regions.assign(s.regions.begin(), s.regions.end());
  ctx.region_rows = s.rows;
}

void InferEngine::build_index(Work& work) {
  obs::SpanScope span(obs::StageId::Contexts);
  // Upper bounds, so each list below is allocated once.
  size_t events = 0, regions = 0;
  for (const VariantCtx& w : vctx_) {
    events += w.pa->cfg().num_nodes();
    regions += w.regions.size();
  }
  actions_.reserve(events);
  action_index_.reserve(events);
  llsc_blocks_.reserve(regions);
  llsc_index_.reserve(regions);
  for (uint32_t c = 0; c < vctx_.size(); ++c) {
    const VariantCtx& w = vctx_[c];
    const cfg::Cfg& cfg = w.pa->cfg();
    for (uint32_t i = 0; i < cfg.num_nodes(); ++i) {
      EventId f(i);
      const Event& fe = cfg.node(f);
      if (fe.kind == EventKind::Acquire || fe.kind == EventKind::Release)
        continue;
      if (!is_global_action(w, f)) continue;
      actions_.push_back({c, f});
      action_index_.add(prog_, fe.path);
    }
    for (uint32_t r = 0; r < w.regions.size(); ++r) {
      if (w.regions[r].kind != Region::LLSCBlock) continue;
      llsc_blocks_.emplace_back(c, r);
      llsc_index_.add(prog_, w.regions[r].svar);
    }
  }
  action_index_.finish();
  llsc_index_.finish();
  if (!opts_.use_local_conditions) return;
  for (VariantCtx& w : vctx_) {
    for (Region& r : w.regions) {
      if (r.kind != Region::Window && r.cond != Pred::True)
        r.premise = llsc_premise(r.svar, work);
    }
  }
}

bool InferEngine::all_updates_via(const AccessPath& path, EventKind prim,
                                  Work& work) const {
  bool all = true;
  action_index_.for_each_candidate(prog_, path, [&](uint32_t a) {
    ++work.candidates;
    const Event& fe = node(actions_[a]);
    if (!write_like(fe) || fe.kind == prim) return true;
    if (!may_alias(prog_, fe.path, path)) {
      ++work.rejected;
      return true;
    }
    all = false;
    return false;
  });
  return all;
}

std::optional<Pred> InferEngine::llsc_premise(const AccessPath& svar,
                                              Work& work) const {
  std::optional<Pred> common;
  bool holds = true;
  llsc_index_.for_each_candidate(prog_, svar, [&](uint32_t b) {
    ++work.candidates;
    const auto [c, ri] = llsc_blocks_[b];
    const Region& r = vctx_[c].regions[ri];
    if (!may_alias(prog_, r.svar, svar)) {
      ++work.rejected;
      return true;
    }
    if (r.cond == Pred::True || (common && *common != r.cond)) {
      holds = false;
      return false;
    }
    common = r.cond;
    return true;
  });
  if (!holds || !common) return std::nullopt;

  // Every global update of ~svar must be an SC inside an LL-SC block on it.
  action_index_.for_each_candidate(prog_, svar, [&](uint32_t a) {
    ++work.candidates;
    const VariantCtx& w = vctx_[actions_[a].ctx];
    const EventId f = actions_[a].ev;
    const Event& fe = node(actions_[a]);
    if (!write_like(fe)) return true;
    if (!may_alias(prog_, fe.path, svar)) {
      ++work.rejected;
      return true;
    }
    bool inside = false;
    if (fe.kind == EventKind::SC) {
      for (const Region& r : w.regions) {
        if (r.kind == Region::LLSCBlock && may_alias(prog_, r.svar, svar) &&
            w.member(r, f)) {
          inside = true;
          break;
        }
      }
    }
    holds = inside;
    return holds;
  });
  if (!holds) return std::nullopt;
  return common;
}

bool InferEngine::before_protected(const VariantCtx& ctx, const Region& r,
                                   EventId e) const {
  if (!ctx.prot(r, e)) return false;
  for (const Edge& p : ctx.pa->cfg().preds(e)) {
    if (!ctx.in_s(r, p.to)) return false;
  }
  return true;
}

bool InferEngine::after_protected(const VariantCtx& ctx, const Region& r,
                                  EventId e) const {
  if (!ctx.in_s(r, e)) return false;
  for (const Edge& s : ctx.pa->cfg().succs(e)) {
    if (!ctx.prot(r, s.to)) return false;
  }
  return true;
}

bool InferEngine::excluded(const VariantCtx& ctx_e, EventId e,
                           const VariantCtx& ctx_f, EventId f,
                           bool before, const char** why, Work& work) const {
  ++work.exclusion_checks;
  // (a) Theorem 5.1: both hold a common lock.
  for (const AccessPath& le : ctx_e.locks.held(e)) {
    for (const AccessPath& lf : ctx_f.locks.held(f)) {
      if (may_alias(prog_, le, lf)) {
        if (why != nullptr) *why = "5.1";
        return true;
      }
    }
  }

  for (const Region& re : ctx_e.regions) {
    if (!ctx_e.member(re, e)) continue;
    bool dir_ok = before ? before_protected(ctx_e, re, e)
                         : after_protected(ctx_e, re, e);
    if (!dir_ok) continue;

    // (b) Theorem 5.4: both inside successful-SC windows on aliasing vars.
    if (opts_.use_window_rule && re.kind == Region::Window) {
      for (const Region& rf : ctx_f.regions) {
        if (rf.kind == Region::Window && ctx_f.member(rf, f) &&
            may_alias(prog_, re.svar, rf.svar)) {
          if (why != nullptr) *why = "5.4";
          return true;
        }
      }
    }

    // (c) Theorem 5.5: condition-disjoint LL-SC / local block pair.
    if (opts_.use_local_conditions && re.cond != Pred::True &&
        (re.kind == Region::LLSCBlock || re.kind == Region::PlainBlock)) {
      const std::optional<Pred>& p = re.premise;
      if (!p) continue;
      // e's own block condition must be p (LL-SC side) or !p (local side).
      bool e_is_llsc = re.kind == Region::LLSCBlock;
      if (e_is_llsc && re.cond != *p) continue;
      if (!e_is_llsc && re.cond != analysis::negate(*p)) continue;
      Region::Kind want = e_is_llsc ? Region::PlainBlock : Region::LLSCBlock;
      Pred want_cond = e_is_llsc ? analysis::negate(*p) : *p;
      for (const Region& rf : ctx_f.regions) {
        if (rf.kind == want && rf.cond == want_cond && ctx_f.member(rf, f) &&
            may_alias(prog_, re.svar, rf.svar)) {
          if (why != nullptr) *why = "5.5";
          return true;
        }
      }
    }
  }
  return false;
}

Atomicity InferEngine::step4(const VariantCtx& ctx, EventId e,
                             Step4Info* info, Work& work) const {
  // Poll the budget once per classified event so deadlines trip promptly.
  if (opts_.variant_opts.budget != nullptr)
    opts_.variant_opts.budget->check("mover classification");
  const Event& ev = ctx.pa->cfg().node(e);
  bool conflict_before = false, conflict_after = false;

  auto note_conflict = [&](const VariantCtx& w, EventId f) {
    if (info != nullptr && info->witness_ctx == nullptr) {
      info->witness_ctx = &w;
      info->witness = f;
    }
  };
  auto note_exclusion = [&](const char* why, const VariantCtx& w, EventId f) {
    if (info == nullptr || why == nullptr) return;
    if (why[2] == '1') info->excl |= 1;
    else if (why[2] == '4') info->excl |= 2;
    else info->excl |= 4;
    if (info->excl_ctx == nullptr) {
      info->excl_ctx = &w;
      info->excl_witness = f;
      info->excl_theorem = why;
    }
  };

  // The index hands out only candidates in ev's alias bucket, in
  // (variant, event) order, so the first witness and the exclusions seen
  // before the early exit are those of a scan over every global action.
  action_index_.for_each_candidate(prog_, ev.path, [&](uint32_t a) {
    ++work.candidates;
    const VariantCtx& w = vctx_[actions_[a].ctx];
    const EventId f = actions_[a].ev;
    const Event& fe = node(actions_[a]);
    // A read conflicts with writes; a write conflicts with reads+writes.
    bool is_conflict = write_like(fe) || (write_like(ev) && read_like(fe));
    if (!is_conflict) return true;
    if (!may_alias(prog_, ev.path, fe.path)) {
      ++work.rejected;
      return true;
    }
    if (info != nullptr) info->had_conflict = true;
    if (!conflict_before) {
      const char* why = nullptr;
      if (!excluded(ctx, e, w, f, /*before=*/true, &why, work)) {
        conflict_before = true;
        note_conflict(w, f);
      } else {
        note_exclusion(why, w, f);
      }
    }
    if (!conflict_after) {
      const char* why = nullptr;
      if (!excluded(ctx, e, w, f, /*before=*/false, &why, work)) {
        conflict_after = true;
        note_conflict(w, f);
      } else {
        note_exclusion(why, w, f);
      }
    }
    return !(conflict_before && conflict_after);
  });
  if (conflict_before && conflict_after) return Atomicity::A;
  if (!conflict_before && !conflict_after) return Atomicity::B;
  if (!conflict_before) return Atomicity::L;  // nothing can be right before it
  return Atomicity::R;                        // nothing can be right after it
}

void InferEngine::set_witness(obs::ProvenanceRecord* r, const VariantCtx* wctx,
                              EventId f) const {
  if (r == nullptr || wctx == nullptr || !f.valid()) return;
  const Event& fe = wctx->pa->cfg().node(f);
  r->witness = event_text(prog_, fe) + " in " + variant_name(*wctx);
  SourceLoc loc = event_loc(prog_, fe);
  r->witness_line = loc.line;
  r->witness_column = loc.column;
}

namespace {

/// "5.1+5.5" for the exclusion bitset of Step4Info::excl.
std::string excl_theorems(uint8_t excl) {
  std::string out;
  if (excl & 1) out += "5.1";
  if (excl & 2) out += out.empty() ? "5.4" : "+5.4";
  if (excl & 4) out += out.empty() ? "5.5" : "+5.5";
  return out;
}

}  // namespace

Atomicity InferEngine::classify_event(
    const VariantCtx& ctx, EventId e,
    std::vector<obs::ProvenanceRecord>* prov, Work& work) const {
  const Event& ev = ctx.pa->cfg().node(e);
  // Views, so a run without provenance builds no strings.
  auto emit = [&](uint32_t step, std::string_view theorem, const char* rule,
                  Atomicity atom,
                  std::string_view detail) -> obs::ProvenanceRecord* {
    if (prov == nullptr) return nullptr;
    obs::ProvenanceRecord r;
    r.step = step;
    r.theorem = theorem;
    r.rule = rule;
    r.subject = event_text(prog_, ev);
    SourceLoc loc = event_loc(prog_, ev);
    r.line = loc.line;
    r.column = loc.column;
    r.atom = std::string(to_string(atom));
    r.detail = detail;
    prov->push_back(std::move(r));
    return &prov->back();
  };

  switch (ev.kind) {
    case EventKind::New:
      emit(1, "", "allocation", Atomicity::B,
           "fresh allocation performs no shared access");
      return Atomicity::B;
    case EventKind::Assume:
      emit(1, "", "assumption", Atomicity::B,
           "assumption performs no shared access");
      return Atomicity::B;
    case EventKind::Acquire:
      emit(1, "3.2", "acquire", Atomicity::R,
           "lock acquire is a right-mover (Theorem 3.2)");
      return Atomicity::R;
    case EventKind::Release:
      emit(1, "3.2", "release", Atomicity::L,
           "lock release is a left-mover (Theorem 3.2)");
      return Atomicity::L;
    default:
      break;
  }

  // Step 1: local actions (Theorem 3.1).
  if (ctx.pa->is_local_action(e)) {
    emit(1, "3.1", "local-action", Atomicity::B,
         "access to an unshared or unescaped location is a both-mover "
         "(Theorem 3.1)");
    return Atomicity::B;
  }

  Atomicity result = Atomicity::A;  // step-5 default

  // Step 2: Theorem 5.3 (and the counted-CAS analogue). The firing rule is
  // remembered so the binding justification can be cited below.
  const char* s2_rule = nullptr;
  const char* s2_theorem = "5.3";
  const char* s2_detail = nullptr;
  Atomicity s2_atom = Atomicity::A;
  switch (ev.kind) {
    case EventKind::SC:
      if (ev.must_succeed && all_updates_via(ev.path, EventKind::SC, work)) {
        result = meet(result, Atomicity::L);
        s2_rule = "sc-discipline";
        s2_atom = Atomicity::L;
        s2_detail =
            "successful SC under the SC-only update discipline is a "
            "left-mover (Theorem 5.3)";
      }
      break;
    case EventKind::VL:
      if (ev.must_succeed && all_updates_via(ev.path, EventKind::SC, work)) {
        result = meet(result, Atomicity::L);
        s2_rule = "vl-discipline";
        s2_atom = Atomicity::L;
        s2_detail =
            "successful VL under the SC-only update discipline is a "
            "left-mover (Theorem 5.3)";
      }
      break;
    case EventKind::CAS:
      if (ev.must_succeed && counted_cas(ev.path) &&
          all_updates_via(ev.path, EventKind::CAS, work)) {
        result = meet(result, Atomicity::L);
        s2_rule = "counted-cas-discipline";
        s2_atom = Atomicity::L;
        s2_detail =
            "successful CAS on a counted (ABA-protected) target is a "
            "left-mover (Theorem 5.3 analogue)";
      }
      break;
    case EventKind::LL: {
      // Matching LL of a successful SC/VL under the SC-only discipline.
      for (uint32_t i = 0; i < ctx.pa->cfg().num_nodes(); ++i) {
        EventId prim(i);
        const Event& pe = ctx.pa->cfg().node(prim);
        if ((pe.kind != EventKind::SC && pe.kind != EventKind::VL) ||
            !pe.must_succeed)
          continue;
        if (ctx.pa->matching().is_match(prim, e) &&
            all_updates_via(pe.path, EventKind::SC, work)) {
          result = meet(result, Atomicity::R);
          s2_rule = "matching-ll";
          s2_atom = Atomicity::R;
          s2_detail =
              "LL matched by a successful SC/VL under the SC-only update "
              "discipline is a right-mover (Theorem 5.3)";
          break;
        }
      }
      break;
    }
    case EventKind::Read: {
      // Matching read of a successful counted CAS.
      for (uint32_t i = 0; i < ctx.pa->cfg().num_nodes(); ++i) {
        EventId prim(i);
        const Event& pe = ctx.pa->cfg().node(prim);
        if (pe.kind != EventKind::CAS || !pe.must_succeed) continue;
        if (counted_cas(pe.path) && ctx.pa->matching().is_match(prim, e) &&
            all_updates_via(pe.path, EventKind::CAS, work)) {
          result = meet(result, Atomicity::R);
          s2_rule = "matching-read";
          s2_atom = Atomicity::R;
          s2_detail =
              "read matched by a successful counted CAS is a right-mover "
              "(Theorem 5.3 analogue)";
          break;
        }
      }
      break;
    }
    default:
      break;
  }

  // Step 4: Theorem 3.3 with the exclusion theorems. May-fail SC/CAS stay
  // at their step-2/step-5 value: their outcome does not commute past other
  // threads' successful SCs, so Theorem 3.3 does not apply to them.
  bool may_fail_primitive =
      (ev.kind == EventKind::SC || ev.kind == EventKind::CAS) &&
      !ev.must_succeed;
  if (may_fail_primitive) {
    emit(5, "", "may-fail-primitive", result,
         "SC/CAS that may fail does not commute past other threads' "
         "successful updates; Theorem 3.3 does not apply, so it defaults "
         "to atomic");
    return result;
  }

  Step4Info info;
  Atomicity s4 = step4(ctx, e, prov != nullptr ? &info : nullptr, work);
  Atomicity final_atom = meet(result, s4);

  if (prov != nullptr) {
    auto emit_step4 = [&]() {
      obs::ProvenanceRecord* r = nullptr;
      switch (s4) {
        case Atomicity::A:
          r = emit(4, "3.3", "conflict", Atomicity::A,
                   "a conflicting access from another thread can be "
                   "scheduled adjacent on both sides");
          set_witness(r, info.witness_ctx, info.witness);
          break;
        case Atomicity::B:
          if (!info.had_conflict) {
            emit(4, "3.3", "no-conflicts", Atomicity::B,
                 "no conflicting global access exists in any thread");
          } else {
            std::string thms = excl_theorems(info.excl);
            r = emit(4, thms, "all-excluded", Atomicity::B,
                     "every conflicting access is excluded from the "
                     "adjacent slots (Theorem " +
                         thms + ")");
            set_witness(r, info.excl_ctx, info.excl_witness);
          }
          break;
        case Atomicity::L: {
          std::string thms = excl_theorems(info.excl);
          std::string detail =
              "no conflicting access can be scheduled immediately before "
              "it";
          if (!thms.empty()) detail += " (exclusions: Theorem " + thms + ")";
          detail += "; one can follow";
          r = emit(4, thms.empty() ? "3.3" : thms, "no-conflict-before",
                   Atomicity::L, std::move(detail));
          set_witness(r, info.witness_ctx, info.witness);
          break;
        }
        case Atomicity::R: {
          std::string thms = excl_theorems(info.excl);
          std::string detail =
              "no conflicting access can be scheduled immediately after it";
          if (!thms.empty()) detail += " (exclusions: Theorem " + thms + ")";
          detail += "; one can precede";
          r = emit(4, thms.empty() ? "3.3" : thms, "no-conflict-after",
                   Atomicity::R, std::move(detail));
          set_witness(r, info.witness_ctx, info.witness);
          break;
        }
        case Atomicity::N:
          break;  // step4 never returns N
      }
    };
    if (s2_rule == nullptr) {
      emit_step4();
    } else if (final_atom == s2_atom) {
      emit(2, s2_theorem, s2_rule, s2_atom, s2_detail);
    } else if (final_atom == s4) {
      emit_step4();
    } else {
      // Incomparable L/R: the final class is the meet of both citations.
      emit(2, s2_theorem, s2_rule, s2_atom, s2_detail);
      emit_step4();
    }
  }

  return final_atom;
}

// ---------------------------------------------------------------------------
// Step 6: AST propagation

Atomicity InferEngine::seq_events_of(const StmtEvents& events,
                                     const VariantResult& res, synl::StmtId id,
                                     bool pre_release_only,
                                     bool release_only) const {
  const cfg::Cfg& cfg = res.pa->cfg();
  Atomicity acc = Atomicity::B;
  for (auto it = std::lower_bound(events.begin(), events.end(),
                                  std::pair<uint32_t, uint32_t>(id.idx, 0));
       it != events.end() && it->first == id.idx; ++it) {
    bool is_release = cfg.node(EventId(it->second)).kind == EventKind::Release;
    if (pre_release_only && is_release) continue;
    if (release_only && !is_release) continue;
    if (const std::optional<Atomicity>& a = res.event_atom[it->second])
      acc = seq(acc, *a);
  }
  return acc;
}

Atomicity InferEngine::stmt_atom(const StmtEvents& events,
                                 const VariantResult& res, synl::StmtId id,
                                 std::vector<StmtAtoms::Entry>& out) const {
  if (!id.valid()) return Atomicity::B;
  const Stmt& s = prog_.stmt(id);
  const Atomicity own = seq_events_of(events, res, id, false, false);
  Atomicity a = Atomicity::B;
  switch (s.kind) {
    case StmtKind::Assign:
    case StmtKind::ExprStmt:
    case StmtKind::Assume:
    case StmtKind::Assert:
    case StmtKind::Return:
    case StmtKind::Break:
    case StmtKind::Continue:
    case StmtKind::Skip:
      a = own;
      break;
    case StmtKind::Block:
      for (synl::StmtId child : prog_.children(s))
        a = seq(a, stmt_atom(events, res, child, out));
      break;
    case StmtKind::If: {
      Atomicity branches = join(stmt_atom(events, res, s.s1, out),
                                stmt_atom(events, res, s.s2, out));
      a = seq(own, branches);
      break;
    }
    case StmtKind::Local:
      a = seq(own, stmt_atom(events, res, s.s1, out));
      break;
    case StmtKind::Loop:
      a = iter(stmt_atom(events, res, s.s1, out));
      break;
    case StmtKind::Synchronized: {
      Atomicity pre = seq_events_of(events, res, id, /*pre_release_only=*/true,
                                    /*release_only=*/false);
      Atomicity post = seq_events_of(events, res, id, false,
                                     /*release_only=*/true);
      a = seq(seq(pre, stmt_atom(events, res, s.s1, out)), post);
      break;
    }
  }
  out.push_back({id, a, own});
  return a;
}

void InferEngine::propagate(const VariantCtx& ctx, VariantResult& out,
                            Work& work) const {
  obs::SpanScope span(obs::StageId::Movers);
  const cfg::Cfg& cfg = ctx.pa->cfg();
  std::vector<obs::ProvenanceRecord>* prov =
      opts_.provenance ? &out.prov : nullptr;
  out.event_atom.assign(cfg.num_nodes(), std::nullopt);
  StmtEvents events;
  events.reserve(cfg.num_nodes());
  for (uint32_t i = 0; i < cfg.num_nodes(); ++i) {
    if (opts_.variant_opts.budget != nullptr)
      opts_.variant_opts.budget->check("mover classification");
    EventId e(i);
    const Event& ev = cfg.node(e);
    if (!ev.is_action()) continue;
    out.event_atom[i] = classify_event(ctx, e, prov, work);
    events.emplace_back(ev.stmt.idx, i);
  }
  std::sort(events.begin(), events.end());
  const synl::StmtId body = prog_.proc(ctx.id).body;
  std::vector<StmtAtoms::Entry>& table = out.stmt_atom.entries_;
  size_t num_stmts = 0;
  synl::for_each_stmt(prog_, body, [&](synl::StmtId) { ++num_stmts; });
  table.reserve(num_stmts);
  out.atomicity = stmt_atom(events, out, body, table);
  std::sort(table.begin(), table.end(),
            [](const StmtAtoms::Entry& a, const StmtAtoms::Entry& b) {
              return a.stmt < b.stmt;
            });

  if (prov != nullptr) {
    // Step 6: the variant body's composition, and — when it breaks — the
    // first action whose non-mover class blocks the reduction.
    obs::ProvenanceRecord r;
    r.step = 6;
    r.rule = "body";
    r.subject = variant_name(ctx);
    r.line = prog_.proc(ctx.id).loc.line;
    r.column = prog_.proc(ctx.id).loc.column;
    r.atom = std::string(to_string(out.atomicity));
    r.detail = "variant body composes to " + r.atom + " under seq/join/iter";
    prov->push_back(std::move(r));
    if (!leq(out.atomicity, Atomicity::A)) {
      for (uint32_t i = 0; i < cfg.num_nodes(); ++i) {
        if (out.event_atom[i] != Atomicity::A) continue;
        const Event& ev = cfg.node(EventId(i));
        obs::ProvenanceRecord b;
        b.step = 6;
        b.rule = "blocking-action";
        b.subject = event_text(prog_, ev);
        SourceLoc loc = event_loc(prog_, ev);
        b.line = loc.line;
        b.column = loc.column;
        b.atom = "A";
        b.detail =
            "first atomic non-mover action; the sequential composition "
            "around it exceeds A";
        prov->push_back(std::move(b));
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------------

std::vector<obs::ProvenanceRecord> InferEngine::step0_provenance(
    ProcId pid, const std::vector<LoopVerdict>& loops,
    const VariantSet& vs) const {
  std::vector<obs::ProvenanceRecord> recs;
  for (const LoopVerdict& lv : loops) {
    uint32_t line = prog_.stmt(lv.loop).loc.line;
    uint32_t col = prog_.stmt(lv.loop).loc.column;
    if (lv.pure) {
      obs::ProvenanceRecord r;
      r.step = 0;
      r.theorem = "4.1";
      r.rule = "pure-loop";
      r.subject = "loop";
      r.line = line;
      r.column = col;
      r.detail =
          "pure loop: normally terminating iterations are deletable; "
          "exceptional paths become variant slices";
      recs.push_back(std::move(r));
    } else {
      for (const analysis::ImpureReason& ir : lv.reasons) {
        obs::ProvenanceRecord r;
        r.step = 0;
        r.rule = "impure-" + ir.condition;
        r.subject = "loop";
        r.line = line;
        r.column = col;
        r.detail =
            "purity condition (" + ir.condition + ") violated: " +
            ir.message(prog_) + "; the loop is kept whole";
        r.witness_line = ir.line;
        recs.push_back(std::move(r));
      }
    }
  }
  if (vs.bailed_out) {
    obs::ProvenanceRecord r;
    r.step = 0;
    r.rule = "path-budget";
    r.subject =
        std::string(prog_.syms().name(prog_.proc(pid).name));
    r.line = prog_.proc(pid).loc.line;
    r.column = prog_.proc(pid).loc.column;
    r.detail =
        "path enumeration exceeded the cap; using a single "
        "unspecialized clone";
    recs.push_back(std::move(r));
  }
  obs::ProvenanceRecord r;
  r.step = 0;
  r.rule = "variants";
  r.subject = std::string(prog_.syms().name(prog_.proc(pid).name));
  r.line = prog_.proc(pid).loc.line;
  r.column = prog_.proc(pid).loc.column;
  r.detail = std::to_string(vs.variants.size()) +
             " exceptional variant(s) enter the conflict universe";
  recs.push_back(std::move(r));
  return recs;
}

InferEngine::InferEngine(Program& prog, DiagEngine& diags,
                         const InferOptions& opts, ThreadPool* pool)
    : prog_(prog), opts_(opts), counted_(prog, opts.counted_cas) {
  obs::SpanScope span(obs::StageId::Infer);
  const size_t num_original = prog_.num_procs();
  ExecBudget* budget = opts_.variant_opts.budget;

  // Step 0. The originals' loop verdicts only read `prog`. Generation
  // appends to `prog`, so it starts after all of them and runs serially,
  // in procedure order.
  std::vector<std::vector<LoopVerdict>> loops(num_original);
  for_each_index(pool, num_original, [&](size_t i) {
    if (budget != nullptr) budget->check("variant expansion");
    ProcId pid(static_cast<uint32_t>(i));
    loops[i] = loop_verdicts(prog_, pid);
  });
  procs_.resize(num_original);
  std::vector<ProcId> variants;
  for (size_t i = 0; i < num_original; ++i) {
    ProcId pid(static_cast<uint32_t>(i));
    ProcEntry& entry = procs_[i];
    entry.vs =
        generate_variants(prog_, pid, loops[i], diags, opts_.variant_opts);
    if (opts_.provenance)
      entry.step0 = step0_provenance(pid, loops[i], entry.vs);
    entry.first_ctx = variants.size();
    variants.insert(variants.end(), entry.vs.variants.begin(),
                    entry.vs.variants.end());
  }

  // Contexts for every variant (the cross-variant conflict universe), each
  // into its own slot.
  vctx_.resize(variants.size());
  for_each_index(pool, variants.size(), [&](size_t c) {
    if (budget != nullptr) budget->check("variant expansion");
    vctx_[c] = make_variant_ctx(variants[c]);
  });
  Work work;
  build_index(work);
  work.flush();
}

ProcResult InferEngine::classify(ProcId proc) const {
  obs::SpanScope span(obs::StageId::Infer);
  const ProcEntry& entry = procs_.at(proc.idx);
  const std::string name(prog_.syms().name(prog_.proc(proc).name));
  if (entry.vs.budget_tripped) {
    throw BudgetExceeded(
        "max-variants",
        "procedure '" + name +
            "' exceeded the exceptional-variant budget (max " +
            std::to_string(opts_.variant_opts.max_variants) + ")");
  }

  // Steps 1-6 per variant; step 7 over the procedure.
  ProcResult pr;
  pr.proc = proc;
  pr.bailed_out = entry.vs.bailed_out;
  pr.no_variants = entry.vs.variants.empty();
  pr.prov = entry.step0;
  Atomicity overall = Atomicity::B;
  Work work;
  for (size_t k = 0; k < entry.vs.variants.size(); ++k) {
    const VariantCtx& ctx = vctx_[entry.first_ctx + k];
    VariantResult vr;
    vr.variant = ctx.id;
    vr.pa = ctx.pa;
    propagate(ctx, vr, work);
    overall = join(overall, vr.atomicity);
    pr.variants.push_back(std::move(vr));
  }
  work.flush();
  pr.atomicity = overall;
  pr.atomic = leq(overall, Atomicity::A);
  if (opts_.provenance) {
    const synl::ProcInfo& info = prog_.proc(proc);
    if (pr.no_variants) {
      obs::ProvenanceRecord r;
      r.step = 0;
      r.theorem = "4.1";
      r.rule = "no-variants";
      r.subject = name;
      r.line = info.loc.line;
      r.column = info.loc.column;
      r.detail =
          "no exceptional variants: the procedure never completes "
          "normally, so it is trivially atomic";
      pr.prov.push_back(std::move(r));
    }
    obs::ProvenanceRecord r;
    r.step = 7;
    r.rule = "verdict";
    r.subject = name;
    r.line = info.loc.line;
    r.column = info.loc.column;
    r.atom = std::string(to_string(overall));
    if (pr.atomic) {
      r.detail = "every variant body is atomic (<= A)";
    } else {
      for (const VariantResult& vr : pr.variants) {
        if (leq(vr.atomicity, Atomicity::A)) continue;
        r.detail = "variant " + prog_.proc(vr.variant).variant_tag +
                   " composes to " + std::string(to_string(vr.atomicity));
        break;
      }
    }
    pr.prov.push_back(std::move(r));
    // The records are now part of a reported result: account for them.
    // Done here (not at creation) so the totals count classified
    // procedures only, however many the universe holds.
    obs::count_provenance(pr.prov);
    for (const VariantResult& vr : pr.variants)
      obs::count_provenance(vr.prov);
  }
  return pr;
}

const StmtAtoms::Entry* StmtAtoms::find(StmtId id) const {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), id,
      [](const Entry& e, StmtId key) { return e.stmt < key; });
  return it != entries_.end() && it->stmt == id ? &*it : nullptr;
}

// ---------------------------------------------------------------------------
// Listings (Figure 3 style)

namespace {

struct Lister {
  const Program& prog;
  const VariantResult& v;
  std::string out;
  char prefix;
  int line = 1;

  Atomicity head_atom(synl::StmtId id) const {
    // The atomicity of the statement's own actions (for structured
    // statements), which for leaves is the whole statement.
    const StmtAtoms::Entry* e = v.stmt_atom.find(id);
    return e == nullptr ? Atomicity::B : e->own;
  }

  void emit(synl::StmtId id, int indent) {
    const Stmt& s = prog.stmt(id);
    if (s.kind == StmtKind::Block) {
      for (synl::StmtId c : prog.children(s)) emit(c, indent);
      return;
    }
    if (s.kind == StmtKind::Skip) return;
    out += prefix + std::to_string(line++) + ":";
    out += to_string(head_atom(id));
    out += ' ';
    out.append(static_cast<size_t>(indent) * 2, ' ');
    out += synl::stmt_head(prog, id);
    out += '\n';
    switch (s.kind) {
      case StmtKind::Local:
      case StmtKind::Loop:
      case StmtKind::Synchronized:
        emit(s.s1, indent + 1);
        break;
      case StmtKind::If:
        emit(s.s1, indent + 1);
        if (s.s2.valid()) {
          out += "     ";
          out.append(static_cast<size_t>(indent) * 2, ' ');
          out += "else\n";
          emit(s.s2, indent + 1);
        }
        break;
      default:
        break;
    }
  }
};

}  // namespace

std::string AtomicityResult::listing(const Program& prog,
                                     const VariantResult& v) const {
  Lister lister{prog, v, {}, 'a', 1};
  std::string head = "// variant ";
  head += prog.proc(v.variant).variant_tag.empty()
              ? std::string(prog.syms().name(prog.proc(v.variant).name))
              : prog.proc(v.variant).variant_tag;
  head += " : ";
  head += to_string(v.atomicity);
  head += '\n';
  lister.emit(prog.proc(v.variant).body, 0);
  return head + lister.out;
}

std::string AtomicityResult::full_listing(const Program& prog) const {
  std::string out;
  for (const ProcResult& pr : procs_) {
    out += "proc ";
    out += prog.syms().name(prog.proc(pr.proc).name);
    out += " : ";
    out += pr.atomic ? "atomic" : "NOT atomic";
    out += " (";
    out += to_string(pr.atomicity);
    out += ")\n";
    for (const VariantResult& v : pr.variants) {
      out += listing(prog, v);
    }
    out += '\n';
  }
  return out;
}

ConflictUniverse::ConflictUniverse(Program& prog, DiagEngine& diags,
                                   const InferOptions& opts, ThreadPool* pool)
    : engine_(std::make_unique<InferEngine>(prog, diags, opts, pool)) {}

ConflictUniverse::~ConflictUniverse() = default;

size_t ConflictUniverse::num_procs() const { return engine_->num_procs(); }

ProcResult ConflictUniverse::classify(ProcId proc) const {
  return engine_->classify(proc);
}

uint64_t ConflictUniverse::fingerprint() const { return engine_->fingerprint(); }

AtomicityResult infer_atomicity(Program& prog, DiagEngine& diags,
                                const InferOptions& opts) {
  ConflictUniverse universe(prog, diags, opts);
  AtomicityResult result;
  for (size_t i = 0; i < universe.num_procs(); ++i)
    result.procs_.push_back(universe.classify(ProcId(static_cast<uint32_t>(i))));
  return result;
}

// ---------------------------------------------------------------------------
// Content/interference fingerprints

namespace {

/// Encodes exactly what `may_alias` (expr_util.cpp) can observe about an
/// access path: an invalid root aliases everything; plain variables alias
/// only the same declaration (program-level vars are identified by
/// kind+name; proc-level vars never alias across procedures, so kind+name
/// is faithful for cross-context queries); selector paths compare the final
/// selector only — field symbol plus holder type for fields, element type
/// for indices. `type_str` is injective on type structure, so hashing it
/// preserves `types_definitely_differ`.
void mix_path_sig(Hasher& h, const Program& prog, const AccessPath& path) {
  if (!path.root.valid()) {
    h.mix("p?");
    return;
  }
  if (path.is_plain_var()) {
    const synl::VarInfo& v = prog.var(path.root);
    h.mix("pv");
    h.mix(static_cast<uint64_t>(v.kind));
    h.mix(prog.syms().name(v.name));
    return;
  }
  const cfg::Selector& sel = path.sels.back();
  if (sel.kind == cfg::Selector::Field) {
    h.mix("pf");
    h.mix(sel.field.valid() ? prog.syms().name(sel.field)
                            : std::string_view("?"));
    h.mix(prog.type_str(analysis::path_prefix_type(prog, path)));
  } else {
    h.mix("pi");
    h.mix(prog.type_str(analysis::path_type(prog, path)));
  }
}

/// Declarations the alias analysis can consult: classes with their typed
/// fields, program-level variables with their kinds and types.
void mix_decls(Hasher& h, const Program& prog) {
  h.mix(static_cast<uint64_t>(prog.num_classes()));
  for (size_t i = 0; i < prog.num_classes(); ++i) {
    const synl::ClassInfo& c = prog.cls(synl::ClassId(static_cast<uint32_t>(i)));
    h.mix(prog.syms().name(c.name));
    h.mix(static_cast<uint64_t>(c.defined));
    h.mix(static_cast<uint64_t>(c.fields.size()));
    for (const synl::FieldInfo& f : c.fields) {
      h.mix(prog.syms().name(f.name));
      h.mix(prog.type_str(f.type));
    }
  }
  auto mix_vars = [&](const std::vector<synl::VarId>& ids) {
    h.mix(static_cast<uint64_t>(ids.size()));
    for (synl::VarId id : ids) {
      const synl::VarInfo& v = prog.var(id);
      h.mix(prog.syms().name(v.name));
      h.mix(static_cast<uint64_t>(v.kind));
      h.mix(prog.type_str(v.type));
    }
  };
  mix_vars(prog.globals());
  mix_vars(prog.threadlocals());
}

/// Statement source layout, pre-order. Reports render statement line
/// numbers (proc headers, per-line listings, variant assumptions inherit
/// statement locs), so layout is part of a result's identity. Expression
/// locations are only rendered by provenance records, and provenance runs
/// never use content keys.
void mix_stmt_locs(Hasher& h, const Program& prog, synl::StmtId id) {
  if (!id.valid()) return;
  const Stmt& s = prog.stmt(id);
  h.mix(static_cast<uint64_t>(s.loc.line));
  h.mix(static_cast<uint64_t>(s.loc.column));
  if (s.s1.valid()) mix_stmt_locs(h, prog, s.s1);
  if (s.s2.valid()) mix_stmt_locs(h, prog, s.s2);
  for (synl::StmtId c : prog.children(s)) mix_stmt_locs(h, prog, c);
}

}  // namespace

void InferEngine::mix_variant_signature(Hasher& h, const VariantCtx& ctx) const {
  h.mix("variant");
  h.mix(static_cast<uint64_t>(ctx.regions.size()));
  for (const Region& r : ctx.regions) {
    h.mix("region");
    h.mix(static_cast<uint64_t>(r.kind));
    mix_path_sig(h, prog_, r.svar);
    h.mix(static_cast<uint64_t>(r.cond));
  }
  // Global-action events in EventId order: everything the step-4 conflict
  // scan, all_updates_via and llsc_premise read from this context — event
  // kind, path alias class, held lock set, region membership. Local
  // actions are invisible across contexts and stay out of the signature.
  const cfg::Cfg& cfg = ctx.pa->cfg();
  for (uint32_t i = 0; i < cfg.num_nodes(); ++i) {
    EventId e(i);
    if (!is_global_action(ctx, e)) continue;
    const Event& ev = cfg.node(e);
    h.mix("event");
    h.mix(static_cast<uint64_t>(ev.kind));
    mix_path_sig(h, prog_, ev.path);
    const std::span<const AccessPath> held = ctx.locks.held(e);
    h.mix(static_cast<uint64_t>(held.size()));
    for (const AccessPath& l : held) mix_path_sig(h, prog_, l);
    for (size_t ri = 0; ri < ctx.regions.size(); ++ri)
      if (ctx.member(ctx.regions[ri], e)) h.mix(static_cast<uint64_t>(ri));
    h.mix("end");
  }
}

uint64_t InferEngine::fingerprint() const {
  Hasher h;
  mix_decls(h, prog_);
  Hasher u;
  for (const ProcEntry& entry : procs_) {
    u.mix("proc");
    u.mix(prog_.syms().name(prog_.proc(entry.vs.original).name));
    u.mix(static_cast<uint64_t>(entry.vs.variants.size()));
    for (size_t k = 0; k < entry.vs.variants.size(); ++k)
      mix_variant_signature(u, vctx_[entry.first_ctx + k]);
  }
  h.mix(u.value());
  return h.value();
}

uint64_t content_fingerprint(const Program& prog, ProcId proc) {
  return content_fingerprint(prog, proc, synl::print_proc(prog, proc));
}

uint64_t content_fingerprint(const Program& prog, ProcId proc,
                             std::string_view printed) {
  const synl::ProcInfo& pi = prog.proc(proc);
  Hasher h;
  h.mix(printed);
  h.mix(static_cast<uint64_t>(pi.loc.line));
  h.mix(static_cast<uint64_t>(pi.loc.column));
  mix_stmt_locs(h, prog, pi.body);
  return h.value();
}

ProgramFingerprint fingerprint_program(const Program& prog,
                                       const InferOptions& opts) {
  ProgramFingerprint fp;
  const size_t n = prog.num_procs();

  // Per-procedure content from the caller's program, so original source
  // locations are captured; one print serves it and the reparse.
  synl::ProgramText text;
  synl::print_program(prog, text);
  fp.content.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    ProcId pid(static_cast<uint32_t>(i));
    const synl::ProcInfo& pi = prog.proc(pid);
    if (pi.broken || pi.variant_of.valid()) return fp;  // incomplete
    fp.content.push_back(content_fingerprint(prog, pid, text.proc(i)));
  }

  // Interference universe, built on a private reparse: variant generation
  // appends procedures to (and re-runs sema over) its Program, and the
  // caller's must stay untouched. Printing is a fixpoint, so the reparse
  // is semantically identical to `prog` up to source locations — which the
  // signature never reads.
  DiagEngine diags;
  synl::FrontEnd fe = synl::parse_and_recover(text.text, diags);
  if (diags.has_errors() || !fe.contained || fe.prog.num_procs() != n)
    return fp;
  InferOptions fopts = opts;
  fopts.provenance = false;
  try {
    fp.universe = ConflictUniverse(fe.prog, diags, fopts).fingerprint();
  } catch (const BudgetExceeded&) {
    return fp;  // incomplete: caller falls back to whole-program keys
  }
  fp.complete = true;
  return fp;
}

}  // namespace synat::atomicity
