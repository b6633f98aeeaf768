#include "synat/atomicity/variants.h"

#include <algorithm>
#include <optional>
#include <string>

#include "synat/obs/metrics.h"
#include "synat/obs/trace.h"
#include "synat/synl/sema.h"

namespace synat::atomicity {

using synl::Expr;
using synl::ExprId;
using synl::ExprKind;
using synl::Stmt;
using synl::StmtId;
using synl::StmtKind;

namespace {

/// How a path through a statement leaves it.
struct Exit {
  enum Kind : uint8_t {
    Normal,   ///< falls through to the next statement
    Return,   ///< leaves the procedure (or never completes)
    Break,    ///< `break` targeting `target`
    Continue, ///< `continue` targeting `target`
  } kind = Normal;
  StmtId target;  ///< original Loop id for Break/Continue
};

struct Path {
  StmtId stmt;  ///< specialized clone (invalid = empty path)
  Exit exit;
};

/// VariantGen's buffers. Generation runs on the program's thread, one
/// procedure at a time; each thread reuses its own buffers, so each keeps
/// the capacity of the largest procedure it served.
struct GenScratch {
  /// The paths of the statements being enumerated, innermost on top: a
  /// statement enumerated when the buffer holds `base` paths leaves its
  /// own at [base, size()).
  std::vector<Path> paths;
  std::vector<Exit> exits;          ///< kept_exits' result
  std::vector<Exit> jumps;          ///< kept_exits' jumps to other loops
  std::vector<StmtId> inner_loops;  ///< kept_exits' loops in the subtree
  std::vector<StmtId> bodies;       ///< run's result
};
thread_local GenScratch gen_scratch;

class VariantGen {
 public:
  VariantGen(Program& prog, ProcId proc,
             const std::vector<LoopVerdict>& loops, DiagEngine& diags,
             const VariantOptions& opts, GenScratch& scratch)
      : prog_(prog), proc_(proc), loops_(loops), diags_(diags), opts_(opts),
        s_(scratch) {}

  /// The variant bodies, in order, in the scratch buffer.
  std::vector<StmtId>& run(StmtId body, bool& bailed) {
    s_.paths.clear();
    enumerate(body);
    bailed = bailed_;
    s_.bodies.clear();
    for (const Path& p : s_.paths) s_.bodies.push_back(ensure_stmt(p.stmt));
    return s_.bodies;
  }

  /// Unspecialized whole-procedure clone, for budget fallbacks.
  StmtId clone_whole(StmtId body) { return cloner_.clone(body); }

 private:
  // -- node construction ---------------------------------------------------

  StmtId make_skip() {
    Stmt s;
    s.kind = StmtKind::Skip;
    return prog_.add_stmt(std::move(s));
  }

  /// Builds TRUE(cond) / TRUE(!cond), simplifying `!!e`, `!(a == b)` and
  /// `!(a != b)` so the emitted variants read like the paper's figures.
  StmtId make_assume(ExprId cond, bool negated, SourceLoc loc) {
    // Fold negation into the expression where cheap.
    ExprId src = cond;
    while (negated && src.valid() &&
           prog_.expr(src).kind == ExprKind::Unary &&
           prog_.expr(src).un_op == synl::UnOp::Not) {
      src = prog_.expr(src).a;
      negated = false;
    }
    ExprId e = cloner_.clone(src);
    if (negated && prog_.expr(e).kind == ExprKind::Binary) {
      Expr& b = prog_.expr(e);
      if (b.bin_op == synl::BinOp::Eq) {
        b.bin_op = synl::BinOp::Ne;
        negated = false;
      } else if (b.bin_op == synl::BinOp::Ne) {
        b.bin_op = synl::BinOp::Eq;
        negated = false;
      }
    }
    if (negated) {
      Expr n;
      n.kind = ExprKind::Unary;
      n.un_op = synl::UnOp::Not;
      n.loc = loc;
      n.a = e;
      e = prog_.add_expr(std::move(n));
    }
    Stmt s;
    s.kind = StmtKind::Assume;
    s.loc = loc;
    s.e1 = e;
    return prog_.add_stmt(std::move(s));
  }

  /// Jumps targeting the sliced loop that survive inside kept inner loops
  /// lie on branches that never execute in the exceptional iteration;
  /// replace them with the dead-end statement TRUE(false).
  void kill_jumps_to(StmtId id, StmtId loop) {
    if (!id.valid()) return;
    const Stmt s = prog_.stmt(id);  // copy: the arena may grow below
    if ((s.kind == StmtKind::Break || s.kind == StmtKind::Continue) &&
        s.jump_target == loop) {
      Expr f;
      f.kind = ExprKind::BoolLit;
      f.bool_value = false;
      f.loc = s.loc;
      ExprId fe = prog_.add_expr(std::move(f));
      Stmt& s2 = prog_.stmt(id);  // re-fetch: add_expr may move the arena
      s2.kind = StmtKind::Assume;
      s2.e1 = fe;
      s2.label = synat::Symbol();
      return;
    }
    kill_jumps_to(s.s1, loop);
    kill_jumps_to(s.s2, loop);
    for (uint32_t i = 0; i < s.stmts.count; ++i)
      kill_jumps_to(prog_.children(s)[i], loop);
  }

  StmtId ensure_stmt(StmtId maybe) { return maybe.valid() ? maybe : make_skip(); }

  /// Sequences two path fragments.
  StmtId seq2(StmtId a, StmtId b, SourceLoc loc) {
    if (!a.valid()) return b;
    if (!b.valid()) return a;
    const StmtId stmts[] = {a, b};
    Stmt s;
    s.kind = StmtKind::Block;
    s.loc = loc;
    s.stmts = prog_.add_children(stmts);
    return prog_.add_stmt(s);
  }

  // -- path enumeration -----------------------------------------------------

  void note_explosion() {
    if (!bailed_) {
      bailed_ = true;
      diags_.warning(prog_.proc(proc_).loc,
                     "exceptional-variant generation exceeded " +
                         std::to_string(opts_.max_paths) +
                         " paths; falling back to an unspecialized clone");
    }
  }

  /// Exits a kept (unsliced) statement can take, into s_.exits, from one
  /// walk of its subtree. A jump leaves `id` unless its target loop is
  /// inside it; sema points every jump at a loop, so the walk notes the
  /// subtree's loops and its jumps to loops other than `this_loop`, and
  /// then keeps the jumps whose target is not among those loops.
  void kept_exits(StmtId id, StmtId this_loop) {
    bool has_break_self = false, has_return = false;
    s_.inner_loops.clear();
    s_.jumps.clear();
    synl::for_each_stmt(prog_, id, [&](StmtId sid) {
      const Stmt& s = prog_.stmt(sid);
      if (s.kind == StmtKind::Loop) s_.inner_loops.push_back(sid);
      if (s.kind == StmtKind::Return) has_return = true;
      if (s.kind == StmtKind::Break || s.kind == StmtKind::Continue) {
        if (s.jump_target == this_loop) {
          if (s.kind == StmtKind::Break) has_break_self = true;
          // continue-to-self stays inside the loop
        } else if (s.jump_target.valid()) {
          s_.jumps.push_back(
              {s.kind == StmtKind::Break ? Exit::Break : Exit::Continue,
               s.jump_target});
        }
      }
    });
    s_.exits.clear();
    if (has_break_self) s_.exits.push_back({Exit::Normal, {}});
    if (has_return) s_.exits.push_back({Exit::Return, {}});
    for (const Exit& jump : s_.jumps) {
      // Jump past this loop to an enclosing one — only if the target is
      // NOT nested inside `id` itself.
      if (std::find(s_.inner_loops.begin(), s_.inner_loops.end(),
                    jump.target) == s_.inner_loops.end())
        s_.exits.push_back(jump);
    }
    if (s_.exits.empty())
      s_.exits.push_back({Exit::Return, {}});  // never completes
  }

  /// Appends the paths through `id` to s_.paths. The paths of a compound
  /// statement are built from its children's in place: a child enumerated
  /// above its parent's paths is rewritten into the parent's next paths.
  void enumerate(StmtId id) {
    if (opts_.budget != nullptr) opts_.budget->check("variant enumeration");
    std::vector<Path>& paths = s_.paths;
    if (!id.valid()) {
      paths.push_back({StmtId(), {Exit::Normal, {}}});
      return;
    }
    const Stmt s = prog_.stmt(id);  // copy: the arena may grow below
    const size_t base = paths.size();
    switch (s.kind) {
      case StmtKind::ExprStmt: {
        // A discarded-result SC/CAS that fails is a no-op transition, so
        // executions split into "it succeeded" (keep, as an assumption —
        // this is how the paper's Figure 3 renders UpdateTail's SC) and
        // "it was a no-op" (deletable like a pure iteration).
        synl::ExprKind k = prog_.expr(s.e1).kind;
        if (k == ExprKind::SC || k == ExprKind::CAS) {
          Stmt assume;
          assume.kind = StmtKind::Assume;
          assume.loc = s.loc;
          assume.e1 = cloner_.clone(s.e1);
          paths.push_back({prog_.add_stmt(std::move(assume)), {Exit::Normal, {}}});
          return;
        }
        paths.push_back({cloner_.clone(id), {Exit::Normal, {}}});
        return;
      }
      case StmtKind::Assign:
      case StmtKind::Skip:
      case StmtKind::Assume:
      case StmtKind::Assert:
        paths.push_back({cloner_.clone(id), {Exit::Normal, {}}});
        return;
      case StmtKind::Return:
        paths.push_back({cloner_.clone(id), {Exit::Return, {}}});
        return;
      // Jump statements perform no action; the exit annotation carries all
      // the information, so the slice omits the statement itself.
      case StmtKind::Break:
        paths.push_back({StmtId(), {Exit::Break, s.jump_target}});
        return;
      case StmtKind::Continue:
        paths.push_back({StmtId(), {Exit::Continue, s.jump_target}});
        return;
      case StmtKind::Block: {
        // The paths so far sit at [base, acc_end); extending them by the
        // next child builds the next paths above them, which then move
        // down to base.
        paths.push_back({StmtId(), {Exit::Normal, {}}});
        for (uint32_t i = 0; i < s.stmts.count; ++i) {
          const StmtId child = prog_.children(s)[i];  // re-read: clones append
          const size_t acc_end = paths.size();
          for (size_t a = base; a < acc_end; ++a) {
            const Path prefix = paths[a];  // copy: the buffer grows below
            if (prefix.exit.kind != Exit::Normal) {
              paths.push_back(prefix);
              continue;
            }
            const size_t child_begin = paths.size();
            enumerate(child);
            // Each child path is rewritten into one next path at or below
            // its own slot, until the next paths reach the cap.
            size_t next_end = child_begin;
            bool first_extension = true;
            for (size_t c = child_begin; c < paths.size(); ++c) {
              if (next_end - acc_end >= opts_.max_paths) break;
              const Path cp = paths[c];
              // Each path needs its own copy of the shared prefix: variants
              // are re-resolved independently, so no statement tree may be
              // shared between two of them.
              StmtId prefix_stmt = first_extension
                                       ? prefix.stmt
                                       : cloner_.clone(prefix.stmt);
              first_extension = false;
              paths[next_end++] = {seq2(prefix_stmt, cp.stmt, s.loc), cp.exit};
            }
            paths.resize(next_end);
          }
          if (paths.size() - acc_end >= opts_.max_paths) {
            note_explosion();
            paths.resize(base);
            StmtId whole = cloner_.clone(id);
            paths.push_back({whole, {Exit::Normal, {}}});
            return;
          }
          paths.erase(paths.begin() + static_cast<long>(base),
                      paths.begin() + static_cast<long>(acc_end));
        }
        return;
      }
      case StmtKind::If: {
        enumerate(s.s1);
        for (size_t k = base; k < paths.size(); ++k) {
          const Path p = paths[k];
          StmtId guard = make_assume(s.e1, /*negated=*/false, s.loc);
          paths[k] = {seq2(guard, p.stmt, s.loc), p.exit};
        }
        // An absent else branch is an empty normal path.
        const size_t else_begin = paths.size();
        if (s.s2.valid()) {
          enumerate(s.s2);
        } else {
          paths.push_back({StmtId(), {Exit::Normal, {}}});
        }
        for (size_t k = else_begin; k < paths.size(); ++k) {
          const Path p = paths[k];
          StmtId guard = make_assume(s.e1, /*negated=*/true, s.loc);
          paths[k] = {seq2(guard, p.stmt, s.loc), p.exit};
        }
        return;
      }
      case StmtKind::Local: {
        enumerate(s.s1);
        for (size_t k = base; k < paths.size(); ++k) {
          const Path p = paths[k];
          Stmt local;
          local.kind = StmtKind::Local;
          local.loc = s.loc;
          local.name = s.name;
          local.declared_type = s.declared_type;
          local.e1 = cloner_.clone(s.e1);
          local.s1 = ensure_stmt(p.stmt);
          paths[k] = {prog_.add_stmt(std::move(local)), p.exit};
        }
        return;
      }
      case StmtKind::Synchronized: {
        enumerate(s.s1);
        for (size_t k = base; k < paths.size(); ++k) {
          const Path p = paths[k];
          Stmt sync;
          sync.kind = StmtKind::Synchronized;
          sync.loc = s.loc;
          sync.e1 = cloner_.clone(s.e1);
          sync.s1 = ensure_stmt(p.stmt);
          paths[k] = {prog_.add_stmt(std::move(sync)), p.exit};
        }
        return;
      }
      case StmtKind::Loop: {
        bool pure = !opts_.disable && is_pure(id);
        if (!pure) {
          // Kept whole; one clone per possible exit so block sequencing can
          // continue after a break or stop at a return.
          kept_exits(id, id);
          for (const Exit& e : s_.exits) paths.push_back({cloner_.clone(id), e});
          return;
        }
        enumerate(s.s1);
        size_t kept = base;
        for (size_t k = base; k < paths.size(); ++k) {
          Path p = paths[k];
          switch (p.exit.kind) {
            case Exit::Normal:
              continue;  // normal termination: deleted (Theorem 4.1)
            case Exit::Continue:
              if (p.exit.target == id) continue;  // normal termination
              break;                              // leaves this loop outward
            case Exit::Break:
              if (p.exit.target == id) p.exit = {Exit::Normal, {}};
              break;
            case Exit::Return:
              break;
          }
          paths[kept++] = p;
        }
        paths.resize(kept);
        // Jumps to this (now removed) loop surviving inside kept inner
        // loops can never fire in an exceptional iteration.
        for (size_t k = base; k < paths.size(); ++k)
          kill_jumps_to(paths[k].stmt, id);
        return;
      }
    }
  }

  bool is_pure(StmtId loop) const {
    for (const LoopVerdict& v : loops_)
      if (v.loop == loop) return v.pure;
    return false;
  }

  Program& prog_;
  ProcId proc_;
  const std::vector<LoopVerdict>& loops_;
  DiagEngine& diags_;
  const VariantOptions& opts_;
  GenScratch& s_;
  bool bailed_ = false;
  synl::TreeCloner cloner_{prog_};
};

}  // namespace

std::vector<LoopVerdict> loop_verdicts(const Program& prog, ProcId proc) {
  bool has_loop = false;
  synl::for_each_stmt(prog, prog.proc(proc).body, [&](StmtId sid) {
    if (prog.stmt(sid).kind == StmtKind::Loop) has_loop = true;
  });
  if (!has_loop) return {};

  const cfg::Cfg cfg = cfg::build_cfg(prog, proc);
  std::optional<analysis::EscapeAnalysis> escape;
  std::optional<analysis::UniqueAnalysis> unique;
  std::optional<analysis::MatchingAnalysis> matching;
  {
    obs::SpanScope span(obs::StageId::Dataflow);
    escape.emplace(prog, cfg);
    unique.emplace(prog, cfg);
    matching.emplace(prog, cfg);
  }
  // One verdict per loop of the CFG, in its loop order.
  return analysis::PurityAnalysis(prog, cfg, *matching, *escape, *unique)
      .take_results();
}

VariantSet generate_variants(Program& prog, ProcId proc,
                             const std::vector<LoopVerdict>& loops,
                             DiagEngine& diags, const VariantOptions& opts) {
  obs::SpanScope span(obs::StageId::Variants);
  VariantSet out;
  out.original = proc;

  VariantGen gen(prog, proc, loops, diags, opts, gen_scratch);
  bool bailed = false;
  std::vector<StmtId>& bodies = gen.run(prog.proc(proc).body, bailed);
  out.bailed_out = bailed;

  if (opts.max_variants != 0 && bodies.size() > opts.max_variants) {
    // Over budget: fall back to a single unspecialized clone, like the
    // max_paths bail above. The clone over-approximates every variant, so
    // other procedures still see a sound conflict universe.
    out.budget_tripped = true;
    diags.warning(prog.proc(proc).loc,
                  "procedure has " + std::to_string(bodies.size()) +
                      " exceptional variants, exceeding the budget of " +
                      std::to_string(opts.max_variants) +
                      "; falling back to an unspecialized clone");
    bodies.clear();
    bodies.push_back(gen.clone_whole(prog.proc(proc).body));
  }

  const std::string base(prog.syms().name(prog.proc(proc).name));
  out.variants.reserve(bodies.size());
  for (size_t i = 0; i < bodies.size(); ++i) {
    synl::ProcInfo info;
    std::string vname = base + "'" + std::to_string(i + 1);
    info.name = prog.syms().intern(vname);
    info.loc = prog.proc(proc).loc;
    info.body = bodies[i];
    info.variant_of = proc;
    info.variant_tag = vname;
    // Fresh parameter variables for the clone (sharing VarIds across
    // procedures would confuse per-procedure analyses).
    ProcId vid = prog.add_proc(std::move(info));
    std::vector<synl::VarId> params;
    params.reserve(prog.proc(proc).params.size());
    for (synl::VarId p : prog.proc(proc).params) {
      synl::VarInfo v = prog.var(p);
      v.proc = vid;
      params.push_back(prog.add_var(v));
    }
    prog.proc(vid).params = std::move(params);
    resolve_proc(prog, vid, diags);
    out.variants.push_back(vid);
  }
  static obs::Counter& variants_total =
      obs::registry().counter("synat_variants_generated_total");
  variants_total.inc(out.variants.size());
  return out;
}

}  // namespace synat::atomicity
