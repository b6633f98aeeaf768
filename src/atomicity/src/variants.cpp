#include "synat/atomicity/variants.h"

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

class VariantGen {
 public:
  VariantGen(Program& prog, ProcId proc,
             const std::vector<LoopVerdict>& loops, DiagEngine& diags,
             const VariantOptions& opts)
      : prog_(prog), proc_(proc), loops_(loops), diags_(diags), opts_(opts) {}

  std::vector<StmtId> run(StmtId body, bool& bailed) {
    std::vector<Path> paths = enumerate(body);
    bailed = bailed_;
    std::vector<StmtId> out;
    for (const Path& p : paths) out.push_back(ensure_stmt(p.stmt));
    return out;
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

  /// Exits a kept (unsliced) statement can take, by scanning its subtree.
  std::vector<Exit> kept_exits(StmtId id, StmtId this_loop) {
    bool has_break_self = false, has_return = false;
    std::vector<Exit> outer;
    synl::for_each_stmt(prog_, id, [&](StmtId sid) {
      const Stmt& s = prog_.stmt(sid);
      if (s.kind == StmtKind::Return) has_return = true;
      if (s.kind == StmtKind::Break || s.kind == StmtKind::Continue) {
        if (s.jump_target == this_loop) {
          if (s.kind == StmtKind::Break) has_break_self = true;
          // continue-to-self stays inside the loop
        } else if (s.jump_target.valid()) {
          // Jump past this loop to an enclosing one — only if the target is
          // NOT nested inside `id` itself.
          bool internal = false;
          synl::for_each_stmt(prog_, id, [&](StmtId t) {
            if (t == s.jump_target) internal = true;
          });
          if (!internal) {
            Exit e;
            e.kind = s.kind == StmtKind::Break ? Exit::Break : Exit::Continue;
            e.target = s.jump_target;
            outer.push_back(e);
          }
        }
      }
    });
    std::vector<Exit> exits;
    if (has_break_self) exits.push_back({Exit::Normal, {}});
    if (has_return) exits.push_back({Exit::Return, {}});
    for (const Exit& e : outer) exits.push_back(e);
    if (exits.empty()) exits.push_back({Exit::Return, {}});  // never completes
    return exits;
  }

  std::vector<Path> enumerate(StmtId id) {
    if (opts_.budget != nullptr) opts_.budget->check("variant enumeration");
    if (!id.valid()) return {{StmtId(), {Exit::Normal, {}}}};
    const Stmt s = prog_.stmt(id);  // copy: the arena may grow below
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
          return {{prog_.add_stmt(std::move(assume)), {Exit::Normal, {}}}};
        }
        return {{cloner_.clone(id), {Exit::Normal, {}}}};
      }
      case StmtKind::Assign:
      case StmtKind::Skip:
      case StmtKind::Assume:
      case StmtKind::Assert:
        return {{cloner_.clone(id), {Exit::Normal, {}}}};
      case StmtKind::Return:
        return {{cloner_.clone(id), {Exit::Return, {}}}};
      // Jump statements perform no action; the exit annotation carries all
      // the information, so the slice omits the statement itself.
      case StmtKind::Break:
        return {{StmtId(), {Exit::Break, s.jump_target}}};
      case StmtKind::Continue:
        return {{StmtId(), {Exit::Continue, s.jump_target}}};
      case StmtKind::Block: {
        std::vector<Path> acc{{StmtId(), {Exit::Normal, {}}}};
        for (uint32_t i = 0; i < s.stmts.count; ++i) {
          const StmtId child = prog_.children(s)[i];  // re-read: clones append
          std::vector<Path> next;
          for (const Path& prefix : acc) {
            if (prefix.exit.kind != Exit::Normal) {
              next.push_back(prefix);
              continue;
            }
            bool first_extension = true;
            for (const Path& cp : enumerate(child)) {
              if (next.size() >= opts_.max_paths) break;
              // Each path needs its own copy of the shared prefix: variants
              // are re-resolved independently, so no statement tree may be
              // shared between two of them.
              StmtId prefix_stmt = first_extension
                                       ? prefix.stmt
                                       : cloner_.clone(prefix.stmt);
              first_extension = false;
              next.push_back({seq2(prefix_stmt, cp.stmt, s.loc), cp.exit});
            }
          }
          if (next.size() >= opts_.max_paths) {
            note_explosion();
            std::vector<Path> bail;
            StmtId whole = cloner_.clone(id);
            bail.push_back({whole, {Exit::Normal, {}}});
            return bail;
          }
          acc = std::move(next);
        }
        return acc;
      }
      case StmtKind::If: {
        std::vector<Path> out;
        for (const Path& p : enumerate(s.s1)) {
          StmtId guard = make_assume(s.e1, /*negated=*/false, s.loc);
          out.push_back({seq2(guard, p.stmt, s.loc), p.exit});
        }
        // An absent else branch is an empty normal path.
        std::vector<Path> else_paths =
            s.s2.valid() ? enumerate(s.s2)
                         : std::vector<Path>{{StmtId(), {Exit::Normal, {}}}};
        for (const Path& p : else_paths) {
          StmtId guard = make_assume(s.e1, /*negated=*/true, s.loc);
          out.push_back({seq2(guard, p.stmt, s.loc), p.exit});
        }
        return out;
      }
      case StmtKind::Local: {
        std::vector<Path> out;
        for (const Path& p : enumerate(s.s1)) {
          Stmt local;
          local.kind = StmtKind::Local;
          local.loc = s.loc;
          local.name = s.name;
          local.declared_type = s.declared_type;
          local.e1 = cloner_.clone(s.e1);
          local.s1 = ensure_stmt(p.stmt);
          out.push_back({prog_.add_stmt(std::move(local)), p.exit});
        }
        return out;
      }
      case StmtKind::Synchronized: {
        std::vector<Path> out;
        for (const Path& p : enumerate(s.s1)) {
          Stmt sync;
          sync.kind = StmtKind::Synchronized;
          sync.loc = s.loc;
          sync.e1 = cloner_.clone(s.e1);
          sync.s1 = ensure_stmt(p.stmt);
          out.push_back({prog_.add_stmt(std::move(sync)), p.exit});
        }
        return out;
      }
      case StmtKind::Loop: {
        bool pure = !opts_.disable && is_pure(id);
        if (!pure) {
          // Kept whole; one clone per possible exit so block sequencing can
          // continue after a break or stop at a return.
          std::vector<Path> out;
          for (const Exit& e : kept_exits(id, id)) {
            out.push_back({cloner_.clone(id), e});
          }
          return out;
        }
        std::vector<Path> out;
        for (const Path& p : enumerate(s.s1)) {
          switch (p.exit.kind) {
            case Exit::Normal:
              break;  // normal termination: deleted (Theorem 4.1)
            case Exit::Continue:
              if (p.exit.target == id) break;  // normal termination
              out.push_back(p);                // leaves this loop outward
              break;
            case Exit::Break:
              if (p.exit.target == id) {
                out.push_back({p.stmt, {Exit::Normal, {}}});
              } else {
                out.push_back(p);
              }
              break;
            case Exit::Return:
              out.push_back(p);
              break;
          }
        }
        // Jumps to this (now removed) loop surviving inside kept inner
        // loops can never fire in an exceptional iteration.
        for (Path& p : out) kill_jumps_to(p.stmt, id);
        return out;
      }
    }
    return {};
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
  const analysis::PurityAnalysis purity(prog, cfg, *matching, *escape,
                                        *unique);
  std::vector<LoopVerdict> out;
  for (const cfg::LoopInfo& li : cfg.loops()) {
    if (const analysis::LoopPurity* lp = purity.result(li.stmt))
      out.push_back({li.stmt, lp->pure, lp->reasons});
  }
  return out;
}

VariantSet generate_variants(Program& prog, ProcId proc,
                             const std::vector<LoopVerdict>& loops,
                             DiagEngine& diags, const VariantOptions& opts) {
  obs::SpanScope span(obs::StageId::Variants);
  VariantSet out;
  out.original = proc;

  VariantGen gen(prog, proc, loops, diags, opts);
  bool bailed = false;
  std::vector<StmtId> bodies = gen.run(prog.proc(proc).body, bailed);
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
