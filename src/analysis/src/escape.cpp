#include "synat/analysis/escape.h"

#include "synat/analysis/expr_util.h"
#include "synat/analysis/unique.h"

namespace synat::analysis {

using cfg::Event;
using cfg::EventKind;
using synl::Stmt;
using synl::StmtKind;
using synl::VarKind;

namespace {

/// RHS expression of the write performed by a statement, if any.
synl::ExprId write_rhs(const Stmt& s) {
  switch (s.kind) {
    case StmtKind::Assign: return s.e2;
    case StmtKind::Local: return s.e1;
    default: return synl::ExprId();
  }
}

/// The analysis's buffers, reused by every construction on this thread.
struct EscapeScratch {
  std::vector<VarId> fresh;
  cfg::NodeRows escaped;
  std::vector<EventId> leaks;
  std::vector<EventId> seeds;
  std::vector<EventId> work;
};
thread_local EscapeScratch escape_scratch;

/// Whether `v` is fresh in `cfg`; if so, adds its row of escaped events to
/// `s.escaped` and appends it to `s.fresh`.
void analyze_var(const Program& prog, const Cfg& cfg, VarId v,
                 EscapeScratch& s) {
  // Freshness: every write of the plain variable stores a `new`.
  bool fresh = false;
  bool saw_nonfresh_def = false;
  s.leaks.clear();

  for (uint32_t i = 0; i < cfg.num_nodes(); ++i) {
    EventId id(i);
    const Event& ev = cfg.node(id);
    switch (ev.kind) {
      case EventKind::Write: {
        const Stmt& st = prog.stmt(ev.stmt);
        if (ev.path.is_plain_var() && ev.path.root == v) {
          synl::ExprId rhs = write_rhs(st);
          if (rhs.valid() && prog.expr(rhs).kind == synl::ExprKind::New) {
            fresh = true;
          } else {
            saw_nonfresh_def = true;
          }
        } else {
          // Writing v's value somewhere else leaks it — including into a
          // local copy (the copy could escape later; we do not track it).
          synl::ExprId rhs = write_rhs(st);
          if (rhs.valid() && mentions_as_value(prog, rhs, v))
            s.leaks.push_back(id);
        }
        break;
      }
      case EventKind::SC: {
        const synl::Expr& e = prog.expr(ev.expr);
        if (mentions_as_value(prog, e.b, v)) s.leaks.push_back(id);
        break;
      }
      case EventKind::CAS: {
        const synl::Expr& e = prog.expr(ev.expr);
        if (mentions_as_value(prog, e.b, v) || mentions_as_value(prog, e.c, v))
          s.leaks.push_back(id);
        break;
      }
      case EventKind::Read: {
        // Returning v leaks it to the environment.
        if (!ev.is_base && ev.path.is_plain_var() && ev.path.root == v &&
            ev.stmt.valid() &&
            prog.stmt(ev.stmt).kind == StmtKind::Return) {
          s.leaks.push_back(id);
        }
        break;
      }
      default:
        break;
    }
  }

  // Parameters and threadlocals start with unknown contents, so they are
  // only fresh if reassigned before use; we keep it simple and require
  // locals (whose declaration initializes them).
  if (prog.var(v).kind != VarKind::Local) fresh = false;
  if (!fresh || saw_nonfresh_def) return;

  // Escaped set: forward closure from the successors of each leak. SC/CAS
  // leaks only publish on success, so only their success continuations are
  // seeded (a failed SC in a retry loop does not shared-ify the object).
  const uint32_t row = s.escaped.add_rows(1);
  s.fresh.push_back(v);
  s.work.clear();
  for (EventId l : s.leaks) {
    const Event& lev = cfg.node(l);
    if (lev.kind == EventKind::SC || lev.kind == EventKind::CAS) {
      post_success_edges(prog, cfg, l, s.seeds);
    } else {
      s.seeds.clear();
      for (const cfg::Edge& e : cfg.succs(l)) s.seeds.push_back(e.to);
    }
    for (EventId seed : s.seeds)
      if (s.escaped.insert(row, seed)) s.work.push_back(seed);
  }
  while (!s.work.empty()) {
    EventId n = s.work.back();
    s.work.pop_back();
    for (const cfg::Edge& e : cfg.succs(n))
      if (s.escaped.insert(row, e.to)) s.work.push_back(e.to);
  }
}

}  // namespace

EscapeAnalysis::EscapeAnalysis(const Program& prog, const Cfg& cfg) {
  EscapeScratch& s = escape_scratch;
  s.fresh.clear();
  s.escaped.reset(cfg.num_nodes());
  const synl::ProcInfo& p = prog.proc(cfg.proc());
  auto consider = [&](VarId v) {
    if (prog.is_ref_like(prog.var(v).type)) analyze_var(prog, cfg, v, s);
  };
  for (VarId v : p.params) consider(v);
  for (VarId v : p.locals) consider(v);
  for (VarId v : prog.threadlocals()) consider(v);
  if (s.fresh.empty()) return;
  fresh_.assign(s.fresh.begin(), s.fresh.end());
  escaped_ = s.escaped;
}

int EscapeAnalysis::fresh_row(VarId v) const {
  for (size_t k = 0; k < fresh_.size(); ++k)
    if (fresh_[k] == v) return static_cast<int>(k);
  return -1;
}

bool EscapeAnalysis::unescaped_at(EventId e, VarId v) const {
  const int row = fresh_row(v);
  return row >= 0 && !escaped_.contains(static_cast<uint32_t>(row), e);
}

bool is_local_action(const Program& prog, const Cfg& cfg,
                     const EscapeAnalysis& escape,
                     const UniqueAnalysis& unique, EventId e) {
  const Event& ev = cfg.node(e);
  if (!ev.path.root.valid()) return false;
  VarKind k = prog.var(ev.path.root).kind;
  if (ev.path.is_plain_var()) {
    // Unshared variables: everything except globals.
    return k != VarKind::Global;
  }
  if (k == VarKind::Global) return false;  // dereference of a shared pointer
  // Dereference through a local pointer: local action iff the pointer is a
  // verified unique reference (working copy) or the object is a fresh,
  // not-yet-escaped allocation at this point.
  return unique.is_working_copy(ev.path.root) ||
         escape.unescaped_at(e, ev.path.root);
}

}  // namespace synat::analysis
