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

}  // namespace

EscapeAnalysis::EscapeAnalysis(const Program& prog, const Cfg& cfg)
    : prog_(prog), cfg_(cfg) {
  const synl::ProcInfo& p = prog.proc(cfg.proc());
  auto consider = [&](VarId v) {
    if (prog.is_ref_like(prog.var(v).type)) analyze_var(v);
  };
  for (VarId v : p.params) consider(v);
  for (VarId v : p.locals) consider(v);
  for (VarId v : prog.threadlocals()) consider(v);
}

bool EscapeAnalysis::is_fresh_var(VarId v) const {
  auto it = fresh_.find(v);
  return it != fresh_.end() && it->second;
}

bool EscapeAnalysis::unescaped_at(EventId e, VarId v) const {
  if (!is_fresh_var(v)) return false;
  auto it = escaped_after_.find(v);
  if (it == escaped_after_.end()) return false;
  return !it->second[e.idx];
}

void EscapeAnalysis::analyze_var(VarId v) {
  // Freshness: every write of the plain variable stores a `new`.
  bool fresh = false;
  bool saw_nonfresh_def = false;
  std::vector<EventId> leaks;

  for (uint32_t i = 0; i < cfg_.num_nodes(); ++i) {
    EventId id(i);
    const Event& ev = cfg_.node(id);
    switch (ev.kind) {
      case EventKind::Write: {
        const Stmt& s = prog_.stmt(ev.stmt);
        if (ev.path.is_plain_var() && ev.path.root == v) {
          synl::ExprId rhs = write_rhs(s);
          if (rhs.valid() && prog_.expr(rhs).kind == synl::ExprKind::New) {
            fresh = true;
          } else {
            saw_nonfresh_def = true;
          }
        } else {
          // Writing v's value somewhere else leaks it — including into a
          // local copy (the copy could escape later; we do not track it).
          synl::ExprId rhs = write_rhs(s);
          if (rhs.valid() && mentions_as_value(prog_, rhs, v)) leaks.push_back(id);
        }
        break;
      }
      case EventKind::SC: {
        const synl::Expr& e = prog_.expr(ev.expr);
        if (mentions_as_value(prog_, e.b, v)) leaks.push_back(id);
        break;
      }
      case EventKind::CAS: {
        const synl::Expr& e = prog_.expr(ev.expr);
        if (mentions_as_value(prog_, e.b, v) || mentions_as_value(prog_, e.c, v))
          leaks.push_back(id);
        break;
      }
      case EventKind::Read: {
        // Returning v leaks it to the environment.
        if (!ev.is_base && ev.path.is_plain_var() && ev.path.root == v &&
            ev.stmt.valid() &&
            prog_.stmt(ev.stmt).kind == StmtKind::Return) {
          leaks.push_back(id);
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
  if (prog_.var(v).kind != VarKind::Local) fresh = false;

  fresh_[v] = fresh && !saw_nonfresh_def;
  if (!fresh_[v]) return;

  // Escaped set: forward closure from the successors of each leak. SC/CAS
  // leaks only publish on success, so only their success continuations are
  // seeded (a failed SC in a retry loop does not shared-ify the object).
  std::vector<bool> escaped(cfg_.num_nodes(), false);
  std::vector<EventId> work;
  for (EventId l : leaks) {
    const Event& lev = cfg_.node(l);
    std::vector<EventId> seeds;
    if (lev.kind == EventKind::SC || lev.kind == EventKind::CAS) {
      seeds = post_success_edges(prog_, cfg_, l);
    } else {
      for (const cfg::Edge& e : cfg_.succs(l)) seeds.push_back(e.to);
    }
    for (EventId s : seeds) {
      if (!escaped[s.idx]) {
        escaped[s.idx] = true;
        work.push_back(s);
      }
    }
  }
  while (!work.empty()) {
    EventId n = work.back();
    work.pop_back();
    for (const cfg::Edge& e : cfg_.succs(n)) {
      if (!escaped[e.to.idx]) {
        escaped[e.to.idx] = true;
        work.push_back(e.to);
      }
    }
  }
  escaped_after_[v] = std::move(escaped);
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
