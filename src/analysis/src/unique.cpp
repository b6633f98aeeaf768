#include "synat/analysis/unique.h"

#include <algorithm>
#include <cstdint>

#include "synat/analysis/expr_util.h"

namespace synat::analysis {

using cfg::Edge;
using cfg::EdgeKind;
using cfg::Event;
using cfg::EventKind;
using synl::Expr;
using synl::ExprKind;
using synl::Stmt;
using synl::StmtKind;
using synl::VarKind;

namespace {

/// The analysis's buffers, reused by every construction on this thread.
struct UniqueScratch {
  std::vector<VarId> working;
  std::vector<EventId> publishes;
  std::vector<EventId> retirement_writes;
  std::vector<uint8_t> visited;
  std::vector<EventId> work;
};
thread_local UniqueScratch unique_scratch;

bool check_candidate(const Program& prog, const Cfg& cfg, VarId v,
                     UniqueScratch& s) {
  s.publishes.clear();
  s.retirement_writes.clear();  // filled by the forward check

  // Pass 1: classify every event involving v.
  for (uint32_t i = 0; i < cfg.num_nodes(); ++i) {
    EventId id(i);
    const Event& ev = cfg.node(id);
    switch (ev.kind) {
      case EventKind::SC:
      case EventKind::CAS: {
        const Expr& e = prog.expr(ev.expr);
        bool publishes_v = mentions_as_value(prog, e.b, v) ||
                           (ev.kind == EventKind::CAS &&
                            mentions_as_value(prog, e.c, v));
        if (!publishes_v) break;
        // Must publish into a global-rooted location (condition 1).
        if (!ev.path.root.valid() ||
            prog.var(ev.path.root).kind == VarKind::Local ||
            prog.var(ev.path.root).kind == VarKind::Param) {
          // Publishing into a location reached from a local pointer still
          // escapes to shared state (e.g. SC(t.Next, node)); that is a leak
          // without retirement, so v is not a working copy... unless the
          // target is itself provably unescaped, which we do not track
          // here.
          if (!ev.path.is_plain_var()) return false;
        }
        s.publishes.push_back(id);
        break;
      }
      case EventKind::Write: {
        if (ev.path.root == v && !ev.path.is_plain_var()) break;  // deref write: fine
        if (ev.path.root != v) {
          // v stored elsewhere by plain assignment: escapes without the
          // SC discipline.
          synl::ExprId rhs;
          const Stmt& st = prog.stmt(ev.stmt);
          if (st.kind == StmtKind::Assign) rhs = st.e2;
          if (st.kind == StmtKind::Local) rhs = st.e1;
          if (rhs.valid() && mentions_as_value(prog, rhs, v)) return false;
        }
        break;
      }
      case EventKind::Read: {
        // Returning v hands the reference to the environment.
        if (!ev.is_base && ev.path.is_plain_var() && ev.path.root == v &&
            ev.stmt.valid() && prog.stmt(ev.stmt).kind == StmtKind::Return)
          return false;
        break;
      }
      default:
        break;
    }
  }

  // Pass 2 (condition 2): after each publication's success, the first event
  // touching v on every path must be a plain write to v (the retirement).
  for (EventId pub : s.publishes) {
    s.visited.assign(cfg.num_nodes(), 0);
    post_success_edges(prog, cfg, pub, s.work);
    for (EventId n : s.work) s.visited[n.idx] = 1;
    while (!s.work.empty()) {
      EventId n = s.work.back();
      s.work.pop_back();
      const Event& ev = cfg.node(n);
      bool touches_v = ev.path.root == v;
      if (touches_v && ev.kind == EventKind::Write && ev.path.is_plain_var()) {
        s.retirement_writes.push_back(n);
        continue;  // retired; this path is fine
      }
      if (touches_v) return false;  // deref or value-read before retirement
      if (n == cfg.exit()) {
        // Reaching exit without retirement: for a thread-local, the
        // published (now shared) reference would still be in v at the next
        // call. Not a working copy.
        if (prog.var(v).kind == VarKind::ThreadLocal) return false;
        continue;
      }
      for (const Edge& e : cfg.succs(n)) {
        if (!s.visited[e.to.idx]) {
          s.visited[e.to.idx] = 1;
          s.work.push_back(e.to);
        }
      }
    }
  }

  // Pass 3 (condition 3): every non-`new` plain assignment to v is one of
  // the retirements discovered above (or a reset like `prv.version[g] := 0`
  // which is a deref write, not a plain assignment).
  for (uint32_t i = 0; i < cfg.num_nodes(); ++i) {
    EventId id(i);
    const Event& ev = cfg.node(id);
    if (ev.kind != EventKind::Write || !ev.path.is_plain_var() ||
        ev.path.root != v)
      continue;
    const Stmt& st = prog.stmt(ev.stmt);
    synl::ExprId rhs = st.kind == StmtKind::Assign ? st.e2 : st.e1;
    if (rhs.valid() && prog.expr(rhs).kind == ExprKind::New) continue;
    bool is_retirement = false;
    for (EventId r : s.retirement_writes)
      if (r == id) is_retirement = true;
    if (!is_retirement) return false;
  }

  return true;
}

}  // namespace

UniqueAnalysis::UniqueAnalysis(const Program& prog, const Cfg& cfg) {
  UniqueScratch& s = unique_scratch;
  s.working.clear();
  const synl::ProcInfo& p = prog.proc(cfg.proc());
  auto consider = [&](VarId v) {
    if (!prog.is_ref_like(prog.var(v).type)) return;
    if (check_candidate(prog, cfg, v, s)) s.working.push_back(v);
  };
  // Thread-locals are the canonical working copies; procedure locals
  // qualify too when they satisfy the same discipline.
  for (VarId v : prog.threadlocals()) consider(v);
  for (VarId v : p.locals) consider(v);
  if (s.working.empty()) return;
  std::sort(s.working.begin(), s.working.end());
  working_.assign(s.working.begin(), s.working.end());
}

}  // namespace synat::analysis
