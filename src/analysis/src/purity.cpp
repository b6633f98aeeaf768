#include "synat/analysis/purity.h"

#include "synat/cfg/liveness.h"
#include "synat/obs/trace.h"
#include "synat/synl/printer.h"

namespace synat::analysis {

using cfg::Edge;
using cfg::EdgeKind;
using cfg::Event;
using cfg::EventKind;
using synl::ExprKind;
using synl::StmtKind;

std::string ImpureReason::message(const Program& prog) const {
  return std::string(cause) + " at " + path.str(prog) + " (" +
         std::string(to_string(kind)) + ", line " + std::to_string(line) + ")";
}

PurityAnalysis::PurityAnalysis(const Program& prog, const Cfg& cfg,
                               const MatchingAnalysis& matching,
                               const EscapeAnalysis& escape,
                               const UniqueAnalysis& unique)
    : prog_(prog), cfg_(cfg), matching_(matching), escape_(escape),
      unique_(unique), sc_as_read_(cfg.num_nodes()) {
  obs::SpanScope span(obs::StageId::Purity);
  results_.reserve(cfg.loops().size());
  for (const cfg::LoopInfo& info : cfg.loops())
    results_.push_back(analyze_loop(info));
}

namespace {

/// The analysis's per-loop buffers, reused by every loop on this thread.
struct PurityScratch {
  std::vector<uint8_t> member;  ///< 1 for the loop's members
  cfg::NodeSet s1, s2, normal;
  std::vector<uint8_t> seen;
  std::vector<EventId> work;
  std::vector<ImpureReason> reasons;
};
thread_local PurityScratch purity_scratch;

/// True branch? False branch? Finds the success-edge kind for an SC/CAS
/// that is (possibly negated) the condition of its `if` statement; returns
/// false if the pattern does not apply.
bool success_edge_kind(const Program& prog, const Cfg& cfg, EventId e,
                       EventId& branch_out, EdgeKind& kind_out) {
  const Event& ev = cfg.node(e);
  if (!ev.stmt.valid() || prog.stmt(ev.stmt).kind != StmtKind::If) return false;
  synl::ExprId cond = prog.stmt(ev.stmt).e1;
  bool negated = false;
  while (cond.valid() && prog.expr(cond).kind == ExprKind::Unary &&
         prog.expr(cond).un_op == synl::UnOp::Not) {
    negated = !negated;
    cond = prog.expr(cond).a;
  }
  if (cond != ev.expr) return false;
  // The branch node directly follows the last event of the condition.
  if (cfg.succs(e).size() != 1) return false;
  EventId b = cfg.succs(e)[0].to;
  const Event& bev = cfg.node(b);
  if (bev.kind != EventKind::Join || bev.stmt != ev.stmt) return false;
  branch_out = b;
  kind_out = negated ? EdgeKind::False : EdgeKind::True;
  return true;
}

}  // namespace

LoopPurity PurityAnalysis::analyze_loop(const cfg::LoopInfo& info) {
  PurityScratch& s = purity_scratch;
  const size_t n_nodes = cfg_.num_nodes();
  LoopPurity result;
  result.loop = info.stmt;
  s.reasons.clear();

  s.member.assign(n_nodes, 0);
  for (EventId m : info.members) s.member[m.idx] = 1;
  auto within = [&](EventId n) { return s.member[n.idx] != 0; };

  // S1: reachable from the loop head staying inside the loop.
  s.s1.reset(n_nodes);
  cfg_.reach(info.head, within, s.s1, s.work);
  // S2: can reach a normal-termination point (a back-edge source of this
  // loop) staying inside the loop.
  s.s2.reset(n_nodes);
  for (EventId src : info.back_sources)
    cfg_.reach_back(src, within, s.s2, s.work);

  // Action events that can occur in a normally terminating iteration.
  s.normal.reset(n_nodes);
  for (EventId n : s.s1) {
    if (s.s2.contains(n) && cfg_.node(n).is_action()) s.normal.insert(n);
  }

  // Pre-compute SC/CAS-as-read for primitives in the normal set.
  for (EventId n : s.normal) {
    const Event& ev = cfg_.node(n);
    if (ev.kind != EventKind::SC && ev.kind != EventKind::CAS) continue;
    if (ev.must_succeed) continue;
    EventId branch;
    EdgeKind success;
    if (!success_edge_kind(prog_, cfg_, n, branch, success)) continue;
    bool success_in_normal = false;
    for (const Edge& e : cfg_.succs(branch)) {
      if (e.kind != success) continue;
      if (s.s2.contains(e.to)) success_in_normal = true;
    }
    if (!success_in_normal) sc_as_read_.insert(n);
  }

  auto impure = [&](EventId n, const char* condition, std::string_view why) {
    const Event& ev = cfg_.node(n);
    ImpureReason r;
    r.condition = condition;
    r.cause = why;
    r.kind = ev.kind;
    r.path = ev.path;
    r.line = ev.stmt.valid() ? prog_.stmt(ev.stmt).loc.line : 0;
    s.reasons.push_back(std::move(r));
  };

  // Reasons in ascending EventId order, which is evaluation order.
  for (EventId n : s.normal) {
    const Event& ev = cfg_.node(n);
    switch (ev.kind) {
      case EventKind::Read:
      case EventKind::VL:
      case EventKind::New:
      case EventKind::Acquire:   // matched pairs: deletable per Theorem 4.1
      case EventKind::Release:
      case EventKind::Assume:
        break;
      case EventKind::LL: {
        // Condition (iii): all matching SCs in the loop, LL on every path.
        for (EventId sc : matching_.matched_by(n)) {
          if (!within(sc)) {
            impure(n, "iii", "LL matched by an SC outside the loop");
            continue;
          }
          // BFS from the head, not expanding past LL(path) nodes; if the SC
          // is reached, some path to it lacks the LL.
          s.seen.assign(n_nodes, 0);
          s.work.assign(1, info.head);
          s.seen[info.head.idx] = 1;
          bool ll_free_path = false;
          while (!s.work.empty() && !ll_free_path) {
            EventId cur = s.work.back();
            s.work.pop_back();
            const Event& cev = cfg_.node(cur);
            if (cur != info.head && cev.kind == EventKind::LL &&
                cev.path == ev.path)
              continue;  // barrier
            if (cur == sc) {
              ll_free_path = true;
              break;
            }
            for (const Edge& e : cfg_.succs(cur)) {
              if (within(e.to) && !s.seen[e.to.idx]) {
                s.seen[e.to.idx] = 1;
                s.work.push_back(e.to);
              }
            }
          }
          if (ll_free_path)
            impure(n, "iii", "matching SC reachable without re-executing the LL");
        }
        break;
      }
      case EventKind::Write: {
        if (!is_local_action(prog_, cfg_, escape_, unique_, n)) {
          impure(n, "i", "global write in a normally terminating iteration");
          break;
        }
        if (cfg::live_after(prog_, cfg_, info.head, ev.path)) {
          impure(n, "ii", "local update live at the end of the loop body");
        }
        break;
      }
      case EventKind::SC:
      case EventKind::CAS: {
        if (sc_as_read_.contains(n)) break;  // success branch never normal
        if (is_local_action(prog_, cfg_, escape_, unique_, n)) {
          // SC/CAS on an unshared location behaves like a conditional local
          // write; require deadness like any other local update.
          if (cfg::live_after(prog_, cfg_, info.head, ev.path))
            impure(n, "ii",
                   "local SC/CAS update live at the end of the loop body");
          break;
        }
        impure(n, "i", "SC/CAS update in a normally terminating iteration");
        break;
      }
      default:
        break;
    }
  }

  result.reasons.assign(s.reasons.begin(), s.reasons.end());
  result.pure = result.reasons.empty();
  return result;
}

}  // namespace synat::analysis
