#include "synat/analysis/matching.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "synat/analysis/expr_util.h"

namespace synat::analysis {

using cfg::Edge;
using cfg::Event;
using cfg::EventKind;
using synl::ExprKind;
using synl::Stmt;
using synl::StmtKind;

namespace {

/// A primitive's result while the analysis is built: its matches are
/// scratch.matches[begin, end).
struct Pending {
  EventId primitive;
  uint32_t begin = 0;
  uint32_t end = 0;
  bool complete = true;
};

constexpr uint8_t kVisited = 1;
constexpr uint8_t kMatched = 2;

/// The analysis's buffers, reused by every construction on this thread:
/// the results before they are copied out at their exact size, and the
/// one mark buffer and work stack every backward search uses.
struct MatchScratch {
  std::vector<Pending> pending;
  std::vector<EventId> matches;
  std::vector<std::pair<EventId, EventId>> inverse;
  std::vector<uint8_t> mark;  ///< kVisited | kMatched per node
  std::vector<EventId> work;
};
thread_local MatchScratch match_scratch;

/// One backward search from `start`: resets the marks and seeds the work
/// stack with start's predecessors.
void start_search(const Cfg& cfg, EventId start, MatchScratch& s) {
  s.mark.assign(cfg.num_nodes(), 0);
  s.work.clear();
  for (const Edge& e : cfg.preds(start)) {
    if (!(s.mark[e.to.idx] & kVisited)) {
      s.mark[e.to.idx] |= kVisited;
      s.work.push_back(e.to);
    }
  }
}

void push_preds(const Cfg& cfg, EventId n, MatchScratch& s) {
  for (const Edge& e : cfg.preds(n)) {
    if (!(s.mark[e.to.idx] & kVisited)) {
      s.mark[e.to.idx] |= kVisited;
      s.work.push_back(e.to);
    }
  }
}

/// Appends `m` to the pending result's matches unless it is there.
void add_match(EventId m, Pending& p, MatchScratch& s) {
  if (s.mark[m.idx] & kMatched) return;
  s.mark[m.idx] |= kMatched;
  s.matches.push_back(m);
  ++p.end;
}

void match_ll(const Cfg& cfg, EventId start, MatchScratch& s) {
  const cfg::AccessPath& path = cfg.node(start).path;
  Pending p;
  p.primitive = start;
  p.begin = p.end = static_cast<uint32_t>(s.matches.size());
  start_search(cfg, start, s);
  while (!s.work.empty()) {
    EventId n = s.work.back();
    s.work.pop_back();
    const Event& ev = cfg.node(n);
    if (ev.kind == EventKind::LL && ev.path == path) {
      add_match(n, p, s);
      continue;  // do not go past the matching LL
    }
    if (n == cfg.entry()) {
      p.complete = false;  // a path from entry reaches the SC/VL with no LL
      continue;
    }
    push_preds(cfg, n, s);
  }
  s.pending.push_back(p);
}

void match_read(const Program& prog, const Cfg& cfg, EventId cas,
                MatchScratch& s) {
  const Event& cas_ev = cfg.node(cas);
  const synl::Expr& e = prog.expr(cas_ev.expr);
  Pending p;
  p.primitive = cas;
  p.begin = p.end = static_cast<uint32_t>(s.matches.size());

  // The expected value must be a variable whose defining reads we can find.
  if (!e.b.valid() || prog.expr(e.b).kind != ExprKind::VarRef) {
    p.complete = false;
    s.pending.push_back(p);
    return;
  }
  synl::VarId x = prog.expr(e.b).var;
  const cfg::AccessPath& target = cas_ev.path;

  start_search(cfg, cas, s);
  while (!s.work.empty()) {
    EventId n = s.work.back();
    s.work.pop_back();
    const Event& ev = cfg.node(n);
    if (ev.kind == EventKind::Write && ev.path.is_plain_var() &&
        ev.path.root == x) {
      // Is this write saving a read of the CAS target? (`x := v`)
      const Stmt& st = prog.stmt(ev.stmt);
      synl::ExprId rhs = st.kind == StmtKind::Assign ? st.e2 : st.e1;
      if (rhs.valid() && reads_exactly(prog, rhs, target)) {
        // The matching read action is the Read(v) event of this statement,
        // which immediately precedes the write in the event chain.
        EventId read_ev;
        for (const Edge& pe : cfg.preds(n)) {
          const Event& pev = cfg.node(pe.to);
          if (pev.kind == EventKind::Read && pev.stmt == ev.stmt &&
              pev.path == target) {
            read_ev = pe.to;
            break;
          }
        }
        if (read_ev.valid()) {
          add_match(read_ev, p, s);
        } else {
          p.complete = false;
        }
      } else {
        // x was overwritten with something else: no matching read on this
        // path.
        p.complete = false;
      }
      continue;  // definition of x found; stop this path
    }
    if (n == cfg.entry()) {
      p.complete = false;
      continue;
    }
    push_preds(cfg, n, s);
  }
  s.pending.push_back(p);
}

}  // namespace

MatchingAnalysis::MatchingAnalysis(const Program& prog, const Cfg& cfg) {
  MatchScratch& s = match_scratch;
  s.pending.clear();
  s.matches.clear();
  for (uint32_t i = 0; i < cfg.num_nodes(); ++i) {
    EventId id(i);
    switch (cfg.node(id).kind) {
      case EventKind::SC:
      case EventKind::VL:
        match_ll(cfg, id, s);
        break;
      case EventKind::CAS:
        match_read(prog, cfg, id, s);
        break;
      default:
        break;
    }
  }
  if (s.pending.empty()) return;

  matches_.assign(s.matches.begin(), s.matches.end());
  entries_.resize(s.pending.size());
  s.inverse.clear();
  for (size_t k = 0; k < s.pending.size(); ++k) {
    const Pending& p = s.pending[k];
    entries_[k].primitive = p.primitive;
    entries_[k].info.matches = {matches_.data() + p.begin, p.end - p.begin};
    entries_[k].info.complete = p.complete;
    for (uint32_t m = p.begin; m < p.end; ++m)
      s.inverse.emplace_back(matches_[m], p.primitive);
  }
  std::sort(s.inverse.begin(), s.inverse.end());
  inverse_lls_.resize(s.inverse.size());
  inverse_prims_.resize(s.inverse.size());
  for (size_t k = 0; k < s.inverse.size(); ++k) {
    inverse_lls_[k] = s.inverse[k].first;
    inverse_prims_[k] = s.inverse[k].second;
  }
}

const MatchInfo* MatchingAnalysis::info(EventId e) const {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), e,
      [](const Entry& entry, EventId key) { return entry.primitive < key; });
  return it != entries_.end() && it->primitive == e ? &it->info : nullptr;
}

std::span<const EventId> MatchingAnalysis::matched_by(EventId ll) const {
  auto [lo, hi] =
      std::equal_range(inverse_lls_.begin(), inverse_lls_.end(), ll);
  const size_t first = static_cast<size_t>(lo - inverse_lls_.begin());
  return {inverse_prims_.data() + first, static_cast<size_t>(hi - lo)};
}

}  // namespace synat::analysis
