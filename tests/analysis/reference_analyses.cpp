#include "reference_analyses.h"

#include <algorithm>

#include "synat/analysis/expr_util.h"

namespace synat::analysis::reference {

using cfg::Edge;
using cfg::Event;
using cfg::EventKind;
using synl::Expr;
using synl::ExprKind;
using synl::Stmt;
using synl::StmtKind;
using synl::VarKind;

namespace {

/// Canonicalizes `e` as a null-ness predicate over `lvar`, or Pred::True.
Pred pred_of(const Program& prog, synl::ExprId id, VarId lvar) {
  if (!id.valid()) return Pred::True;
  const Expr& e = prog.expr(id);
  switch (e.kind) {
    case ExprKind::Unary:
      if (e.un_op == synl::UnOp::Not)
        return negate(pred_of(prog, e.a, lvar));
      return Pred::True;
    case ExprKind::Binary: {
      if (e.bin_op != synl::BinOp::Eq && e.bin_op != synl::BinOp::Ne)
        return Pred::True;
      auto is_lvar = [&](synl::ExprId x) {
        return x.valid() && prog.expr(x).kind == ExprKind::VarRef &&
               prog.expr(x).var == lvar;
      };
      auto is_null = [&](synl::ExprId x) {
        return x.valid() && prog.expr(x).kind == ExprKind::NullLit;
      };
      bool matches = (is_lvar(e.a) && is_null(e.b)) ||
                     (is_null(e.a) && is_lvar(e.b));
      if (!matches) return Pred::True;
      return e.bin_op == synl::BinOp::Eq ? Pred::EqNull : Pred::NeNull;
    }
    default:
      return Pred::True;
  }
}

/// RHS expression of the write performed by a statement, if any.
synl::ExprId write_rhs(const Stmt& s) {
  switch (s.kind) {
    case StmtKind::Assign: return s.e2;
    case StmtKind::Local: return s.e1;
    default: return synl::ExprId();
  }
}

}  // namespace

MatchingAnalysis::MatchingAnalysis(const Program& prog, const Cfg& cfg)
    : prog_(prog), cfg_(cfg) {
  for (uint32_t i = 0; i < cfg.num_nodes(); ++i) {
    EventId id(i);
    switch (cfg.node(id).kind) {
      case EventKind::SC:
      case EventKind::VL:
        match_ll(id);
        break;
      case EventKind::CAS:
        match_read(id);
        break;
      default:
        break;
    }
  }
}

std::vector<EventId> MatchingAnalysis::matched_by(EventId ll) const {
  std::vector<EventId> out;
  for (const auto& [prim, mi] : info_) {
    for (EventId m : mi.matches) {
      if (m == ll) {
        out.push_back(prim);
        break;
      }
    }
  }
  return out;
}

void MatchingAnalysis::match_ll(EventId start) {
  const cfg::AccessPath& path = cfg_.node(start).path;
  MatchInfo mi;
  mi.complete = true;

  std::vector<bool> visited(cfg_.num_nodes(), false);
  std::vector<EventId> work;
  auto push = [&](EventId n) {
    if (!visited[n.idx]) {
      visited[n.idx] = true;
      work.push_back(n);
    }
  };
  for (const Edge& e : cfg_.preds(start)) push(e.to);

  std::vector<bool> matched(cfg_.num_nodes(), false);
  while (!work.empty()) {
    EventId n = work.back();
    work.pop_back();
    const Event& ev = cfg_.node(n);
    if (ev.kind == EventKind::LL && ev.path == path) {
      if (!matched[n.idx]) {
        matched[n.idx] = true;
        mi.matches.push_back(n);
      }
      continue;  // do not go past the matching LL
    }
    if (n == cfg_.entry()) {
      mi.complete = false;  // a path from entry reaches the SC/VL with no LL
      continue;
    }
    for (const Edge& e : cfg_.preds(n)) push(e.to);
  }
  info_[start] = std::move(mi);
}

void MatchingAnalysis::match_read(EventId cas) {
  const Event& cas_ev = cfg_.node(cas);
  const synl::Expr& e = prog_.expr(cas_ev.expr);
  MatchInfo mi;
  mi.complete = true;

  // The expected value must be a variable whose defining reads we can find.
  if (!e.b.valid() || prog_.expr(e.b).kind != ExprKind::VarRef) {
    mi.complete = false;
    info_[cas] = std::move(mi);
    return;
  }
  synl::VarId x = prog_.expr(e.b).var;
  const cfg::AccessPath& target = cas_ev.path;

  std::vector<bool> visited(cfg_.num_nodes(), false);
  std::vector<EventId> work;
  auto push = [&](EventId n) {
    if (!visited[n.idx]) {
      visited[n.idx] = true;
      work.push_back(n);
    }
  };
  for (const Edge& edge : cfg_.preds(cas)) push(edge.to);

  std::vector<bool> matched(cfg_.num_nodes(), false);
  while (!work.empty()) {
    EventId n = work.back();
    work.pop_back();
    const Event& ev = cfg_.node(n);
    if (ev.kind == EventKind::Write && ev.path.is_plain_var() &&
        ev.path.root == x) {
      // Is this write saving a read of the CAS target? (`x := v`)
      const Stmt& s = prog_.stmt(ev.stmt);
      synl::ExprId rhs = s.kind == StmtKind::Assign ? s.e2 : s.e1;
      if (rhs.valid() && reads_exactly(prog_, rhs, target)) {
        // The matching read action is the Read(v) event of this statement,
        // which immediately precedes the write in the event chain.
        EventId read_ev;
        for (const Edge& p : cfg_.preds(n)) {
          const Event& pe = cfg_.node(p.to);
          if (pe.kind == EventKind::Read && pe.stmt == ev.stmt &&
              pe.path == target) {
            read_ev = p.to;
            break;
          }
        }
        if (read_ev.valid()) {
          if (!matched[read_ev.idx]) {
            matched[read_ev.idx] = true;
            mi.matches.push_back(read_ev);
          }
        } else {
          mi.complete = false;
        }
      } else {
        // x was overwritten with something else: no matching read on this
        // path.
        mi.complete = false;
      }
      continue;  // definition of x found; stop this path
    }
    if (n == cfg_.entry()) {
      mi.complete = false;
      continue;
    }
    for (const Edge& edge : cfg_.preds(n)) push(edge.to);
  }
  info_[cas] = std::move(mi);
}

LocalCondAnalysis::LocalCondAnalysis(const Program& prog, const Cfg& cfg)
    : prog_(prog) {
  std::vector<std::pair<uint32_t, uint32_t>> owner;
  walk(prog.proc(cfg.proc()).body, kNoBlock, owner);
  std::sort(owner.begin(), owner.end());

  // An event belongs to the block of its statement and to every block
  // enclosing that one; a successful SC on a block's svar marks it.
  for (uint32_t i = 0; i < cfg.num_nodes(); ++i) {
    const Event& ev = cfg.node(EventId(i));
    if (!ev.stmt.valid()) continue;
    auto it = std::lower_bound(owner.begin(), owner.end(),
                               std::make_pair(ev.stmt.idx, uint32_t{0}));
    if (it == owner.end() || it->first != ev.stmt.idx) continue;
    for (uint32_t b = it->second; b != kNoBlock; b = parent_[b]) {
      LocalBlock& block = blocks_[b];
      block.events.push_back(EventId(i));
      if (ev.kind == EventKind::SC && ev.must_succeed && block.reads_svar &&
          ev.path == block.svar)
        block.has_successful_sc = true;
    }
  }
}

void LocalCondAnalysis::walk(
    StmtId sid, uint32_t block,
    std::vector<std::pair<uint32_t, uint32_t>>& owner) {
  if (!sid.valid()) return;
  const Stmt& s = prog_.stmt(sid);
  if (s.kind == StmtKind::Local) {
    analyze_block(sid);
    parent_.push_back(block);
    block = static_cast<uint32_t>(blocks_.size() - 1);
  }
  if (block != kNoBlock) owner.emplace_back(sid.idx, block);
  walk(s.s1, block, owner);
  walk(s.s2, block, owner);
  for (StmtId child : prog_.children(s)) walk(child, block, owner);
}

void LocalCondAnalysis::analyze_block(StmtId local_stmt) {
  const Stmt& s = prog_.stmt(local_stmt);
  LocalBlock block;
  block.stmt = local_stmt;
  block.lvar = s.var;

  // Initializer shape: LL(loc) or a plain location read.
  const Expr& init = prog_.expr(s.e1);
  if (init.kind == ExprKind::LL) {
    block.svar = path_of_expr(prog_, init.a);
    block.reads_svar = block.svar.root.valid();
    block.init_is_ll = true;
  } else if (synl::is_location_kind(init.kind)) {
    block.svar = path_of_expr(prog_, s.e1);
    block.reads_svar = block.svar.root.valid();
  }

  // Walk the body: updates of lvar, conditions.
  synl::for_each_stmt(prog_, s.s1, [&](StmtId sid) {
    const Stmt& inner = prog_.stmt(sid);
    if (inner.kind == StmtKind::Assign) {
      AccessPath lhs = path_of_expr(prog_, inner.e1);
      if (lhs.is_plain_var() && lhs.root == block.lvar)
        block.lvar_updated = true;
    }
    if (inner.kind == StmtKind::Assume) {
      Pred p = pred_of(prog_, inner.e1, block.lvar);
      if (p != Pred::True) {
        // Conjoin; conflicting conditions on one path are dead code —
        // keep the first one found.
        if (block.cond == Pred::True) block.cond = p;
      }
    }
  });

  index_[local_stmt] = blocks_.size();
  blocks_.push_back(std::move(block));
}

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
      post_success_edges(prog_, cfg_, l, seeds);
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

UniqueAnalysis::UniqueAnalysis(const Program& prog, const Cfg& cfg)
    : prog_(prog), cfg_(cfg) {
  const synl::ProcInfo& p = prog.proc(cfg.proc());
  auto consider = [&](VarId v) {
    if (!prog.is_ref_like(prog.var(v).type)) return;
    if (check_candidate(v)) working_.insert(v);
  };
  // Thread-locals are the canonical working copies; procedure locals
  // qualify too when they satisfy the same discipline.
  for (VarId v : prog.threadlocals()) consider(v);
  for (VarId v : p.locals) consider(v);
}

bool UniqueAnalysis::check_candidate(VarId v) const {
  std::vector<EventId> publishes;
  std::vector<EventId> retirement_writes;  // filled by the forward check

  // Pass 1: classify every event involving v.
  for (uint32_t i = 0; i < cfg_.num_nodes(); ++i) {
    EventId id(i);
    const Event& ev = cfg_.node(id);
    switch (ev.kind) {
      case EventKind::SC:
      case EventKind::CAS: {
        const Expr& e = prog_.expr(ev.expr);
        bool publishes_v = mentions_as_value(prog_, e.b, v) ||
                           (ev.kind == EventKind::CAS &&
                            mentions_as_value(prog_, e.c, v));
        if (!publishes_v) break;
        // Must publish into a global-rooted location (condition 1).
        if (!ev.path.root.valid() ||
            prog_.var(ev.path.root).kind == VarKind::Local ||
            prog_.var(ev.path.root).kind == VarKind::Param) {
          // Publishing into a location reached from a local pointer still
          // escapes to shared state (e.g. SC(t.Next, node)); that is a leak
          // without retirement, so v is not a working copy... unless the
          // target is itself provably unescaped, which we do not track
          // here.
          if (!ev.path.is_plain_var()) return false;
        }
        publishes.push_back(id);
        break;
      }
      case EventKind::Write: {
        if (ev.path.root == v && !ev.path.is_plain_var()) break;  // deref write: fine
        if (ev.path.root != v) {
          // v stored elsewhere by plain assignment: escapes without the
          // SC discipline.
          synl::ExprId rhs;
          const Stmt& s = prog_.stmt(ev.stmt);
          if (s.kind == StmtKind::Assign) rhs = s.e2;
          if (s.kind == StmtKind::Local) rhs = s.e1;
          if (rhs.valid() && mentions_as_value(prog_, rhs, v)) return false;
        }
        break;
      }
      case EventKind::Read: {
        // Returning v hands the reference to the environment.
        if (!ev.is_base && ev.path.is_plain_var() && ev.path.root == v &&
            ev.stmt.valid() && prog_.stmt(ev.stmt).kind == StmtKind::Return)
          return false;
        break;
      }
      default:
        break;
    }
  }

  // Pass 2 (condition 2): after each publication's success, the first event
  // touching v on every path must be a plain write to v (the retirement).
  for (EventId pub : publishes) {
    std::vector<bool> visited(cfg_.num_nodes(), false);
    std::vector<EventId> work;
    post_success_edges(prog_, cfg_, pub, work);
    for (EventId n : work) visited[n.idx] = true;
    while (!work.empty()) {
      EventId n = work.back();
      work.pop_back();
      const Event& ev = cfg_.node(n);
      bool touches_v = ev.path.root == v;
      if (touches_v && ev.kind == EventKind::Write && ev.path.is_plain_var()) {
        retirement_writes.push_back(n);
        continue;  // retired; this path is fine
      }
      if (touches_v) return false;  // deref or value-read before retirement
      if (n == cfg_.exit()) {
        // Reaching exit without retirement: for a thread-local, the
        // published (now shared) reference would still be in v at the next
        // call. Not a working copy.
        if (prog_.var(v).kind == VarKind::ThreadLocal) return false;
        continue;
      }
      for (const Edge& e : cfg_.succs(n)) {
        if (!visited[e.to.idx]) {
          visited[e.to.idx] = true;
          work.push_back(e.to);
        }
      }
    }
  }

  // Pass 3 (condition 3): every non-`new` plain assignment to v is one of
  // the retirements discovered above (or a reset like `prv.version[g] := 0`
  // which is a deref write, not a plain assignment).
  for (uint32_t i = 0; i < cfg_.num_nodes(); ++i) {
    EventId id(i);
    const Event& ev = cfg_.node(id);
    if (ev.kind != EventKind::Write || !ev.path.is_plain_var() ||
        ev.path.root != v)
      continue;
    const Stmt& s = prog_.stmt(ev.stmt);
    synl::ExprId rhs = s.kind == StmtKind::Assign ? s.e2 : s.e1;
    if (rhs.valid() && prog_.expr(rhs).kind == ExprKind::New) continue;
    bool is_retirement = false;
    for (EventId r : retirement_writes)
      if (r == id) is_retirement = true;
    if (!is_retirement) return false;
  }

  return true;
}

std::vector<std::vector<AccessPath>> lock_sets(const Cfg& cfg) {
  const size_t n = cfg.num_nodes();
  // Forward dataflow: set of lock paths held on entry to each node; meet is
  // intersection. Initialized to "unknown" (bottom = everything) except the
  // entry.
  std::vector<std::vector<AccessPath>> in(n);
  std::vector<bool> defined(n, false);
  defined[cfg.entry().idx] = true;

  bool changed = true;
  while (changed) {
    changed = false;
    for (uint32_t i = 0; i < n; ++i) {
      EventId id(i);
      if (!defined[i]) continue;
      // Transfer.
      std::vector<AccessPath> out = in[i];
      const Event& ev = cfg.node(id);
      if (ev.kind == EventKind::Acquire && ev.path.root.valid()) {
        out.push_back(ev.path);
      } else if (ev.kind == EventKind::Release && ev.path.root.valid()) {
        for (size_t k = 0; k < out.size(); ++k) {
          if (out[k] == ev.path) {
            out.erase(out.begin() + static_cast<long>(k));
            break;
          }
        }
      }
      for (const Edge& e : cfg.succs(id)) {
        if (!defined[e.to.idx]) {
          defined[e.to.idx] = true;
          in[e.to.idx] = out;
          changed = true;
        } else {
          // Intersect.
          std::vector<AccessPath> merged;
          for (const AccessPath& p : in[e.to.idx]) {
            for (const AccessPath& q : out) {
              if (p == q) {
                merged.push_back(p);
                break;
              }
            }
          }
          if (merged.size() != in[e.to.idx].size()) {
            in[e.to.idx] = std::move(merged);
            changed = true;
          }
        }
      }
    }
  }
  return in;
}

}  // namespace synat::analysis::reference
