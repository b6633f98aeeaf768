#include "synat/analysis/localcond.h"

#include <algorithm>

#include "synat/analysis/expr_util.h"

namespace synat::analysis {

using cfg::Event;
using cfg::EventKind;
using synl::Expr;
using synl::ExprKind;
using synl::Stmt;
using synl::StmtKind;

std::string_view to_string(Pred p) {
  switch (p) {
    case Pred::True: return "true";
    case Pred::EqNull: return "== null";
    case Pred::NeNull: return "!= null";
  }
  return "?";
}

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

}  // namespace

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

}  // namespace synat::analysis
