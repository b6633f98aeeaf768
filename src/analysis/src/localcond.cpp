#include "synat/analysis/localcond.h"

#include <algorithm>
#include <utility>

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

constexpr uint32_t kNoBlock = UINT32_MAX;

/// The analysis's buffers, reused by every construction on this thread.
struct LocalScratch {
  std::vector<LocalBlock> blocks;
  std::vector<uint32_t> parent;  ///< enclosing block of each, or kNoBlock
  /// (StmtId, innermost block) of every statement inside some block.
  std::vector<std::pair<uint32_t, uint32_t>> owner;
  std::vector<uint32_t> event_block;  ///< innermost block of each event
  std::vector<uint32_t> cursor;       ///< per-block placement offsets
};
thread_local LocalScratch local_scratch;

LocalBlock analyze_block(const Program& prog, StmtId local_stmt) {
  const Stmt& s = prog.stmt(local_stmt);
  LocalBlock block;
  block.stmt = local_stmt;
  block.lvar = s.var;

  // Initializer shape: LL(loc) or a plain location read.
  const Expr& init = prog.expr(s.e1);
  if (init.kind == ExprKind::LL) {
    block.svar = path_of_expr(prog, init.a);
    block.reads_svar = block.svar.root.valid();
    block.init_is_ll = true;
  } else if (synl::is_location_kind(init.kind)) {
    block.svar = path_of_expr(prog, s.e1);
    block.reads_svar = block.svar.root.valid();
  }

  // Walk the body: updates of lvar, conditions.
  synl::for_each_stmt(prog, s.s1, [&](StmtId sid) {
    const Stmt& inner = prog.stmt(sid);
    if (inner.kind == StmtKind::Assign) {
      AccessPath lhs = path_of_expr(prog, inner.e1);
      if (lhs.is_plain_var() && lhs.root == block.lvar)
        block.lvar_updated = true;
    }
    if (inner.kind == StmtKind::Assume) {
      Pred p = pred_of(prog, inner.e1, block.lvar);
      if (p != Pred::True) {
        // Conjoin; conflicting conditions on one path are dead code —
        // keep the first one found.
        if (block.cond == Pred::True) block.cond = p;
      }
    }
  });
  return block;
}

/// Pre-order walk of `sid`'s subtree, where `block` is the innermost block
/// enclosing `sid`: adds each Local's block and records every enclosed
/// statement's innermost block.
void walk(const Program& prog, StmtId sid, uint32_t block, LocalScratch& s) {
  if (!sid.valid()) return;
  const Stmt& st = prog.stmt(sid);
  if (st.kind == StmtKind::Local) {
    s.blocks.push_back(analyze_block(prog, sid));
    s.parent.push_back(block);
    block = static_cast<uint32_t>(s.blocks.size() - 1);
  }
  if (block != kNoBlock) s.owner.emplace_back(sid.idx, block);
  walk(prog, st.s1, block, s);
  walk(prog, st.s2, block, s);
  for (StmtId child : prog.children(st)) walk(prog, child, block, s);
}

}  // namespace

LocalCondAnalysis::LocalCondAnalysis(const Program& prog, const Cfg& cfg) {
  LocalScratch& s = local_scratch;
  s.blocks.clear();
  s.parent.clear();
  s.owner.clear();
  walk(prog, prog.proc(cfg.proc()).body, kNoBlock, s);
  if (s.blocks.empty()) return;
  std::sort(s.owner.begin(), s.owner.end());

  // An event belongs to the block of its statement and to every block
  // enclosing that one; a successful SC on a block's svar marks it. Count
  // each block's events, then place them in event order.
  const size_t num_blocks = s.blocks.size();
  s.event_block.assign(cfg.num_nodes(), kNoBlock);
  s.cursor.assign(num_blocks + 1, 0);
  for (uint32_t i = 0; i < cfg.num_nodes(); ++i) {
    const Event& ev = cfg.node(EventId(i));
    if (!ev.stmt.valid()) continue;
    auto it = std::lower_bound(s.owner.begin(), s.owner.end(),
                               std::make_pair(ev.stmt.idx, uint32_t{0}));
    if (it == s.owner.end() || it->first != ev.stmt.idx) continue;
    s.event_block[i] = it->second;
    for (uint32_t b = it->second; b != kNoBlock; b = s.parent[b]) {
      ++s.cursor[b + 1];
      LocalBlock& block = s.blocks[b];
      if (ev.kind == EventKind::SC && ev.must_succeed && block.reads_svar &&
          ev.path == block.svar)
        block.has_successful_sc = true;
    }
  }
  for (size_t b = 0; b < num_blocks; ++b) s.cursor[b + 1] += s.cursor[b];
  events_.resize(s.cursor[num_blocks]);
  blocks_.assign(s.blocks.begin(), s.blocks.end());
  for (size_t b = 0; b < num_blocks; ++b) {
    blocks_[b].events = {events_.data() + s.cursor[b],
                         s.cursor[b + 1] - s.cursor[b]};
  }
  for (uint32_t i = 0; i < cfg.num_nodes(); ++i) {
    for (uint32_t b = s.event_block[i]; b != kNoBlock; b = s.parent[b])
      events_[s.cursor[b]++] = EventId(i);
  }
}

}  // namespace synat::analysis
