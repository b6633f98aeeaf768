#include <gtest/gtest.h>

#include <algorithm>

#include "../support/reference_inputs.h"
#include "synat/analysis/expr_util.h"
#include "synat/analysis/proc_analysis.h"
#include "synat/atomicity/variants.h"
#include "synat/corpus/corpus.h"
#include "synat/synl/parser.h"

namespace synat::analysis {
namespace {

using synl::Program;

// Local conditions are meaningful on exceptional variants (where the
// branch decisions are TRUE statements), so these tests generate variants
// first and analyze those.
struct VariantSetup {
  DiagEngine diags;
  Program prog;
  std::vector<std::unique_ptr<ProcAnalysis>> variants;

  explicit VariantSetup(std::string_view src, std::string_view proc)
      : prog(synl::parse_and_check(src, diags)) {
    EXPECT_FALSE(diags.has_errors()) << diags.dump();
    synl::ProcId pid = prog.find_proc(proc);
    auto set = atomicity::generate_variants(
        prog, pid, atomicity::loop_verdicts(prog, pid), diags);
    for (synl::ProcId v : set.variants)
      variants.push_back(std::make_unique<ProcAnalysis>(prog, v));
  }
};

TEST(LocalCond, AddNodeBlockIsLlScWithEqNull) {
  VariantSetup s(corpus::get("nfq_prime").source, "AddNode");
  ASSERT_EQ(s.variants.size(), 1u);
  const auto& blocks = s.variants[0]->localcond().blocks();
  // Expect one LL-SC block (on t.Next) with condition next == null.
  const LocalBlock* llsc = nullptr;
  for (const auto& b : blocks)
    if (b.is_llsc_block()) llsc = &b;
  ASSERT_NE(llsc, nullptr);
  EXPECT_EQ(llsc->cond, Pred::EqNull);
  ASSERT_EQ(llsc->svar.sels.size(), 1u);
  EXPECT_EQ(llsc->svar.last_field(), s.prog.syms().lookup("Next"));
}

TEST(LocalCond, UpdateTailBlockIsPlainWithNeNull) {
  VariantSetup s(corpus::get("nfq_prime").source, "UpdateTail");
  ASSERT_EQ(s.variants.size(), 1u);
  const LocalBlock* plain = nullptr;
  for (const auto& b : s.variants[0]->localcond().blocks()) {
    if (b.is_plain_local_block() && !b.svar.sels.empty()) plain = &b;
  }
  ASSERT_NE(plain, nullptr);
  EXPECT_EQ(plain->cond, Pred::NeNull);
}

TEST(LocalCond, DeqVariantsHaveOppositeConditions) {
  VariantSetup s(corpus::get("nfq_prime").source, "Deq");
  ASSERT_EQ(s.variants.size(), 2u);
  std::vector<Pred> conds;
  for (const auto& pa : s.variants) {
    for (const auto& b : pa->localcond().blocks()) {
      if (!b.svar.sels.empty() && b.cond != Pred::True)
        conds.push_back(b.cond);
    }
  }
  ASSERT_EQ(conds.size(), 2u);
  EXPECT_EQ(conds[0], negate(conds[1]));
}

TEST(LocalCond, UpdatedLvarDisablesBlock) {
  VariantSetup s(R"(
    class Node { Node Next; }
    global Node Tail;
    proc F() {
      local t := LL(Tail) in {
        TRUE(t != null);
        t := null;          // lvar updated: condition unusable
        TRUE(SC(Tail, t));
      }
    }
  )", "F");
  ASSERT_EQ(s.variants.size(), 1u);
  for (const auto& b : s.variants[0]->localcond().blocks()) {
    EXPECT_TRUE(b.lvar_updated);
    EXPECT_FALSE(b.is_llsc_block());
  }
}

TEST(LocalCond, NonNullPredicatesYieldTrue) {
  VariantSetup s(R"(
    global int X;
    proc F() {
      local a := LL(X) in {
        TRUE(a > 0);                 // not a null-ness test
        TRUE(SC(X, a - 1));
      }
    }
  )", "F");
  ASSERT_EQ(s.variants.size(), 1u);
  for (const auto& b : s.variants[0]->localcond().blocks())
    EXPECT_EQ(b.cond, Pred::True);
}

TEST(LocalCond, NegatedEqualityCanonicalizes) {
  EXPECT_EQ(negate(Pred::EqNull), Pred::NeNull);
  EXPECT_EQ(negate(Pred::NeNull), Pred::EqNull);
  EXPECT_EQ(negate(Pred::True), Pred::True);
}

TEST(LocalCond, BlockEventsCoverInitializerAndBody) {
  VariantSetup s(corpus::get("nfq_prime").source, "AddNode");
  const LocalBlock* llsc = nullptr;
  for (const auto& b : s.variants[0]->localcond().blocks())
    if (b.is_llsc_block()) llsc = &b;
  ASSERT_NE(llsc, nullptr);
  // Must contain at least the LL, the VL, the SC and the guards' reads.
  int lls = 0, scs = 0, vls = 0;
  const cfg::Cfg& cfg = s.variants[0]->cfg();
  for (cfg::EventId e : llsc->events) {
    if (cfg.node(e).kind == cfg::EventKind::LL) ++lls;
    if (cfg.node(e).kind == cfg::EventKind::SC) ++scs;
    if (cfg.node(e).kind == cfg::EventKind::VL) ++vls;
  }
  EXPECT_EQ(lls, 1);
  EXPECT_EQ(scs, 1);
  EXPECT_EQ(vls, 1);
}

/// The null-ness predicate of `id` over `lvar`, as the block analysis
/// canonicalizes it (reference copy).
Pred reference_pred(const Program& prog, synl::ExprId id, VarId lvar) {
  if (!id.valid()) return Pred::True;
  const synl::Expr& e = prog.expr(id);
  if (e.kind == synl::ExprKind::Unary) {
    return e.un_op == synl::UnOp::Not
               ? negate(reference_pred(prog, e.a, lvar))
               : Pred::True;
  }
  if (e.kind != synl::ExprKind::Binary ||
      (e.bin_op != synl::BinOp::Eq && e.bin_op != synl::BinOp::Ne))
    return Pred::True;
  auto is_lvar = [&](synl::ExprId x) {
    return x.valid() && prog.expr(x).kind == synl::ExprKind::VarRef &&
           prog.expr(x).var == lvar;
  };
  auto is_null = [&](synl::ExprId x) {
    return x.valid() && prog.expr(x).kind == synl::ExprKind::NullLit;
  };
  if (!(is_lvar(e.a) && is_null(e.b)) && !(is_null(e.a) && is_lvar(e.b)))
    return Pred::True;
  return e.bin_op == synl::BinOp::Eq ? Pred::EqNull : Pred::NeNull;
}

/// A block as the nested walk computes it, with its own event list.
struct NestedBlock {
  LocalBlock block;
  std::vector<cfg::EventId> events;
};

/// The block of `local_stmt` computed by the nested walk: for every CFG
/// event, a walk of the block's whole body decides membership.
NestedBlock reference_block(const Program& prog, const cfg::Cfg& cfg,
                            synl::StmtId local_stmt) {
  const synl::Stmt& s = prog.stmt(local_stmt);
  NestedBlock nested;
  LocalBlock& block = nested.block;
  block.stmt = local_stmt;
  block.lvar = s.var;
  const synl::Expr& init = prog.expr(s.e1);
  if (init.kind == synl::ExprKind::LL) {
    block.svar = path_of_expr(prog, init.a);
    block.reads_svar = block.svar.root.valid();
    block.init_is_ll = true;
  } else if (synl::is_location_kind(init.kind)) {
    block.svar = path_of_expr(prog, s.e1);
    block.reads_svar = block.svar.root.valid();
  }
  synl::for_each_stmt(prog, s.s1, [&](synl::StmtId sid) {
    const synl::Stmt& inner = prog.stmt(sid);
    if (inner.kind == synl::StmtKind::Assign) {
      AccessPath lhs = path_of_expr(prog, inner.e1);
      if (lhs.is_plain_var() && lhs.root == block.lvar)
        block.lvar_updated = true;
    }
    if (inner.kind == synl::StmtKind::Assume) {
      Pred p = reference_pred(prog, inner.e1, block.lvar);
      if (p != Pred::True && block.cond == Pred::True) block.cond = p;
    }
  });
  for (uint32_t i = 0; i < cfg.num_nodes(); ++i) {
    const cfg::Event& ev = cfg.node(cfg::EventId(i));
    if (!ev.stmt.valid()) continue;
    bool inside = ev.stmt == local_stmt;
    synl::for_each_stmt(prog, s.s1, [&](synl::StmtId sid) {
      if (sid == ev.stmt) inside = true;
    });
    if (!inside) continue;
    nested.events.push_back(cfg::EventId(i));
    if (ev.kind == cfg::EventKind::SC && ev.must_succeed &&
        block.reads_svar && ev.path == block.svar)
      block.has_successful_sc = true;
  }
  return nested;
}

TEST(LocalCond, OnePassBlocksMatchTheNestedWalk) {
  size_t checked = 0;
  for (const auto& [name, source] : test_support::reference_inputs()) {
    DiagEngine diags;
    synl::FrontEnd fe = synl::parse_and_recover(source, diags);
    ASSERT_FALSE(diags.has_errors()) << name << "\n" << diags.dump();
    Program& prog = fe.prog;
    const size_t originals = prog.num_procs();
    for (size_t p = 0; p < originals; ++p) {
      synl::ProcId pid(static_cast<uint32_t>(p));
      atomicity::VariantSet set = atomicity::generate_variants(
          prog, pid, atomicity::loop_verdicts(prog, pid), diags);
      for (synl::ProcId v : set.variants) {
        ProcAnalysis pa(prog, v);
        const std::string where = name + " " + prog.proc(v).variant_tag;
        std::vector<synl::StmtId> locals;
        synl::for_each_stmt(prog, prog.proc(v).body, [&](synl::StmtId sid) {
          if (prog.stmt(sid).kind == synl::StmtKind::Local)
            locals.push_back(sid);
        });
        const std::vector<LocalBlock>& blocks = pa.localcond().blocks();
        ASSERT_EQ(blocks.size(), locals.size()) << where;
        for (size_t b = 0; b < blocks.size(); ++b) {
          const LocalBlock& got = blocks[b];
          const NestedBlock nested = reference_block(prog, pa.cfg(), locals[b]);
          const LocalBlock& want = nested.block;
          ASSERT_EQ(got.stmt, want.stmt) << where << " block " << b;
          EXPECT_EQ(pa.localcond().block_for(got.stmt), &got) << where;
          EXPECT_EQ(got.lvar, want.lvar) << where;
          EXPECT_TRUE(got.svar == want.svar) << where;
          EXPECT_EQ(got.reads_svar, want.reads_svar) << where;
          EXPECT_EQ(got.init_is_ll, want.init_is_ll) << where;
          EXPECT_EQ(got.lvar_updated, want.lvar_updated) << where;
          EXPECT_EQ(got.has_successful_sc, want.has_successful_sc) << where;
          EXPECT_EQ(got.cond, want.cond) << where;
          EXPECT_TRUE(std::ranges::equal(got.events, nested.events))
              << where << " block " << b;
          ++checked;
        }
      }
    }
  }
  EXPECT_GT(checked, 0u);
}

}  // namespace
}  // namespace synat::analysis
