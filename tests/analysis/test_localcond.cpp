#include <gtest/gtest.h>

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
        prog, pid, atomicity::loop_verdicts(ProcAnalysis(prog, pid)), diags);
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

}  // namespace
}  // namespace synat::analysis
