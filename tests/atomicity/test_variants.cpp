#include <gtest/gtest.h>

#include "synat/analysis/proc_analysis.h"
#include "synat/atomicity/variants.h"
#include "synat/corpus/corpus.h"
#include "synat/synl/parser.h"
#include "synat/synl/printer.h"

namespace synat::atomicity {
namespace {

using synl::Program;

struct Fixture {
  DiagEngine diags;
  Program prog;
  VariantSet set;

  explicit Fixture(std::string_view src, std::string_view proc,
                 const VariantOptions& opts = {})
      : prog(synl::parse_and_check(src, diags)) {
    EXPECT_FALSE(diags.has_errors()) << diags.dump();
    synl::ProcId pid = prog.find_proc(proc);
    set = generate_variants(
        prog, pid, loop_verdicts(analysis::ProcAnalysis(prog, pid)), diags,
        opts);
    EXPECT_FALSE(diags.has_errors()) << diags.dump();
  }

  std::string printed(size_t i) const {
    return synl::print_proc(prog, set.variants[i]);
  }
};

TEST(Variants, AddNodeHasOne) {
  Fixture s(corpus::get("nfq_prime").source, "AddNode");
  ASSERT_EQ(s.set.variants.size(), 1u);
  std::string v = s.printed(0);
  EXPECT_NE(v.find("TRUE(VL(Tail))"), std::string::npos);
  EXPECT_NE(v.find("TRUE(next == null)"), std::string::npos);
  EXPECT_NE(v.find("TRUE(SC(t.Next, node))"), std::string::npos);
  // The normal-termination guards must not survive.
  EXPECT_EQ(v.find("loop"), std::string::npos);
  EXPECT_EQ(v.find("continue"), std::string::npos);
}

TEST(Variants, UpdateTailScStatementBecomesAssumption) {
  Fixture s(corpus::get("nfq_prime").source, "UpdateTail");
  ASSERT_EQ(s.set.variants.size(), 1u);
  EXPECT_NE(s.printed(0).find("TRUE(SC(Tail, next))"), std::string::npos);
}

TEST(Variants, DeqHasTwo) {
  Fixture s(corpus::get("nfq_prime").source, "Deq");
  ASSERT_EQ(s.set.variants.size(), 2u);
  // One returns EMPTY under next == null, the other dequeues.
  std::string v1 = s.printed(0), v2 = s.printed(1);
  EXPECT_NE((v1 + v2).find("TRUE(next == null)"), std::string::npos);
  EXPECT_NE((v1 + v2).find("TRUE(next != null)"), std::string::npos);
  EXPECT_NE((v1 + v2).find("TRUE(SC(Head, next))"), std::string::npos);
}

TEST(Variants, ImpureLoopKeptWhole) {
  Fixture s(corpus::get("nfq").source, "Enq");
  ASSERT_EQ(s.set.variants.size(), 1u);
  // Enq's loop is impure: it must appear verbatim in the variant.
  EXPECT_NE(s.printed(0).find("loop"), std::string::npos);
}

TEST(Variants, GhInnerLoopKeptJumpsKilled) {
  Fixture s(corpus::get("gh_large_v1").source, "Apply");
  ASSERT_EQ(s.set.variants.size(), 1u);
  std::string v = s.printed(0);
  // The inner copy loop survives...
  EXPECT_NE(v.find("loop"), std::string::npos);
  // ...but its `continue a2` into the sliced outer loop became TRUE(false).
  EXPECT_EQ(v.find("continue"), std::string::npos);
  EXPECT_NE(v.find("TRUE(false)"), std::string::npos);
}

TEST(Variants, NegationsSimplified) {
  Fixture s(R"(
    global int X;
    proc F() {
      loop {
        local a := LL(X) in {
          if (!(a != 0)) { continue; }
          if (SC(X, a - 1)) { return; }
        }
      }
    }
  )", "F");
  ASSERT_EQ(s.set.variants.size(), 1u);
  // Double negation folds: the guard on the else path is `a != 0`.
  EXPECT_NE(s.printed(0).find("TRUE(a != 0)"), std::string::npos);
}

TEST(Variants, NestedPureLoopsProduceCartesianProduct) {
  Fixture s(R"(
    global int X;
    global int Y;
    proc F() {
      loop {
        local a := LL(X) in {
          if (a > 0) {
            if (SC(X, a - 1)) { break; }
          }
        }
      }
      loop {
        local b := LL(Y) in {
          if (b == 0) { return; }
          if (SC(Y, b - 1)) { return; }
        }
      }
    }
  )", "F");
  // Loop 1 has 1 exceptional exit; loop 2 has 2: product = 2 variants.
  EXPECT_EQ(s.set.variants.size(), 2u);
}

TEST(Variants, DisableOptionKeepsProcedureWhole) {
  VariantOptions opts;
  opts.disable = true;
  Fixture s(corpus::get("nfq_prime").source, "Deq", opts);
  ASSERT_EQ(s.set.variants.size(), 1u);
  EXPECT_NE(s.printed(0).find("loop"), std::string::npos);
}

TEST(Variants, VariantsAreResolvedProcedures) {
  Fixture s(corpus::get("nfq_prime").source, "Deq");
  for (synl::ProcId v : s.set.variants) {
    // Every VarRef in the variant resolves to a variable owned by it or a
    // global/threadlocal — re-running sema must find no errors, and the
    // variant must own its locals.
    EXPECT_EQ(s.prog.proc(v).variant_of, s.prog.find_proc("Deq"));
    for (synl::VarId l : s.prog.proc(v).locals) {
      EXPECT_EQ(s.prog.var(l).proc, v);
    }
  }
}

TEST(Variants, VariantsShareNoStatements) {
  Fixture s(corpus::get("nfq_prime").source, "Deq");
  ASSERT_EQ(s.set.variants.size(), 2u);
  std::vector<std::vector<synl::StmtId>> stmts(2);
  for (int i = 0; i < 2; ++i) {
    synl::for_each_stmt(s.prog, s.prog.proc(s.set.variants[static_cast<size_t>(i)]).body,
                        [&](synl::StmtId sid) { stmts[static_cast<size_t>(i)].push_back(sid); });
  }
  for (synl::StmtId a : stmts[0])
    for (synl::StmtId b : stmts[1]) EXPECT_NE(a, b);
}

TEST(Variants, PureInfiniteLoopYieldsNoVariants) {
  Fixture s(R"(
    global int X;
    proc F() {
      loop {
        local a := LL(X) in {
          skip;
        }
      }
    }
  )", "F");
  // The loop is pure and has no exceptional exits: the procedure never
  // does anything observable.
  EXPECT_TRUE(s.set.variants.empty());
}

TEST(Variants, HerlihyVariantMatchesFigure4) {
  Fixture s(corpus::get("herlihy_small").source, "Apply");
  ASSERT_EQ(s.set.variants.size(), 1u);
  std::string v = s.printed(0);
  EXPECT_NE(v.find("TRUE(VL(Q))"), std::string::npos);
  EXPECT_NE(v.find("TRUE(SC(Q, prv))"), std::string::npos);
  EXPECT_NE(v.find("prv := m"), std::string::npos);
}

}  // namespace
}  // namespace synat::atomicity
