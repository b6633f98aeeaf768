#include <gtest/gtest.h>

#include <unordered_map>

#include "../support/reference_inputs.h"
#include "synat/analysis/proc_analysis.h"
#include "synat/atomicity/variants.h"
#include "synat/corpus/corpus.h"
#include "synat/obs/metrics.h"
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
    set = generate_variants(prog, pid, loop_verdicts(prog, pid), diags,
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

bool has_loop(const Program& prog, synl::ProcId pid) {
  bool found = false;
  synl::for_each_stmt(prog, prog.proc(pid).body, [&](synl::StmtId sid) {
    if (prog.stmt(sid).kind == synl::StmtKind::Loop) found = true;
  });
  return found;
}

uint64_t observations(obs::StageId stage) {
  return obs::registry().stage_histogram(stage).count();
}

/// Records stage observations while in scope, then restores the flags.
struct MetricsOn {
  const uint32_t saved = obs::flags();
  MetricsOn() { obs::set_flags(obs::kMetricsFlag); }
  ~MetricsOn() { obs::set_flags(saved); }
  MetricsOn(const MetricsOn&) = delete;
  MetricsOn& operator=(const MetricsOn&) = delete;
};

/// Step 0's verdicts equal those of a PurityAnalysis over the procedure's
/// full analysis (CFG, escape, uniqueness, matching, local conditions).
TEST(Variants, LoopVerdictsMatchPurityOverAFullAnalysis) {
  size_t loops = 0;
  for (const auto& [name, source] : test_support::reference_inputs()) {
    DiagEngine diags;
    synl::FrontEnd fe = synl::parse_and_recover(source, diags);
    ASSERT_FALSE(diags.has_errors()) << name << "\n" << diags.dump();
    const Program& prog = fe.prog;
    for (size_t p = 0; p < prog.num_procs(); ++p) {
      synl::ProcId pid(static_cast<uint32_t>(p));
      const std::string where =
          name + " " + std::string(prog.syms().name(prog.proc(pid).name));
      std::vector<LoopVerdict> got = loop_verdicts(prog, pid);
      analysis::ProcAnalysis full(prog, pid);
      analysis::PurityAnalysis purity(prog, full.cfg(), full.matching(),
                                      full.escape(), full.unique());
      const std::vector<cfg::LoopInfo>& want = full.cfg().loops();
      ASSERT_EQ(got.size(), want.size()) << where;
      for (size_t k = 0; k < want.size(); ++k) {
        const analysis::LoopPurity* lp = purity.result(want[k].stmt);
        ASSERT_NE(lp, nullptr) << where;
        EXPECT_EQ(got[k].loop, want[k].stmt) << where << " loop " << k;
        EXPECT_EQ(got[k].pure, lp->pure) << where << " loop " << k;
        ASSERT_EQ(got[k].reasons.size(), lp->reasons.size()) << where;
        for (size_t r = 0; r < lp->reasons.size(); ++r) {
          EXPECT_EQ(got[k].reasons[r].condition, lp->reasons[r].condition)
              << where << " loop " << k << " reason " << r;
          EXPECT_EQ(got[k].reasons[r].message(prog),
                    lp->reasons[r].message(prog))
              << where << " loop " << k << " reason " << r;
          EXPECT_EQ(got[k].reasons[r].line, lp->reasons[r].line)
              << where << " loop " << k << " reason " << r;
        }
        ++loops;
      }
    }
  }
  EXPECT_GT(loops, 0u);
}

/// A procedure without a loop statement has no verdicts and costs no CFG;
/// one with a loop builds one CFG and one pure-loop analysis.
TEST(Variants, LoopVerdictsBuildACfgOnlyForLoops) {
  MetricsOn metrics;
  size_t loop_free = 0;
  for (const auto& [name, source] : test_support::reference_inputs()) {
    DiagEngine diags;
    synl::FrontEnd fe = synl::parse_and_recover(source, diags);
    ASSERT_FALSE(diags.has_errors()) << name << "\n" << diags.dump();
    const Program& prog = fe.prog;
    for (size_t p = 0; p < prog.num_procs(); ++p) {
      synl::ProcId pid(static_cast<uint32_t>(p));
      const std::string where =
          name + " " + std::string(prog.syms().name(prog.proc(pid).name));
      const uint64_t cfgs = observations(obs::StageId::CfgLiveness);
      const uint64_t purities = observations(obs::StageId::Purity);
      std::vector<LoopVerdict> got = loop_verdicts(prog, pid);
      const uint64_t built = has_loop(prog, pid) ? 1 : 0;
      if (built == 0) {
        EXPECT_TRUE(got.empty()) << where;
        ++loop_free;
      }
      EXPECT_EQ(observations(obs::StageId::CfgLiveness) - cfgs, built)
          << where;
      EXPECT_EQ(observations(obs::StageId::Purity) - purities, built)
          << where;
    }
  }
  EXPECT_GT(loop_free, 0u);
}

/// Variants are deep clones: after generation, no two Blocks of any
/// procedure's statement tree, original or variant, share a slot of the
/// program's child array.
TEST(Variants, NoTwoProceduresShareABlockChildRange) {
  size_t variants = 0;
  for (const auto& [name, source] : test_support::reference_inputs()) {
    DiagEngine diags;
    synl::FrontEnd fe = synl::parse_and_recover(source, diags);
    ASSERT_FALSE(diags.has_errors()) << name << "\n" << diags.dump();
    Program& prog = fe.prog;
    const size_t originals = prog.num_procs();
    for (size_t p = 0; p < originals; ++p) {
      synl::ProcId pid(static_cast<uint32_t>(p));
      variants += generate_variants(prog, pid, loop_verdicts(prog, pid), diags)
                      .variants.size();
    }
    std::unordered_map<uint32_t, size_t> owner;  // child slot -> procedure
    for (size_t p = 0; p < prog.num_procs(); ++p) {
      synl::for_each_stmt(
          prog, prog.proc(synl::ProcId(static_cast<uint32_t>(p))).body,
          [&](synl::StmtId sid) {
            const synl::Stmt& s = prog.stmt(sid);
            if (s.kind != synl::StmtKind::Block) return;
            for (uint32_t k = 0; k < s.stmts.count; ++k) {
              auto [it, fresh] = owner.emplace(s.stmts.begin + k, p);
              EXPECT_TRUE(fresh) << name << ": procedures " << it->second
                                 << " and " << p << " share child slot "
                                 << it->first;
            }
          });
    }
  }
  EXPECT_GT(variants, 0u);
}

}  // namespace
}  // namespace synat::atomicity
