#include <gtest/gtest.h>

#include "synat/analysis/proc_analysis.h"
#include "synat/analysis/purity.h"
#include "synat/corpus/corpus.h"
#include "synat/synl/parser.h"

namespace synat::analysis {
namespace {

using synl::Program;

struct Fixture {
  DiagEngine diags;
  Program prog;
  std::unique_ptr<ProcAnalysis> pa;
  std::unique_ptr<PurityAnalysis> loop_purity;  ///< over pa's own parts

  explicit Fixture(std::string_view src, std::string_view proc)
      : prog(synl::parse_and_check(src, diags)) {
    EXPECT_FALSE(diags.has_errors()) << diags.dump();
    pa = std::make_unique<ProcAnalysis>(prog, prog.find_proc(proc));
    loop_purity = std::make_unique<PurityAnalysis>(
        prog, pa->cfg(), pa->matching(), pa->escape(), pa->unique());
  }

  const PurityAnalysis& purity() const { return *loop_purity; }

  /// Purity of the `index`-th loop (in CFG construction order).
  bool loop_pure(size_t index = 0) const {
    const auto& loops = pa->cfg().loops();
    EXPECT_LT(index, loops.size());
    return purity().is_pure(loops[index].stmt);
  }
  const LoopPurity* loop_result(size_t index = 0) const {
    return purity().result(pa->cfg().loops()[index].stmt);
  }
};

TEST(Purity, SemaphoreDownIsPure) {
  Fixture s(corpus::get("semaphore_down").source, "Down");
  EXPECT_TRUE(s.loop_pure());
}

TEST(Purity, NfqPrimeLoopsArePure) {
  for (const char* proc : {"AddNode", "UpdateTail", "Deq"}) {
    Fixture s(corpus::get("nfq_prime").source, proc);
    EXPECT_TRUE(s.loop_pure()) << proc << ": "
        << (s.loop_result() ? s.loop_result()->reasons.size() : 0u);
  }
}

TEST(Purity, OriginalNfqLoopsAreImpure) {
  // The paper's motivation for NFQ': Enq and Deq update Tail in normally
  // terminating iterations.
  for (const char* proc : {"Enq", "Deq"}) {
    Fixture s(corpus::get("nfq").source, proc);
    EXPECT_FALSE(s.loop_pure()) << proc;
    ASSERT_FALSE(s.loop_result()->reasons.empty());
  }
}

TEST(Purity, HerlihyLoopIsPure) {
  Fixture s(corpus::get("herlihy_small").source, "Apply");
  EXPECT_TRUE(s.loop_pure());
}

TEST(Purity, GhV1OuterPureInnerImpure) {
  Fixture s(corpus::get("gh_large_v1").source, "Apply");
  const auto& loops = s.pa->cfg().loops();
  ASSERT_EQ(loops.size(), 2u);
  // Loop 0 is the outer (built first), loop 1 the inner copy loop.
  EXPECT_TRUE(s.purity().is_pure(loops[0].stmt));
  EXPECT_FALSE(s.purity().is_pure(loops[1].stmt));
}

TEST(Purity, GhV2OuterImpure) {
  Fixture s(corpus::get("gh_large_v2").source, "Apply");
  EXPECT_FALSE(s.loop_pure(0));
}

TEST(Purity, GlobalWriteInNormalIterationIsImpure) {
  Fixture s(R"(
    global int X;
    global int Hits;
    proc F() {
      loop {
        Hits := Hits + 1;    // visible side effect every iteration
        local a := LL(X) in {
          if (SC(X, a + 1)) { return; }
        }
      }
    }
  )", "F");
  EXPECT_FALSE(s.loop_pure());
}

TEST(Purity, LocalUpdateLiveAcrossIterationsIsImpure) {
  Fixture s(R"(
    global int X;
    proc F() {
      local tries := 0 in {
        loop {
          tries := tries + 1;   // read next iteration: live
          if (tries > 10) { return; }
          local a := LL(X) in {
            if (SC(X, a + 1)) { return; }
          }
        }
      }
    }
  )", "F");
  EXPECT_FALSE(s.loop_pure());
}

TEST(Purity, ReasonsFollowEvaluationOrder) {
  // One loop breaks condition (i) twice and (ii) once; its reasons come in
  // the order the events are evaluated. The reads of A make the normal set
  // large enough that a hash set's iteration order differs from it.
  Fixture s(R"(
    global int X;
    global int Y;
    global int A;
    proc F() {
      local n := 0 in {
        loop {
          X := A + A + A + A + A + A + A + A;
          n := n + 1;
          Y := A + A + A + A + A + A + A + A;
          if (n > 3) { return; }
        }
      }
    }
  )", "F");
  ASSERT_NE(s.loop_result(), nullptr);
  const std::vector<ImpureReason>& reasons = s.loop_result()->reasons;
  ASSERT_EQ(reasons.size(), 3u);
  EXPECT_EQ(reasons[0].condition, "i");
  EXPECT_EQ(reasons[0].line, 8u);
  EXPECT_EQ(reasons[1].condition, "ii");
  EXPECT_EQ(reasons[1].line, 9u);
  EXPECT_EQ(reasons[2].condition, "i");
  EXPECT_EQ(reasons[2].line, 10u);
}

TEST(Purity, ScAsIfConditionTreatedAsRead) {
  Fixture s(R"(
    global int X;
    proc F() {
      loop {
        local a := LL(X) in {
          if (SC(X, a + 1)) { return; }
        }
      }
    }
  )", "F");
  EXPECT_TRUE(s.loop_pure());
  // The SC event is flagged as read under normal termination.
  const cfg::Cfg& cfg = s.pa->cfg();
  for (uint32_t i = 0; i < cfg.num_nodes(); ++i) {
    if (cfg.node(cfg::EventId(i)).kind == cfg::EventKind::SC) {
      EXPECT_TRUE(s.purity().treated_as_read(cfg::EventId(i)));
    }
  }
}

TEST(Purity, ScSuccessContinuingNormallyIsImpure) {
  Fixture s(R"(
    global int X;
    global int Y;
    proc F() {
      loop {
        local a := LL(X) in {
          if (SC(X, a + 1)) { continue; }   // success stays in the loop
          if (Y > 0) { return; }
        }
      }
    }
  )", "F");
  EXPECT_FALSE(s.loop_pure());
}

TEST(Purity, MatchingScOutsideLoopViolatesConditionIii) {
  Fixture s(R"(
    global int X;
    proc F() {
      local a := 0 in {
        loop {
          a := LL(X);
          if (a > 0) { break; }
        }
        TRUE(SC(X, a + 1));   // matching SC outside the loop
        return;
      }
    }
  )", "F");
  EXPECT_FALSE(s.loop_pure());
}

TEST(Purity, LockPairsAllowedInNormalIterations) {
  Fixture s(R"(
    class L { int d; }
    global L M;
    global int X;
    proc F() {
      loop {
        local seen := 0 in {
          synchronized (M) {
            seen := X;
          }
          if (seen > 0) { return; }
        }
      }
    }
  )", "F");
  EXPECT_TRUE(s.loop_pure());
}

TEST(Purity, AllocationInNormalIterationIsPure) {
  Fixture s(R"(
    class Node { int v; }
    global int X;
    proc F() {
      loop {
        local n := new Node in {
          local a := LL(X) in {
            if (SC(X, a + 1)) { return; }
          }
        }
      }
    }
  )", "F");
  EXPECT_TRUE(s.loop_pure());
}

TEST(Purity, CasLoopsInAllocatorArePure) {
  Fixture s(corpus::get("michael_malloc").source, "MallocFromActive");
  const auto& loops = s.pa->cfg().loops();
  ASSERT_EQ(loops.size(), 2u);
  EXPECT_TRUE(s.purity().is_pure(loops[0].stmt));
  EXPECT_TRUE(s.purity().is_pure(loops[1].stmt));
}

}  // namespace
}  // namespace synat::analysis
