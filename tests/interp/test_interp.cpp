#include <gtest/gtest.h>

#include "synat/corpus/corpus.h"
#include "synat/interp/interp.h"
#include "synat/synl/parser.h"

namespace synat::interp {
namespace {

using synl::Program;

struct Fixture {
  DiagEngine diags;
  Program prog;
  CompiledProgram cp;
  std::unique_ptr<Interp> in;

  explicit Fixture(std::string_view src, int array_size = 3)
      : prog(synl::parse_and_check(src, diags)) {
    EXPECT_FALSE(diags.has_errors()) << diags.dump();
    cp = compile_program(prog, diags);
    EXPECT_FALSE(diags.has_errors()) << diags.dump();
    in = std::make_unique<Interp>(cp, array_size);
  }

  int proc(std::string_view name) const {
    int idx = cp.find_index(name);
    EXPECT_GE(idx, 0) << name;
    return idx;
  }

  /// Runs a single thread to completion and returns its value.
  Value run1(std::string_view name, std::vector<Value> args = {}) {
    State s = in->initial_state({{proc(name), std::move(args)}});
    std::string err;
    StepResult r = in->run_thread(s, 0, &err);
    EXPECT_EQ(r, StepResult::Done) << err;
    return s.threads[0].ret;
  }
};

TEST(Interp, ArithmeticAndReturn) {
  Fixture f("proc int F(int a, int b) { return a * 10 + b % 3; }");
  EXPECT_EQ(f.run1("F", {Value::of_int(4), Value::of_int(5)}).i, 42);
}

TEST(Interp, DivisionByZeroYieldsZero) {
  Fixture f("proc int F(int a) { return a / 0; }");
  EXPECT_EQ(f.run1("F", {Value::of_int(7)}).i, 0);
}

TEST(Interp, LocalsAndGlobals) {
  Fixture f(R"(
    global int G;
    proc int F() {
      G := 5;
      local x := G + 1 in {
        G := x * 2;
        return G;
      }
    }
  )");
  EXPECT_EQ(f.run1("F").i, 12);
}

TEST(Interp, WhileLoopViaDesugaring) {
  Fixture f(R"(
    proc int F(int n) {
      local acc := 0 in
      local i := 0 in {
        while (i < n) {
          acc := acc + i;
          i := i + 1;
        }
        return acc;
      }
    }
  )");
  EXPECT_EQ(f.run1("F", {Value::of_int(5)}).i, 10);
}

TEST(Interp, ObjectsAndFields) {
  Fixture f(R"(
    class Node { int v; Node next; }
    proc int F() {
      local a := new Node in
      local b := new Node in {
        a.v := 1;
        b.v := 2;
        a.next := b;
        return a.v + a.next.v;
      }
    }
  )");
  EXPECT_EQ(f.run1("F").i, 3);
}

TEST(Interp, ArraysAutoAllocated) {
  Fixture f(R"(
    class Obj { int[] data; }
    proc int F() {
      local o := new Obj in {
        o.data[0] := 7;
        o.data[2] := 9;
        return o.data[0] + o.data[1] + o.data[2];
      }
    }
  )", /*array_size=*/3);
  EXPECT_EQ(f.run1("F").i, 16);
}

TEST(Interp, ArrayBoundsError) {
  Fixture f(R"(
    class Obj { int[] data; }
    proc F() {
      local o := new Obj in {
        o.data[5] := 1;
      }
    }
  )", /*array_size=*/3);
  State s = f.in->initial_state({{f.proc("F"), {}}});
  std::string err;
  EXPECT_EQ(f.in->run_thread(s, 0, &err), StepResult::Error);
  EXPECT_NE(err.find("bounds"), std::string::npos);
}

TEST(Interp, NullDereferenceError) {
  Fixture f(R"(
    class Node { int v; }
    global Node N;
    proc F() { N.v := 1; }
  )");
  State s = f.in->initial_state({{f.proc("F"), {}}});
  std::string err;
  EXPECT_EQ(f.in->run_thread(s, 0, &err), StepResult::Error);
}

TEST(Interp, LlScSingleThreadSucceeds) {
  Fixture f(R"(
    global int X;
    proc bool F() {
      local a := LL(X) in {
        return SC(X, a + 1);
      }
    }
  )");
  EXPECT_TRUE(f.run1("F").truthy());
}

TEST(Interp, ScWithoutLlFails) {
  Fixture f(R"(
    global int X;
    proc bool F() {
      return SC(X, 1);
    }
  )");
  EXPECT_FALSE(f.run1("F").truthy());
}

TEST(Interp, InterferingScBreaksLink) {
  Fixture f(R"(
    global int X;
    proc bool Inc() {
      local a := LL(X) in {
        return SC(X, a + 1);
      }
    }
  )");
  // Two threads: t0 LLs, then t1 runs completely (LL+SC), then t0's SC
  // must fail.
  State s = f.in->initial_state({{f.proc("Inc"), {}}, {f.proc("Inc"), {}}});
  std::string err;
  // Step t0 until its LL has executed (ll.glob is instruction index 0).
  ASSERT_EQ(f.in->step(s, 0, &err), StepResult::Ok);  // LL
  ASSERT_EQ(f.in->run_thread(s, 1, &err), StepResult::Done) << err;
  EXPECT_TRUE(s.threads[1].ret.truthy());
  ASSERT_EQ(f.in->run_thread(s, 0, &err), StepResult::Done) << err;
  EXPECT_FALSE(s.threads[0].ret.truthy());
  EXPECT_EQ(s.globals[0].i, 1);  // only one increment took effect
}

TEST(Interp, VlDetectsInterference) {
  Fixture f(R"(
    global int X;
    proc bool Check() {
      local a := LL(X) in {
        return VL(X);
      }
    }
    proc Bump() {
      local a := LL(X) in {
        SC(X, a + 1);
      }
    }
  )");
  State s = f.in->initial_state({{f.proc("Check"), {}}, {f.proc("Bump"), {}}});
  std::string err;
  ASSERT_EQ(f.in->step(s, 0, &err), StepResult::Ok);  // t0's LL
  ASSERT_EQ(f.in->run_thread(s, 1, &err), StepResult::Done);
  ASSERT_EQ(f.in->run_thread(s, 0, &err), StepResult::Done);
  EXPECT_FALSE(s.threads[0].ret.truthy());
}

TEST(Interp, PlainWriteDoesNotBreakLink) {
  // Paper Section 3.1: only successful SCs invalidate links.
  Fixture f(R"(
    global int X;
    proc bool Check() {
      local a := LL(X) in {
        return SC(X, a + 1);
      }
    }
    proc Write() {
      X := 42;
    }
  )");
  State s = f.in->initial_state({{f.proc("Check"), {}}, {f.proc("Write"), {}}});
  std::string err;
  ASSERT_EQ(f.in->step(s, 0, &err), StepResult::Ok);  // LL
  ASSERT_EQ(f.in->run_thread(s, 1, &err), StepResult::Done);
  ASSERT_EQ(f.in->run_thread(s, 0, &err), StepResult::Done);
  EXPECT_TRUE(s.threads[0].ret.truthy());
}

TEST(Interp, CasSemantics) {
  Fixture f(R"(
    global int X;
    proc bool F(int expected, int desired) {
      return CAS(X, expected, desired);
    }
  )");
  State s = f.in->initial_state(
      {{f.proc("F"), {Value::of_int(0), Value::of_int(5)}}});
  std::string err;
  ASSERT_EQ(f.in->run_thread(s, 0, &err), StepResult::Done);
  EXPECT_TRUE(s.threads[0].ret.truthy());
  EXPECT_EQ(s.globals[0].i, 5);

  State s2 = f.in->initial_state(
      {{f.proc("F"), {Value::of_int(3), Value::of_int(7)}}});
  ASSERT_EQ(f.in->run_thread(s2, 0, &err), StepResult::Done);
  EXPECT_FALSE(s2.threads[0].ret.truthy());
  EXPECT_EQ(s2.globals[0].i, 0);
}

TEST(Interp, LocksBlockOtherThreads) {
  Fixture f(R"(
    class L { int d; }
    global L M;
    global int C;
    proc Setup() { M := new L; }
    proc F() {
      synchronized (M) {
        C := C + 1;
      }
    }
  )");
  State s = f.in->initial_state({{f.proc("F"), {}}, {f.proc("F"), {}}});
  std::string err;
  // Allocate the lock object first via a setup run on thread 0.
  // (Run Setup by borrowing thread 0's slot.)
  State setup = f.in->initial_state({{f.proc("Setup"), {}}});
  ASSERT_EQ(f.in->run_thread(setup, 0, &err), StepResult::Done);
  s.globals = setup.globals;
  s.heap = setup.heap;

  // Drive t0 just past the acquire (expr eval + acquire).
  while (f.in->next_insn(s, 0).op != Op::Acquire)
    ASSERT_EQ(f.in->step(s, 0, &err), StepResult::Ok);
  ASSERT_EQ(f.in->step(s, 0, &err), StepResult::Ok);  // acquire
  // t1 now blocks at its acquire.
  while (f.in->next_insn(s, 1).op != Op::Acquire)
    ASSERT_EQ(f.in->step(s, 1, &err), StepResult::Ok);
  EXPECT_EQ(f.in->step(s, 1, &err), StepResult::Blocked);
  EXPECT_FALSE(f.in->runnable(s, 1));
  // Finish t0; t1 unblocks.
  ASSERT_EQ(f.in->run_thread(s, 0, &err), StepResult::Done) << err;
  EXPECT_TRUE(f.in->runnable(s, 1));
  ASSERT_EQ(f.in->run_thread(s, 1, &err), StepResult::Done) << err;
  EXPECT_EQ(s.globals[1].i, 2);  // slot 0 = M, slot 1 = C
}

TEST(Interp, AssertFailureReported) {
  Fixture f("proc F() { assert(1 == 2); }");
  State s = f.in->initial_state({{f.proc("F"), {}}});
  std::string err;
  EXPECT_EQ(f.in->run_thread(s, 0, &err), StepResult::Error);
  EXPECT_NE(err.find("assertion"), std::string::npos);
}

TEST(Interp, AssumeFalseSticksThread) {
  Fixture f("proc F() { TRUE(false); }");
  State s = f.in->initial_state({{f.proc("F"), {}}});
  std::string err;
  EXPECT_EQ(f.in->run_thread(s, 0, &err), StepResult::Stuck);
  EXPECT_EQ(s.threads[0].status, ThreadStatus::Stuck);
}

TEST(Interp, DeterministicReplay) {
  // Same schedule => identical final state (paper Section 3.2).
  Fixture f(corpus::get("semaphore_down").source);
  for (int round = 0; round < 2; ++round) {
    State s = f.in->initial_state({{f.proc("Up"), {}}, {f.proc("Up"), {}}});
    std::string err;
    // Fixed round-robin schedule.
    int tid = 0;
    for (int i = 0; i < 200; ++i) {
      f.in->step(s, tid, &err);
      tid = 1 - tid;
    }
    EXPECT_EQ(s.globals[0].i, 2);
  }
}

TEST(Interp, SemaphoreUpDown) {
  Fixture f(corpus::get("semaphore_down").source);
  State s = f.in->initial_state({{f.proc("Up"), {}}});
  std::string err;
  ASSERT_EQ(f.in->run_thread(s, 0, &err), StepResult::Done);
  EXPECT_EQ(s.globals[0].i, 1);
}

TEST(Interp, Disassemble) {
  Fixture f("global int X; proc F() { X := X + 1; }");
  std::string d = disassemble(f.cp.procs[0]);
  EXPECT_NE(d.find("ld.glob"), std::string::npos);
  EXPECT_NE(d.find("st.glob"), std::string::npos);
  EXPECT_NE(d.find("ret"), std::string::npos);
}

TEST(Interp, VariantsSkippedByDefault) {
  Fixture f(corpus::get("nfq_prime").source);
  EXPECT_EQ(f.cp.procs.size(), 3u);  // AddNode, UpdateTail, Deq only
}

/// Parameterized by the corpus entry's name, which gtest prints as the name
/// itself, so each test name ends at the entry name and does not depend on
/// where the entry's strings are linked.
class CompileAll : public ::testing::TestWithParam<std::string> {};

TEST_P(CompileAll, CorpusCompiles) {
  DiagEngine diags;
  Program prog = synl::parse_and_check(corpus::get(GetParam()).source, diags);
  ASSERT_FALSE(diags.has_errors()) << diags.dump();
  CompiledProgram cp = compile_program(prog, diags);
  EXPECT_FALSE(diags.has_errors()) << diags.dump();
  for (const CompiledProc& p : cp.procs) {
    EXPECT_FALSE(p.code.empty());
    // Jump targets must be in range.
    for (const Insn& insn : p.code) {
      if (insn.op == Op::Jump || insn.op == Op::JumpIfFalse) {
        EXPECT_LE(static_cast<size_t>(insn.a), p.code.size());
      }
    }
  }
}

std::vector<std::string> corpus_names() {
  std::vector<std::string> out;
  for (const corpus::Entry& e : corpus::all()) out.emplace_back(e.name);
  return out;
}

INSTANTIATE_TEST_SUITE_P(Corpus, CompileAll,
                         ::testing::ValuesIn(corpus_names()),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace synat::interp
