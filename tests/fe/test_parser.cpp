#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "synat/corpus/corpus.h"
#include "synat/synl/parser.h"
#include "synat/synl/printer.h"

namespace synat::synl {
namespace {

Program parse_ok(std::string_view src) {
  DiagEngine diags;
  Program p = parse_and_check(src, diags);
  EXPECT_FALSE(diags.has_errors()) << diags.dump();
  return p;
}

TEST(Parser, MinimalProcedure) {
  Program p = parse_ok("proc F() { skip; }");
  ASSERT_EQ(p.num_procs(), 1u);
  EXPECT_TRUE(p.find_proc("F").valid());
}

TEST(Parser, GlobalsAndThreadLocals) {
  Program p = parse_ok(R"(
    global int X;
    threadlocal int Y;
    proc F() { skip; }
  )");
  EXPECT_EQ(p.globals().size(), 1u);
  EXPECT_EQ(p.threadlocals().size(), 1u);
  EXPECT_EQ(p.var(p.globals()[0]).kind, VarKind::Global);
  EXPECT_EQ(p.var(p.threadlocals()[0]).kind, VarKind::ThreadLocal);
}

TEST(Parser, ClassWithSelfReference) {
  Program p = parse_ok("class Node { int v; Node next; } proc F() { skip; }");
  ClassId c = p.find_class(p.syms().lookup("Node"));
  ASSERT_TRUE(c.valid());
  EXPECT_EQ(p.cls(c).fields.size(), 2u);
  // The self-typed field points back at the same class.
  const TypeNode& ft = p.type(p.cls(c).fields[1].type);
  EXPECT_EQ(ft.kind, TypeKind::Ref);
  EXPECT_EQ(ft.cls, c);
}

TEST(Parser, ForwardClassReference) {
  Program p = parse_ok("class A { B b; } class B { int x; } proc F() { skip; }");
  ClassId b = p.find_class(p.syms().lookup("B"));
  ASSERT_TRUE(b.valid());
  EXPECT_TRUE(p.cls(b).defined);
}

TEST(Parser, DuplicateClassIsError) {
  DiagEngine diags;
  parse_and_check("class A { int x; } class A { int y; }", diags);
  EXPECT_TRUE(diags.has_errors());
}

TEST(Parser, LocalWithInAndSemicolonForms) {
  // The `;` form scopes the local over the rest of the block.
  Program p = parse_ok(R"(
    proc F() {
      local x := 1;
      local y := x + 1 in {
        skip;
      }
      return x;
    }
  )");
  const ProcInfo& f = p.proc(p.find_proc("F"));
  EXPECT_EQ(f.locals.size(), 2u);
}

TEST(Parser, WhileDesugarsToLoop) {
  Program p = parse_ok("proc F() { while (true) { skip; } }");
  bool found_loop = false;
  for_each_stmt(p, p.proc(p.find_proc("F")).body, [&](StmtId s) {
    if (p.stmt(s).kind == StmtKind::Loop) found_loop = true;
    EXPECT_NE(p.stmt(s).kind, StmtKind::Assign);
  });
  EXPECT_TRUE(found_loop);
}

TEST(Parser, LabeledLoopAndContinue) {
  Program p = parse_ok(R"(
    proc F() {
      outer: loop {
        loop {
          continue outer;
        }
      }
    }
  )");
  StmtId outer;
  for_each_stmt(p, p.proc(p.find_proc("F")).body, [&](StmtId s) {
    if (p.stmt(s).kind == StmtKind::Loop && p.stmt(s).label.valid()) outer = s;
  });
  ASSERT_TRUE(outer.valid());
  for_each_stmt(p, p.proc(p.find_proc("F")).body, [&](StmtId s) {
    if (p.stmt(s).kind == StmtKind::Continue) {
      EXPECT_EQ(p.stmt(s).jump_target, outer);
    }
  });
}

TEST(Parser, IncrementDesugarsToAssignment) {
  Program p = parse_ok("global int X; proc F() { X++; }");
  bool found = false;
  for_each_stmt(p, p.proc(p.find_proc("F")).body, [&](StmtId s) {
    if (p.stmt(s).kind == StmtKind::Assign) {
      found = true;
      EXPECT_EQ(p.expr(p.stmt(s).e2).kind, ExprKind::Binary);
    }
  });
  EXPECT_TRUE(found);
}

TEST(Parser, NonBlockingPrimitives) {
  Program p = parse_ok(R"(
    global int X;
    proc F() {
      local a := LL(X) in {
        if (VL(X)) {
          if (SC(X, a + 1)) { return; }
        }
        if (CAS(X, a, a + 2)) { return; }
      }
    }
  )");
  int lls = 0, scs = 0, vls = 0, cass = 0;
  for (size_t i = 0; i < p.num_exprs(); ++i) {
    switch (p.expr(ExprId(static_cast<uint32_t>(i))).kind) {
      case ExprKind::LL: ++lls; break;
      case ExprKind::SC: ++scs; break;
      case ExprKind::VL: ++vls; break;
      case ExprKind::CAS: ++cass; break;
      default: break;
    }
  }
  EXPECT_EQ(lls, 1);
  EXPECT_EQ(scs, 1);
  EXPECT_EQ(vls, 1);
  EXPECT_EQ(cass, 1);
}

TEST(Parser, SCTargetMustBeLocation) {
  DiagEngine diags;
  parse_and_check("proc F() { SC(1 + 2, 3); }", diags);
  EXPECT_TRUE(diags.has_errors());
}

TEST(Parser, AssignTargetMustBeLocation) {
  DiagEngine diags;
  parse_and_check("proc F() { 1 + 2 := 3; }", diags);
  EXPECT_TRUE(diags.has_errors());
}

TEST(Parser, PrecedenceAndAssociativity) {
  Program p = parse_ok("proc int F(int a, int b, int c) { return a + b * c; }");
  // Find the return expression: must be Add(a, Mul(b, c)).
  for (size_t i = 0; i < p.num_stmts(); ++i) {
    const Stmt& s = p.stmt(StmtId(static_cast<uint32_t>(i)));
    if (s.kind != StmtKind::Return || !s.e1.valid()) continue;
    const Expr& top = p.expr(s.e1);
    ASSERT_EQ(top.kind, ExprKind::Binary);
    EXPECT_EQ(top.bin_op, BinOp::Add);
    EXPECT_EQ(p.expr(top.b).bin_op, BinOp::Mul);
  }
}

TEST(Parser, SynchronizedStatement) {
  Program p = parse_ok(R"(
    class L { int d; }
    global L M;
    global int C;
    proc F() { synchronized (M) { C := C + 1; } }
  )");
  bool found = false;
  for_each_stmt(p, p.proc(p.find_proc("F")).body, [&](StmtId s) {
    if (p.stmt(s).kind == StmtKind::Synchronized) found = true;
  });
  EXPECT_TRUE(found);
}

// --- Error recovery (DESIGN.md §3c) ---------------------------------------

TEST(Recovery, BrokenProcIsStubbedHealthySiblingSurvives) {
  DiagEngine diags;
  FrontEnd fe = parse_and_recover(R"(
    global int X;
    proc Bad() { X := := 1; }
    proc Good() { X := X + 1; }
  )", diags);
  EXPECT_TRUE(diags.has_errors());
  EXPECT_TRUE(fe.contained);
  ASSERT_EQ(fe.prog.num_procs(), 2u);
  EXPECT_TRUE(fe.prog.proc(fe.prog.find_proc("Bad")).broken);
  EXPECT_FALSE(fe.prog.proc(fe.prog.find_proc("Good")).broken);
  // The healthy procedure's body is fully resolved and usable.
  bool has_assign = false;
  for_each_stmt(fe.prog, fe.prog.proc(fe.prog.find_proc("Good")).body,
                [&](StmtId s) {
                  if (fe.prog.stmt(s).kind == StmtKind::Assign)
                    has_assign = true;
                });
  EXPECT_TRUE(has_assign);
}

TEST(Recovery, BrokenCalleePropagatesToCaller) {
  DiagEngine diags;
  FrontEnd fe = parse_and_recover(R"(
    proc Bad() { 1 + ; }
    proc Caller() { Bad(); }
    proc Other() { skip; }
  )", diags);
  EXPECT_TRUE(fe.contained);
  EXPECT_TRUE(fe.prog.proc(fe.prog.find_proc("Bad")).broken);
  // A caller of a broken procedure cannot be analyzed soundly either.
  EXPECT_TRUE(fe.prog.proc(fe.prog.find_proc("Caller")).broken);
  EXPECT_FALSE(fe.prog.proc(fe.prog.find_proc("Other")).broken);
}

TEST(Recovery, ToplevelErrorsAreNotContained) {
  {
    DiagEngine diags;  // duplicate class: program-level damage
    FrontEnd fe =
        parse_and_recover("class A { int x; } class A { int y; }", diags);
    EXPECT_FALSE(fe.contained);
  }
  {
    DiagEngine diags;  // no procedure name to attach a stub to
    FrontEnd fe = parse_and_recover("proc ( ) { skip; }", diags);
    EXPECT_FALSE(fe.contained);
  }
  {
    DiagEngine diags;  // duplicate procedures: program-level damage
    FrontEnd fe =
        parse_and_recover("proc F() { skip; } proc F() { skip; }", diags);
    EXPECT_FALSE(fe.contained);
  }
}

TEST(Recovery, WhollyBrokenFileContainsButLeavesNoHealthyProc) {
  // Containment alone is not enough to analyze: the driver also requires a
  // healthy procedure, so this file still fails with a parse error there.
  DiagEngine diags;
  FrontEnd fe = parse_and_recover("proc P( {", diags);
  EXPECT_TRUE(diags.has_errors());
  EXPECT_TRUE(fe.contained);
  ASSERT_EQ(fe.prog.num_procs(), 1u);
  EXPECT_TRUE(fe.prog.proc(ProcId(0)).broken);
}

TEST(Recovery, DeepNestingIsReportedNotACrash) {
  std::string deep = "proc F() { ";
  for (int i = 0; i < 300; ++i) deep += "if (true) { ";
  deep += "skip; ";
  for (int i = 0; i < 300; ++i) deep += "} ";
  deep += "} proc G() { skip; }";
  DiagEngine diags;
  FrontEnd fe = parse_and_recover(deep, diags);
  EXPECT_TRUE(diags.has_errors());
  EXPECT_TRUE(fe.contained);
  // A silently truncated AST would be unsound; the deep procedure must be
  // marked broken while its sibling survives.
  EXPECT_TRUE(fe.prog.proc(fe.prog.find_proc("F")).broken);
  EXPECT_FALSE(fe.prog.proc(fe.prog.find_proc("G")).broken);
}

TEST(Recovery, DeeplyNestedExpressionIsReportedNotACrash) {
  std::string deep = "proc F() { return " + std::string(5000, '(') + "1" +
                     std::string(5000, ')') + "; }";
  DiagEngine diags;
  parse_and_recover(deep, diags);
  EXPECT_TRUE(diags.has_errors());
}

TEST(Recovery, LocalSemicolonOutsideBlockIsDiagnosedNotACrash) {
  DiagEngine diags;
  FrontEnd fe =
      parse_and_recover("global int C; proc F() { if (C > 0) local x := 1; }",
                        diags);
  EXPECT_TRUE(diags.has_errors());
  EXPECT_TRUE(fe.contained);
  EXPECT_TRUE(fe.prog.proc(fe.prog.find_proc("F")).broken);
}

TEST(Recovery, ValidProgramIsUntouchedByRecoveryPath) {
  DiagEngine d1, d2;
  std::string_view src = corpus::get("nfq_prime").source;
  Program p1 = parse_and_check(src, d1);
  FrontEnd fe = parse_and_recover(src, d2);
  EXPECT_FALSE(d2.has_errors());
  EXPECT_TRUE(fe.contained);
  EXPECT_EQ(print_program(fe.prog), print_program(p1));
}

// --- Round-trip property: print(parse(print(p))) == print(p) -------------

class RoundTrip : public ::testing::TestWithParam<corpus::Entry> {};

TEST_P(RoundTrip, PrinterIsReparseFixpoint) {
  DiagEngine d1;
  Program p1 = parse_and_check(GetParam().source, d1);
  ASSERT_FALSE(d1.has_errors()) << d1.dump();
  std::string printed1 = print_program(p1);

  DiagEngine d2;
  Program p2 = parse_and_check(printed1, d2);
  ASSERT_FALSE(d2.has_errors()) << d2.dump() << "\n--- printed ---\n" << printed1;
  std::string printed2 = print_program(p2);
  EXPECT_EQ(printed1, printed2);
}

INSTANTIATE_TEST_SUITE_P(Corpus, RoundTrip,
                         ::testing::ValuesIn(corpus::all()),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

// Parameterized by the entry name, as CompileAll and InferAll are: gtest
// names a corpus::Entry parameter by a byte dump that starts with string
// addresses, which reached this test's nfq name within the 100 characters
// ctest lists. PrinterIsReparseFixpoint's names end before any address.
class RoundTripShape : public ::testing::TestWithParam<std::string> {};

TEST_P(RoundTripShape, ReparsePreservesShape) {
  DiagEngine d1, d2;
  Program p1 = parse_and_check(corpus::get(GetParam()).source, d1);
  Program p2 = parse_and_check(print_program(p1), d2);
  ASSERT_FALSE(d2.has_errors()) << d2.dump();
  EXPECT_EQ(p1.num_procs(), p2.num_procs());
  EXPECT_EQ(p1.globals().size(), p2.globals().size());
  EXPECT_EQ(p1.threadlocals().size(), p2.threadlocals().size());
}

std::vector<std::string> corpus_names() {
  std::vector<std::string> out;
  for (const corpus::Entry& e : corpus::all()) out.emplace_back(e.name);
  return out;
}

INSTANTIATE_TEST_SUITE_P(Corpus, RoundTripShape,
                         ::testing::ValuesIn(corpus_names()),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace synat::synl
