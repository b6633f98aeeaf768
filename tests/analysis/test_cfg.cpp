#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "synat/cfg/cfg.h"
#include "synat/corpus/corpus.h"
#include "synat/synl/parser.h"

namespace synat::cfg {
namespace {

using synl::Program;

Program parse_ok(std::string_view src) {
  DiagEngine diags;
  Program p = synl::parse_and_check(src, diags);
  EXPECT_FALSE(diags.has_errors()) << diags.dump();
  return p;
}

/// Every node reachable from the entry.
NodeSet reachable_from_entry(const Cfg& cfg) {
  NodeSet seen(cfg.num_nodes());
  std::vector<EventId> work;
  cfg.reach(cfg.entry(), [](EventId) { return true; }, seen, work);
  return seen;
}

// --- structural invariants over the whole corpus --------------------------

// Parameterized by the entry name, as RoundTripShape is: gtest names a
// corpus::Entry parameter by a byte dump that starts with string addresses,
// which reached this test's gh_mc and nfq names within the 100 characters
// ctest lists, so any change to the code this binary links renamed them.
class CfgEdges : public ::testing::TestWithParam<std::string> {};

TEST_P(CfgEdges, EdgesAreMirrored) {
  Program p = parse_ok(corpus::get(GetParam()).source);
  for (size_t i = 0; i < p.num_procs(); ++i) {
    Cfg cfg = build_cfg(p, synl::ProcId(static_cast<uint32_t>(i)));
    for (uint32_t n = 0; n < cfg.num_nodes(); ++n) {
      for (const Edge& e : cfg.succs(EventId(n))) {
        bool mirrored = false;
        for (const Edge& back : cfg.preds(e.to))
          if (back.to == EventId(n) && back.kind == e.kind) mirrored = true;
        EXPECT_TRUE(mirrored) << "succ edge without matching pred";
      }
    }
  }
}

std::vector<std::string> corpus_names() {
  std::vector<std::string> out;
  for (const corpus::Entry& e : corpus::all()) out.emplace_back(e.name);
  return out;
}

INSTANTIATE_TEST_SUITE_P(Corpus, CfgEdges,
                         ::testing::ValuesIn(corpus_names()),
                         [](const auto& info) { return info.param; });

class CfgInvariants : public ::testing::TestWithParam<corpus::Entry> {};

TEST_P(CfgInvariants, EntryHasNoPredsExitNoSuccs) {
  Program p = parse_ok(GetParam().source);
  for (size_t i = 0; i < p.num_procs(); ++i) {
    Cfg cfg = build_cfg(p, synl::ProcId(static_cast<uint32_t>(i)));
    EXPECT_TRUE(cfg.preds(cfg.entry()).empty());
    EXPECT_TRUE(cfg.succs(cfg.exit()).empty());
  }
}

TEST_P(CfgInvariants, BackEdgeSourcesAreLoopMembers) {
  Program p = parse_ok(GetParam().source);
  for (size_t i = 0; i < p.num_procs(); ++i) {
    Cfg cfg = build_cfg(p, synl::ProcId(static_cast<uint32_t>(i)));
    for (const LoopInfo& loop : cfg.loops()) {
      for (EventId src : loop.back_sources) {
        EXPECT_TRUE(cfg.in_loop(src, loop.stmt));
      }
    }
  }
}

TEST_P(CfgInvariants, ActionsHaveValidPathsWhereExpected) {
  Program p = parse_ok(GetParam().source);
  for (size_t i = 0; i < p.num_procs(); ++i) {
    Cfg cfg = build_cfg(p, synl::ProcId(static_cast<uint32_t>(i)));
    for (uint32_t n = 0; n < cfg.num_nodes(); ++n) {
      const Event& ev = cfg.node(EventId(n));
      switch (ev.kind) {
        case EventKind::Read:
        case EventKind::Write:
        case EventKind::LL:
        case EventKind::VL:
        case EventKind::SC:
        case EventKind::CAS:
          EXPECT_TRUE(ev.path.root.valid())
              << "action without location in " << cfg.dump(p);
          break;
        default:
          break;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Corpus, CfgInvariants,
                         ::testing::ValuesIn(corpus::all()),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

// --- targeted shape checks -------------------------------------------------

TEST(Cfg, StraightLineOrder) {
  Program p = parse_ok(R"(
    global int X;
    proc F() {
      local a := X in {
        X := a + 1;
      }
    }
  )");
  Cfg cfg = build_cfg(p, synl::ProcId(0));
  // entry -> Read(X) -> Write(a) -> Read(a) -> Write(X) -> exit
  std::vector<EventKind> kinds;
  EventId cur = cfg.entry();
  while (cur != cfg.exit()) {
    ASSERT_EQ(cfg.succs(cur).size(), 1u);
    cur = cfg.succs(cur)[0].to;
    kinds.push_back(cfg.node(cur).kind);
  }
  std::vector<EventKind> expect = {EventKind::Read, EventKind::Write,
                                   EventKind::Read, EventKind::Write,
                                   EventKind::Exit};
  EXPECT_EQ(kinds, expect);
}

TEST(Cfg, IfProducesTrueFalseEdges) {
  Program p = parse_ok("proc F(int a) { if (a > 0) { return; } }");
  Cfg cfg = build_cfg(p, synl::ProcId(0));
  int true_edges = 0, false_edges = 0;
  for (uint32_t n = 0; n < cfg.num_nodes(); ++n) {
    for (const Edge& e : cfg.succs(EventId(n))) {
      if (e.kind == EdgeKind::True) ++true_edges;
      if (e.kind == EdgeKind::False) ++false_edges;
    }
  }
  EXPECT_EQ(true_edges, 1);
  EXPECT_EQ(false_edges, 1);
}

TEST(Cfg, LoopHasBackEdge) {
  Program p = parse_ok("global int X; proc F() { loop { X := X + 1; } }");
  Cfg cfg = build_cfg(p, synl::ProcId(0));
  ASSERT_EQ(cfg.loops().size(), 1u);
  EXPECT_FALSE(cfg.loops()[0].back_sources.empty());
}

TEST(Cfg, BreakLeavesLoop) {
  Program p = parse_ok("proc F() { loop { break; } return; }");
  Cfg cfg = build_cfg(p, synl::ProcId(0));
  // The exit must be reachable from entry.
  const NodeSet reach = reachable_from_entry(cfg);
  EXPECT_TRUE(reach.count(cfg.exit()));
}

TEST(Cfg, SynchronizedEmitsAcquireRelease) {
  Program p = parse_ok(R"(
    class L { int d; }
    global L M;
    global int C;
    proc F() { synchronized (M) { C := 1; } }
  )");
  Cfg cfg = build_cfg(p, synl::ProcId(0));
  int acq = 0, rel = 0;
  for (uint32_t n = 0; n < cfg.num_nodes(); ++n) {
    if (cfg.node(EventId(n)).kind == EventKind::Acquire) ++acq;
    if (cfg.node(EventId(n)).kind == EventKind::Release) ++rel;
  }
  EXPECT_EQ(acq, 1);
  EXPECT_EQ(rel, 1);
}

TEST(Cfg, ReturnInsideSynchronizedReleasesLock) {
  Program p = parse_ok(R"(
    class L { int d; }
    global L M;
    proc F() { synchronized (M) { return; } }
  )");
  Cfg cfg = build_cfg(p, synl::ProcId(0));
  // Two releases: one on the return path, one structural at block end
  // (the structural one is unreachable but present).
  int rel = 0;
  for (uint32_t n = 0; n < cfg.num_nodes(); ++n)
    if (cfg.node(EventId(n)).kind == EventKind::Release) ++rel;
  EXPECT_EQ(rel, 2);
  // On every path from entry to exit, #acquire == #release; the single
  // reachable path here is acquire then the jump-release.
  EventId cur = cfg.entry();
  int depth = 0;
  while (cur != cfg.exit()) {
    ASSERT_FALSE(cfg.succs(cur).empty());
    cur = cfg.succs(cur)[0].to;
    if (cfg.node(cur).kind == EventKind::Acquire) ++depth;
    if (cfg.node(cur).kind == EventKind::Release) --depth;
  }
  EXPECT_EQ(depth, 0);
}

TEST(Cfg, BaseReadsAreFlagged) {
  Program p = parse_ok(R"(
    class Node { int v; }
    global Node N;
    proc F() {
      local x := N.v in { skip; }
    }
  )");
  Cfg cfg = build_cfg(p, synl::ProcId(0));
  bool base_read_n = false, value_read_nv = false;
  for (uint32_t n = 0; n < cfg.num_nodes(); ++n) {
    const Event& ev = cfg.node(EventId(n));
    if (ev.kind != EventKind::Read) continue;
    if (ev.path.is_plain_var() && ev.is_base) base_read_n = true;
    if (!ev.path.is_plain_var() && !ev.is_base) value_read_nv = true;
  }
  EXPECT_TRUE(base_read_n);
  EXPECT_TRUE(value_read_nv);
}

TEST(Cfg, AssumeFalseIsDeadEnd) {
  Program p = parse_ok("global int X; proc F() { TRUE(false); X := 1; }");
  Cfg cfg = build_cfg(p, synl::ProcId(0));
  // The write after TRUE(false) must be unreachable from entry.
  const NodeSet reach = reachable_from_entry(cfg);
  for (uint32_t n = 0; n < cfg.num_nodes(); ++n) {
    const Event& ev = cfg.node(EventId(n));
    if (ev.kind == EventKind::Write) {
      EXPECT_FALSE(reach.count(EventId(n)));
    }
  }
}

TEST(Cfg, MustSucceedPolarity) {
  Program p = parse_ok(R"(
    global int X;
    proc F() {
      local a := LL(X) in {
        TRUE(SC(X, a));        // positive: must succeed
        TRUE(!SC(X, a));       // negated: may not
        TRUE(VL(X) && a > 0);  // conjunction keeps polarity
      }
    }
  )");
  Cfg cfg = build_cfg(p, synl::ProcId(0));
  std::vector<bool> sc_flags;
  bool vl_flag = false;
  for (uint32_t n = 0; n < cfg.num_nodes(); ++n) {
    const Event& ev = cfg.node(EventId(n));
    if (ev.kind == EventKind::SC) sc_flags.push_back(ev.must_succeed);
    if (ev.kind == EventKind::VL) vl_flag = ev.must_succeed;
  }
  ASSERT_EQ(sc_flags.size(), 2u);
  EXPECT_TRUE(sc_flags[0]);
  EXPECT_FALSE(sc_flags[1]);
  EXPECT_TRUE(vl_flag);
}

// A path keeps two selectors inline and moves longer ones to the heap;
// copies, moves and comparisons see the same selectors either way.
TEST(Cfg, PathsLongerThanTheInlineSelectorsSpill) {
  Program p = parse_ok(R"(
    class Node { Node next; int v; }
    global Node N;
    proc F() { N.next.next.next.v := 1; }
  )");
  Cfg cfg = build_cfg(p, synl::ProcId(0));
  const AccessPath* written = nullptr;
  for (uint32_t n = 0; n < cfg.num_nodes(); ++n) {
    const Event& ev = cfg.node(EventId(n));
    if (ev.kind == EventKind::Write) written = &ev.path;
  }
  ASSERT_NE(written, nullptr);
  ASSERT_EQ(written->sels.size(), 4u);
  EXPECT_GT(written->sels.size(), SelectorList::kInline);
  EXPECT_EQ(written->str(p), "N.next.next.next.v");

  AccessPath copy = *written;
  EXPECT_TRUE(copy == *written);
  AccessPath moved = std::move(copy);
  EXPECT_TRUE(moved == *written);
  EXPECT_TRUE(copy.sels.empty());
  copy = moved;  // back into the moved-from path
  EXPECT_TRUE(copy == *written);
  AccessPath shorter;
  shorter.root = written->root;
  shorter.sels.push_back(written->sels[0]);
  moved = shorter;  // a spilled list takes a short one
  EXPECT_TRUE(moved == shorter);
  EXPECT_FALSE(moved == *written);
  EXPECT_EQ(moved.last_field(), written->sels[0].field);
}

}  // namespace
}  // namespace synat::cfg
