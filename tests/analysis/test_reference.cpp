// Reference tests: the flat per-procedure analyses against the ones they
// replaced (reference_analyses.h), on every corpus entry, examples/synl and
// the seed-1 160-procedure generated program in both alias modes, for every
// original procedure and every exceptional variant.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>

#include "../support/reference_inputs.h"
#include "reference_analyses.h"
#include "synat/analysis/locksets.h"
#include "synat/analysis/proc_analysis.h"
#include "synat/atomicity/variants.h"
#include "synat/synl/parser.h"

namespace synat::analysis {
namespace {

using synl::Program;

/// Calls fn(where, prog, proc) for every original procedure and every
/// exceptional variant of every reference input; returns how many.
size_t for_each_reference_proc(
    const std::function<void(const std::string&, const Program&,
                             synl::ProcId)>& fn) {
  size_t procs = 0;
  for (const auto& [name, source] : test_support::reference_inputs()) {
    DiagEngine diags;
    synl::FrontEnd fe = synl::parse_and_recover(source, diags);
    EXPECT_FALSE(diags.has_errors()) << name << "\n" << diags.dump();
    Program& prog = fe.prog;
    const size_t originals = prog.num_procs();
    for (size_t p = 0; p < originals; ++p) {
      synl::ProcId pid(static_cast<uint32_t>(p));
      atomicity::generate_variants(prog, pid, atomicity::loop_verdicts(prog, pid),
                                   diags);
    }
    for (size_t p = 0; p < prog.num_procs(); ++p) {
      synl::ProcId pid(static_cast<uint32_t>(p));
      const synl::ProcInfo& info = prog.proc(pid);
      fn(name + " " +
             (info.variant_tag.empty() ? std::string(prog.syms().name(info.name))
                                       : info.variant_tag),
         prog, pid);
      ++procs;
    }
  }
  return procs;
}

TEST(ReferenceAnalyses, MatchingMatchesTheMapImplementation) {
  size_t primitives = 0;
  const size_t procs = for_each_reference_proc(
      [&](const std::string& where, const Program& prog, synl::ProcId pid) {
        ProcAnalysis pa(prog, pid);
        const cfg::Cfg& cfg = pa.cfg();
        reference::MatchingAnalysis want(prog, cfg);
        for (uint32_t i = 0; i < cfg.num_nodes(); ++i) {
          const cfg::EventId e(i);
          const reference::MatchInfo* w = want.info(e);
          const MatchInfo* g = pa.matching().info(e);
          ASSERT_EQ(g == nullptr, w == nullptr) << where << " n" << i;
          if (g != nullptr) {
            EXPECT_EQ(g->complete, w->complete) << where << " n" << i;
            EXPECT_TRUE(std::ranges::equal(g->matches, w->matches))
                << where << " n" << i;
            ++primitives;
          }
          if (cfg.node(e).kind == cfg::EventKind::LL ||
              cfg.node(e).kind == cfg::EventKind::Read) {
            const std::span<const cfg::EventId> got = pa.matching().matched_by(e);
            EXPECT_TRUE(std::ranges::is_sorted(got)) << where << " n" << i;
            std::vector<cfg::EventId> expected = want.matched_by(e);
            std::sort(expected.begin(), expected.end());
            EXPECT_TRUE(std::ranges::equal(got, expected)) << where << " n" << i;
          }
        }
      });
  EXPECT_GT(procs, 0u);
  EXPECT_GT(primitives, 0u);
}

TEST(ReferenceAnalyses, LocalBlocksMatchTheMapImplementation) {
  size_t blocks = 0;
  for_each_reference_proc(
      [&](const std::string& where, const Program& prog, synl::ProcId pid) {
        ProcAnalysis pa(prog, pid);
        reference::LocalCondAnalysis want(prog, pa.cfg());
        const std::vector<LocalBlock>& got = pa.localcond().blocks();
        ASSERT_EQ(got.size(), want.blocks().size()) << where;
        for (size_t b = 0; b < got.size(); ++b) {
          const LocalBlock& g = got[b];
          const reference::LocalBlock& w = want.blocks()[b];
          ASSERT_EQ(g.stmt, w.stmt) << where << " block " << b;
          EXPECT_EQ(pa.localcond().block_for(g.stmt), &g) << where;
          EXPECT_EQ(want.block_for(w.stmt), &w) << where;
          EXPECT_EQ(g.lvar, w.lvar) << where;
          EXPECT_TRUE(g.svar == w.svar) << where;
          EXPECT_EQ(g.reads_svar, w.reads_svar) << where;
          EXPECT_EQ(g.init_is_ll, w.init_is_ll) << where;
          EXPECT_EQ(g.lvar_updated, w.lvar_updated) << where;
          EXPECT_EQ(g.has_successful_sc, w.has_successful_sc) << where;
          EXPECT_EQ(g.cond, w.cond) << where;
          EXPECT_TRUE(std::ranges::equal(g.events, w.events))
              << where << " block " << b;
          ++blocks;
        }
      });
  EXPECT_GT(blocks, 0u);
}

TEST(ReferenceAnalyses, LocalActionsMatchTheMapImplementation) {
  size_t local = 0;
  for_each_reference_proc(
      [&](const std::string& where, const Program& prog, synl::ProcId pid) {
        ProcAnalysis pa(prog, pid);
        const cfg::Cfg& cfg = pa.cfg();
        reference::EscapeAnalysis escape(prog, cfg);
        reference::UniqueAnalysis unique(prog, cfg);
        for (uint32_t i = 0; i < cfg.num_nodes(); ++i) {
          const cfg::EventId e(i);
          const bool want =
              reference::is_local_action(prog, cfg, escape, unique, e);
          EXPECT_EQ(pa.is_local_action(e), want) << where << " n" << i;
          const cfg::AccessPath& path = cfg.node(e).path;
          if (path.root.valid()) {
            EXPECT_EQ(pa.escape().is_fresh_var(path.root),
                      escape.is_fresh_var(path.root))
                << where << " n" << i;
            EXPECT_EQ(pa.unique().is_working_copy(path.root),
                      unique.is_working_copy(path.root))
                << where << " n" << i;
          }
          if (want && !path.is_plain_var()) ++local;
        }
      });
  EXPECT_GT(local, 0u);
}

TEST(ReferenceAnalyses, LockSetsMatchTheVectorDataflow) {
  size_t held = 0;
  for_each_reference_proc(
      [&](const std::string& where, const Program& prog, synl::ProcId pid) {
        const cfg::Cfg cfg = cfg::build_cfg(prog, pid);
        const LockSets got(cfg);
        const std::vector<std::vector<cfg::AccessPath>> want =
            reference::lock_sets(cfg);
        ASSERT_EQ(want.size(), cfg.num_nodes()) << where;
        for (uint32_t i = 0; i < cfg.num_nodes(); ++i) {
          EXPECT_TRUE(std::ranges::equal(got.held(cfg::EventId(i)), want[i]))
              << where << " n" << i;
          held += want[i].size();
        }
      });
  EXPECT_GT(held, 0u);
}

}  // namespace
}  // namespace synat::analysis
