// Work-count gate for the conflict analysis. The counters are deterministic,
// so the gate uses no wall-clock time. In a program where no two template
// instances share a location (the generator's disjoint mode), the alias
// index must keep the candidates of steps 2 and 4 and the exclusion checks
// linear in the program's size. In both alias modes, the holder-class keys
// must hand out no candidate that may_alias then rejects. Building a
// universe analyzes each variant once and each original procedure only if
// it has a loop, whose §4 verdicts step 0 reads.
#include <gtest/gtest.h>

#include "gen.h"
#include "synat/atomicity/infer.h"
#include "synat/corpus/corpus.h"
#include "synat/obs/metrics.h"
#include "synat/synl/parser.h"

namespace synat::atomicity {
namespace {

struct Work {
  uint64_t candidates = 0;
  uint64_t rejected = 0;
  uint64_t exclusion_checks = 0;
};

uint64_t count(const char* name) {
  return obs::registry().counter(name).value();
}

/// The work counters' growth over one whole-program analysis of the
/// seed-1 generated program with `procs` procedures.
Work analyze(size_t procs, perfbench::AliasMode mode) {
  perfbench::GenOptions o;
  o.procs = procs;
  o.seed = 1;
  o.mode = mode;
  perfbench::GenProgram gen(o);
  DiagEngine diags;
  synl::FrontEnd fe = synl::parse_and_recover(gen.render(), diags);
  EXPECT_FALSE(diags.has_errors()) << diags.dump();
  InferOptions opts;
  for (const std::string& c : gen.counted()) opts.counted_cas.push_back(c);

  Work before{count("synat_alias_candidates_total"),
              count("synat_alias_rejected_total"),
              count("synat_exclusion_checks_total")};
  AtomicityResult r = infer_atomicity(fe.prog, diags, opts);
  EXPECT_EQ(r.procs().size(), gen.num_procs());
  return {count("synat_alias_candidates_total") - before.candidates,
          count("synat_alias_rejected_total") - before.rejected,
          count("synat_exclusion_checks_total") - before.exclusion_checks};
}

TEST(ConflictWork, DisjointProgramsGrowLinearly) {
  Work small = analyze(320, perfbench::AliasMode::Disjoint);
  Work large = analyze(640, perfbench::AliasMode::Disjoint);
  ASSERT_GT(small.candidates, 0u);
  ASSERT_GT(small.exclusion_checks, 0u);
  EXPECT_LE(static_cast<double>(large.candidates),
            2.3 * static_cast<double>(small.candidates))
      << small.candidates << " -> " << large.candidates;
  EXPECT_LE(static_cast<double>(large.exclusion_checks),
            2.3 * static_cast<double>(small.exclusion_checks))
      << small.exclusion_checks << " -> " << large.exclusion_checks;
}

TEST(ConflictWork, HolderClassKeysHandOutNoRejectedCandidate) {
  for (perfbench::AliasMode mode :
       {perfbench::AliasMode::Disjoint, perfbench::AliasMode::Shared}) {
    for (size_t procs : {320u, 640u}) {
      Work w = analyze(procs, mode);
      EXPECT_GT(w.candidates, 0u);
      EXPECT_EQ(w.rejected, 0u)
          << procs << " procedures, "
          << (mode == perfbench::AliasMode::Shared ? "shared" : "disjoint");
    }
  }
}

/// Stage observations of one universe build and classification.
struct Built {
  uint64_t cfgs = 0;      ///< cfg_liveness observations
  uint64_t purities = 0;  ///< purity observations
  uint64_t variants = 0;
  uint64_t looping = 0;   ///< original procedures with a `loop` statement
};

Built analyses_built(const std::string& source,
                     const std::vector<std::string>& counted) {
  DiagEngine diags;
  synl::FrontEnd fe = synl::parse_and_recover(source, diags);
  EXPECT_FALSE(diags.has_errors()) << diags.dump();
  Built b;
  for (size_t p = 0; p < fe.prog.num_procs(); ++p) {
    bool loop = false;
    synl::for_each_stmt(
        fe.prog, fe.prog.proc(synl::ProcId(static_cast<uint32_t>(p))).body,
        [&](synl::StmtId sid) {
          if (fe.prog.stmt(sid).kind == synl::StmtKind::Loop) loop = true;
        });
    b.looping += loop ? 1 : 0;
  }
  InferOptions opts;
  opts.counted_cas = counted;
  obs::Histogram& cfg =
      obs::registry().stage_histogram(obs::StageId::CfgLiveness);
  obs::Histogram& purity =
      obs::registry().stage_histogram(obs::StageId::Purity);
  const uint64_t cfg0 = cfg.count();
  const uint64_t purity0 = purity.count();
  const uint32_t saved = obs::flags();
  obs::set_flags(obs::kMetricsFlag);
  AtomicityResult r = infer_atomicity(fe.prog, diags, opts);
  obs::set_flags(saved);
  b.cfgs = cfg.count() - cfg0;
  b.purities = purity.count() - purity0;
  for (const ProcResult& pr : r.procs()) b.variants += pr.variants.size();
  return b;
}

TEST(ConflictWork, UniverseAnalyzesVariantsAndLoopingOriginalsOnly) {
  for (perfbench::AliasMode mode :
       {perfbench::AliasMode::Disjoint, perfbench::AliasMode::Shared}) {
    perfbench::GenOptions o;
    o.procs = 160;
    o.seed = 1;
    o.mode = mode;
    perfbench::GenProgram gen(o);
    Built b = analyses_built(gen.render(), gen.counted());
    const char* where =
        mode == perfbench::AliasMode::Shared ? "shared" : "disjoint";
    EXPECT_EQ(b.cfgs, b.variants + b.looping) << where;
    EXPECT_EQ(b.purities, b.looping) << where;
    EXPECT_EQ(b.cfgs, 304u) << where;
    EXPECT_EQ(b.purities, 96u) << where;
  }

  Built corpus_total;
  for (const corpus::Entry& e : corpus::all()) {
    std::vector<std::string> counted(e.counted_cas.begin(),
                                     e.counted_cas.end());
    Built b = analyses_built(std::string(e.source), counted);
    EXPECT_EQ(b.cfgs, b.variants + b.looping) << e.name;
    EXPECT_EQ(b.purities, b.looping) << e.name;
    corpus_total.cfgs += b.cfgs;
    corpus_total.purities += b.purities;
  }
  EXPECT_EQ(corpus::all().size(), 17u);
  EXPECT_EQ(corpus_total.cfgs, 98u);
  EXPECT_EQ(corpus_total.purities, 37u);
}

}  // namespace
}  // namespace synat::atomicity
