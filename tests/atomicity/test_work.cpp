// Work-count gate for the conflict analysis. The counters are deterministic,
// so the gate uses no wall-clock time. In a program where no two template
// instances share a location (the generator's disjoint mode), the alias
// index must keep the candidates of steps 2 and 4 and the exclusion checks
// linear in the program's size. In both alias modes, the holder-class keys
// must hand out no candidate that may_alias then rejects.
#include <gtest/gtest.h>

#include "gen.h"
#include "synat/atomicity/infer.h"
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

}  // namespace
}  // namespace synat::atomicity
