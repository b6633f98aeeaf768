// The conflict universe is built once per program and classifies any subset
// of its procedures: classify(p) alone must give exactly the whole-program
// result for p, and the universe's own fingerprint must equal the one
// fingerprint_program computes on a private reparse — which is what keeps
// the driver's cache addresses stable.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "gen.h"
#include "synat/atomicity/infer.h"
#include "synat/corpus/corpus.h"
#include "synat/support/thread_pool.h"
#include "synat/synl/parser.h"

namespace synat::atomicity {
namespace {

using synl::ProcId;
using synl::Program;

struct Input {
  std::string name;
  std::string source;
  InferOptions opts;
};

/// Every corpus entry and every examples/synl program.
std::vector<Input> inputs() {
  std::vector<Input> out;
  for (const corpus::Entry& e : corpus::all()) {
    Input in{std::string(e.name), std::string(e.source), {}};
    for (auto c : e.counted_cas) in.opts.counted_cas.emplace_back(c);
    out.push_back(std::move(in));
  }
  std::vector<std::filesystem::path> files;
  for (const auto& f : std::filesystem::directory_iterator(SYNAT_EXAMPLES_DIR))
    if (f.path().extension() == ".synl") files.push_back(f.path());
  std::sort(files.begin(), files.end());
  for (const std::filesystem::path& f : files) {
    std::ifstream in(f);
    std::stringstream ss;
    ss << in.rdbuf();
    out.push_back({f.filename().string(), ss.str(), {}});
  }
  return out;
}

Program parse(const Input& in) {
  DiagEngine diags;
  synl::FrontEnd fe = synl::parse_and_recover(in.source, diags);
  EXPECT_FALSE(diags.has_errors()) << in.name << "\n" << diags.dump();
  return std::move(fe.prog);
}

/// Everything a report renders from one procedure's result.
std::string render(const Program& prog, const ProcResult& pr) {
  AtomicityResult lister;
  std::string out = std::string(to_string(pr.atomicity)) +
                    (pr.atomic ? " atomic" : " not-atomic") +
                    (pr.no_variants ? " no-variants" : "") +
                    (pr.bailed_out ? " bailed-out" : "") + "\n";
  for (const VariantResult& v : pr.variants) out += lister.listing(prog, v);
  return out;
}

TEST(ConflictUniverse, ClassifyingOneProcedureMatchesTheWholeProgramRun) {
  for (const Input& in : inputs()) {
    for (bool provenance : {false, true}) {
      InferOptions opts = in.opts;
      opts.provenance = provenance;
      DiagEngine diags;
      Program whole = parse(in);
      AtomicityResult all = infer_atomicity(whole, diags, opts);
      for (const ProcResult& expected : all.procs()) {
        // A fresh universe per procedure: nothing else is classified.
        Program prog = parse(in);
        ConflictUniverse universe(prog, diags, opts);
        ASSERT_EQ(universe.num_procs(), all.procs().size()) << in.name;
        ProcResult got = universe.classify(expected.proc);
        std::string where = in.name + " proc " +
                            std::string(prog.syms().name(
                                prog.proc(expected.proc).name)) +
                            (provenance ? " provenance" : "");
        EXPECT_EQ(render(prog, got), render(whole, expected)) << where;
        EXPECT_EQ(got.prov, expected.prov) << where;
        ASSERT_EQ(got.variants.size(), expected.variants.size()) << where;
        for (size_t v = 0; v < got.variants.size(); ++v)
          EXPECT_EQ(got.variants[v].prov, expected.variants[v].prov) << where;
      }
    }
  }
}

TEST(ConflictUniverse, FingerprintEqualsFingerprintProgram) {
  for (const Input& in : inputs()) {
    Program pristine = parse(in);
    ProgramFingerprint fp = fingerprint_program(pristine, in.opts);
    ASSERT_TRUE(fp.complete) << in.name;

    // The driver's path: the universe built on its own parse, content
    // hashed after the variants were appended.
    Program prog = parse(in);
    DiagEngine diags;
    ConflictUniverse universe(prog, diags, in.opts);
    EXPECT_EQ(universe.fingerprint(), fp.universe) << in.name;
    ASSERT_EQ(fp.content.size(), universe.num_procs()) << in.name;
    for (size_t p = 0; p < fp.content.size(); ++p)
      EXPECT_EQ(content_fingerprint(prog, ProcId(static_cast<uint32_t>(p))),
                fp.content[p])
          << in.name << " proc " << p;
  }
}

// Pool helpers build contexts at the same time, each filling its own
// thread's reused buffers: the universe must not depend on which thread
// built which context. The 640-procedure programs keep all four workers
// busy (a TSan job runs this test).
TEST(ConflictUniverse, PoolBuildMatchesSerialBuild) {
  ThreadPool pool(4);
  for (perfbench::AliasMode mode :
       {perfbench::AliasMode::Disjoint, perfbench::AliasMode::Shared}) {
    perfbench::GenOptions o;
    o.procs = 640;
    o.seed = 1;
    o.mode = mode;
    perfbench::GenProgram gen(o);
    Input in{mode == perfbench::AliasMode::Shared ? "gen640 shared"
                                                  : "gen640 disjoint",
             gen.render(), {}};
    in.opts.counted_cas = gen.counted();
    DiagEngine diags;
    Program serial_prog = parse(in);
    Program pool_prog = parse(in);
    ConflictUniverse serial(serial_prog, diags, in.opts);
    ConflictUniverse pooled(pool_prog, diags, in.opts, &pool);
    EXPECT_EQ(pooled.fingerprint(), serial.fingerprint()) << in.name;
    ASSERT_EQ(pooled.num_procs(), serial.num_procs()) << in.name;
    for (size_t p = 0; p < serial.num_procs(); ++p) {
      const ProcId pid(static_cast<uint32_t>(p));
      EXPECT_EQ(render(pool_prog, pooled.classify(pid)),
                render(serial_prog, serial.classify(pid)))
          << in.name << " proc " << p;
    }
  }
}

// A procedure over the variant budget stays in the universe as its clone:
// only its own classification fails; the others still classify (and
// AddNode/UpdateTail stay atomic against the clone's conflicts).
TEST(ConflictUniverse, VariantBudgetFailsOnlyTheExplodingProcedure) {
  const corpus::Entry& e = corpus::get("nfq_prime");
  Input in{"nfq_prime", std::string(e.source), {}};
  InferOptions capped;
  capped.variant_opts.max_variants = 1;  // Deq has two variants
  Program prog = parse(in);
  DiagEngine diags;
  ConflictUniverse universe(prog, diags, capped);
  for (size_t p = 0; p < universe.num_procs(); ++p) {
    ProcId pid(static_cast<uint32_t>(p));
    std::string name(prog.syms().name(prog.proc(pid).name));
    if (name == "Deq") {
      try {
        universe.classify(pid);
        ADD_FAILURE() << "Deq must exceed the variant budget";
      } catch (const BudgetExceeded& ex) {
        EXPECT_EQ(ex.reason(), "max-variants");
      }
      continue;
    }
    EXPECT_TRUE(universe.classify(pid).atomic) << name;
  }
}

}  // namespace
}  // namespace synat::atomicity
