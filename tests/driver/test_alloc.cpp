// Allocation gates: heap allocations per procedure in a warm `--jobs 1`
// batch, and per variant while a conflict universe is built. This binary
// replaces the global operator new and its deletes with versions that
// count calls and forward to malloc, so a change that brings back
// per-node containers on the per-procedure path fails here instead of only
// slowing the benchmark. Sanitizer builds keep their own allocator: the
// replacement is compiled out and the tests skip.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "gen.h"
#include "synat/atomicity/infer.h"
#include "synat/corpus/corpus.h"
#include "synat/driver/driver.h"
#include "synat/obs/metrics.h"
#include "synat/synl/parser.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SYNAT_COUNT_ALLOCS 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define SYNAT_COUNT_ALLOCS 0
#endif
#endif
#ifndef SYNAT_COUNT_ALLOCS
#define SYNAT_COUNT_ALLOCS 1
#endif

namespace {
std::atomic<uint64_t> g_news{0};
}  // namespace

#if SYNAT_COUNT_ALLOCS
void* operator new(std::size_t n) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#endif

namespace synat::driver {
namespace {

/// operator new calls per reported procedure in the third of three
/// `--jobs 1` runs over `inputs`; the first two warm the registries and
/// other process-lifetime state.
double warm_news_per_proc(const std::vector<ProgramInput>& inputs) {
  DriverOptions opts;
  opts.jobs = 1;
  uint64_t news = 0;
  size_t procs = 0;
  for (int run = 0; run < 3; ++run) {
    BatchDriver drv(opts);
    const uint64_t before = g_news.load(std::memory_order_relaxed);
    BatchReport report = drv.run(inputs);
    news = g_news.load(std::memory_order_relaxed) - before;
    procs = report.metrics.procedures;
  }
  EXPECT_GT(procs, 0u);
  return procs == 0 ? 0.0 : static_cast<double>(news) / procs;
}

TEST(AllocBudget, CorpusAtJobs1) {
  if (!SYNAT_COUNT_ALLOCS) GTEST_SKIP() << "sanitizer build: not counted";
  std::vector<ProgramInput> inputs;
  for (const corpus::Entry& e : corpus::all()) {
    ProgramInput in;
    in.name = "corpus:" + std::string(e.name);
    in.source = std::string(e.source);
    for (auto c : e.counted_cas) in.opts.counted_cas.emplace_back(c);
    inputs.push_back(std::move(in));
  }
  const double per_proc = warm_news_per_proc(inputs);
  // Measured: 803 before the flat per-procedure structures, 376 with
  // them, 334 with the flat AST and the node-free symbol index, 131
  // with flat variant contexts; the bound is 10% above.
  EXPECT_LE(per_proc, 144.0) << "operator new calls per procedure";
}

/// The seed-1 160-procedure disjoint program with its counted CAS.
ProgramInput generated_input() {
  perfbench::GenOptions o;
  o.procs = 160;
  o.seed = 1;
  perfbench::GenProgram gen(o);
  ProgramInput in;
  in.name = "gen:160";
  in.source = gen.render();
  for (const std::string& c : gen.counted()) in.opts.counted_cas.push_back(c);
  return in;
}

TEST(AllocBudget, GeneratedAtJobs1) {
  if (!SYNAT_COUNT_ALLOCS) GTEST_SKIP() << "sanitizer build: not counted";
  const double per_proc = warm_news_per_proc({generated_input()});
  // Measured: 368 before the flat per-procedure structures, 208 with
  // them, 181 with the flat AST and the node-free symbol index, 70
  // with flat variant contexts; the bound is 10% above.
  EXPECT_LE(per_proc, 77.0) << "operator new calls per procedure";
}

/// operator new calls per generated variant while the universe of the
/// generated program is built without a pool (step 0, generation, every
/// variant's context and the alias index), in the third of three builds;
/// the first two grow the per-thread buffers the analyses reuse.
TEST(AllocBudget, UniverseBuildPerVariant) {
  if (!SYNAT_COUNT_ALLOCS) GTEST_SKIP() << "sanitizer build: not counted";
  const ProgramInput in = generated_input();
  obs::Counter& generated =
      obs::registry().counter("synat_variants_generated_total");
  double per_variant = 0;
  for (int run = 0; run < 3; ++run) {
    DiagEngine diags;
    synl::FrontEnd fe = synl::parse_and_recover(in.source, diags);
    ASSERT_FALSE(diags.has_errors()) << diags.dump();
    const uint64_t variants_before = generated.value();
    const uint64_t news_before = g_news.load(std::memory_order_relaxed);
    atomicity::ConflictUniverse universe(fe.prog, diags, in.opts);
    const uint64_t news = g_news.load(std::memory_order_relaxed) - news_before;
    const uint64_t variants = generated.value() - variants_before;
    ASSERT_GT(variants, 0u);
    per_variant = static_cast<double>(news) / static_cast<double>(variants);
  }
  // Measured: 110 with a heap container per fact, 25 with flat
  // variant contexts; the bound is 10% above.
  EXPECT_LE(per_variant, 27.0) << "operator new calls per variant";
}

}  // namespace
}  // namespace synat::driver
