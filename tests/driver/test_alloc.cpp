// Allocation gates: heap allocations per procedure in a warm `--jobs 1`
// batch, the large blocks of such a batch, per variant while a conflict
// universe is built, and what tracing, metrics and the wide-event log add
// to a batch. This binary
// replaces the global operator new and its deletes with versions that
// count calls and forward to malloc, so a change that brings back
// per-node containers on the per-procedure path fails here instead of only
// slowing the benchmark. Sanitizer builds keep their own allocator: the
// replacement is compiled out and the tests skip.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

#include "gen.h"
#include "synat/atomicity/infer.h"
#include "synat/corpus/corpus.h"
#include "synat/driver/driver.h"
#include "synat/obs/events.h"
#include "synat/obs/metrics.h"
#include "synat/obs/trace.h"
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
/// Calls of kLargeBlock bytes or more: blocks glibc may return to the
/// kernel when freed, so that the next batch faults them back in.
constexpr std::size_t kLargeBlock = 64 * 1024;
std::atomic<uint64_t> g_large_news{0};
}  // namespace

#if SYNAT_COUNT_ALLOCS
void* operator new(std::size_t n) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (n >= kLargeBlock) g_large_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#endif

namespace synat::driver {
namespace {

struct WarmRun {
  uint64_t news = 0;        ///< operator new calls
  uint64_t large_news = 0;  ///< of them, calls of kLargeBlock or more
  size_t procs = 0;         ///< procedures reported
};

/// The third of three `--jobs 1` runs over `inputs`; the first two warm
/// the registries, the span rings and other process-lifetime state. The
/// rings are drained before each run, so they keep the capacity the first
/// run grew.
WarmRun warm_run(const std::vector<ProgramInput>& inputs,
                 DriverOptions opts = {}) {
  opts.jobs = 1;
  WarmRun warm;
  for (int run = 0; run < 3; ++run) {
    obs::Tracer::instance().drain();
    BatchDriver drv(opts);
    const uint64_t before = g_news.load(std::memory_order_relaxed);
    const uint64_t large_before = g_large_news.load(std::memory_order_relaxed);
    BatchReport report = drv.run(inputs);
    warm.news = g_news.load(std::memory_order_relaxed) - before;
    warm.large_news =
        g_large_news.load(std::memory_order_relaxed) - large_before;
    warm.procs = report.metrics.procedures;
  }
  EXPECT_GT(warm.procs, 0u);
  return warm;
}

/// operator new calls per reported procedure in a warm run.
double warm_news_per_proc(const std::vector<ProgramInput>& inputs) {
  const WarmRun warm = warm_run(inputs);
  return warm.procs == 0 ? 0.0 : static_cast<double>(warm.news) / warm.procs;
}

std::vector<ProgramInput> corpus_inputs() {
  std::vector<ProgramInput> inputs;
  for (const corpus::Entry& e : corpus::all()) {
    ProgramInput in;
    in.name = "corpus:" + std::string(e.name);
    in.source = std::string(e.source);
    for (auto c : e.counted_cas) in.opts.counted_cas.emplace_back(c);
    inputs.push_back(std::move(in));
  }
  return inputs;
}

TEST(AllocBudget, CorpusAtJobs1) {
  if (!SYNAT_COUNT_ALLOCS) GTEST_SKIP() << "sanitizer build: not counted";
  const double per_proc = warm_news_per_proc(corpus_inputs());
  // Measured: 803 before the flat per-procedure structures, 376 with
  // them, 334 with the flat AST and the node-free symbol index, 131
  // with flat variant contexts, 123 with the node arrays reserved from
  // the token count, 114.8 with the flat alias index and one print per
  // program; the bound is 10% above.
  EXPECT_LE(per_proc, 126.0) << "operator new calls per procedure";
}

/// operator new calls of to_json on the corpus report of a `--jobs 1`
/// run, third of three renders. Such a report renders its procedure
/// objects straight into the document, as it did before they could be
/// rendered on the pool: the serial path gains no fragment or copy.
TEST(AllocBudget, CorpusJsonAtJobs1) {
  if (!SYNAT_COUNT_ALLOCS) GTEST_SKIP() << "sanitizer build: not counted";
  const BatchReport report = BatchDriver(DriverOptions{}).run(corpus_inputs());
  ASSERT_EQ(report.metrics.jobs, 1u);
  uint64_t news = 0;
  for (int render = 0; render < 3; ++render) {
    const uint64_t before = g_news.load(std::memory_order_relaxed);
    const std::string doc = to_json(report);
    news = g_news.load(std::memory_order_relaxed) - before;
    EXPECT_FALSE(doc.empty());
  }
  // Measured: 59 before procedure objects could be rendered on the pool,
  // 59 with it. The bound is that count: the serial path must not grow.
  EXPECT_LE(news, 59u) << "operator new calls of to_json";
}

/// The seed-1 `procs`-procedure disjoint program with its counted CAS.
ProgramInput generated_input(size_t procs = 160) {
  perfbench::GenOptions o;
  o.procs = procs;
  o.seed = 1;
  perfbench::GenProgram gen(o);
  ProgramInput in;
  in.name = "gen:" + std::to_string(procs);
  in.source = gen.render();
  for (const std::string& c : gen.counted()) in.opts.counted_cas.push_back(c);
  return in;
}

TEST(AllocBudget, GeneratedAtJobs1) {
  if (!SYNAT_COUNT_ALLOCS) GTEST_SKIP() << "sanitizer build: not counted";
  const double per_proc = warm_news_per_proc({generated_input()});
  // Measured: 368 before the flat per-procedure structures, 208 with
  // them, 181 with the flat AST and the node-free symbol index, 70
  // with flat variant contexts, 64.9 with the flat alias index and one
  // print per program; the bound is 10% above.
  EXPECT_LE(per_proc, 71.0) << "operator new calls per procedure";
}

/// Blocks of 64 KiB or more in a warm run of the generated program. The
/// lexer fills the thread's own token buffer, which it keeps, and the node
/// arrays are sized once from the token count instead of doubling from
/// empty, so only the expression and statement arrays are that large.
TEST(AllocBudget, LargeBlocksAtJobs1) {
  if (!SYNAT_COUNT_ALLOCS) GTEST_SKIP() << "sanitizer build: not counted";
  const WarmRun warm = warm_run({generated_input()});
  // Measured: 7 with a token vector per parse and node arrays doubling
  // from empty (expressions 64, 128, 256 and 512 KiB, statements 112 and
  // 224 KiB, tokens 316 KiB), 2 with the buffer and the reserve.
  EXPECT_LE(warm.large_news, 2u) << "operator new calls of 64 KiB or more";
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
  // variant contexts, 20.8 with the flat alias index; the bound is 10%
  // above.
  EXPECT_LE(per_variant, 23.0) << "operator new calls per variant";
}

/// What tracing and metrics, and the wide-event log, add to a warm run.
struct ObsCost {
  int64_t traced = 0;  ///< obs::kTraceFlag | obs::kMetricsFlag on
  int64_t logged = 0;  ///< flags off, an EventLog attached
};

ObsCost obs_cost(const std::vector<ProgramInput>& inputs,
                 const std::string& log_path) {
  const auto news = [&inputs](const DriverOptions& opts) {
    return static_cast<int64_t>(warm_run(inputs, opts).news);
  };
  ObsCost cost;
  {
    obs::EventLog log(log_path);
    DriverOptions opts;
    opts.events = &log;
    const int64_t plain = news({});
    cost.logged = news(opts) - plain;
    EXPECT_EQ(log.dropped(), 0u);
  }
  std::remove(log_path.c_str());
  // Measured after the logged runs: their latency histogram is in both.
  const int64_t plain = news({});
  obs::set_flags(obs::kTraceFlag | obs::kMetricsFlag);
  cost.traced = news({}) - plain;
  obs::set_flags(0);
  obs::Tracer::instance().drain();
  return cost;
}

/// Tracing and metrics cost a fixed number of allocations per batch (the
/// registry snapshots and the stage histograms): spans go to per-thread
/// rings that keep their capacity, so nothing is allocated per procedure
/// or per span. The wide-event log costs a fixed number per program (its
/// event and rendered line). The bounds are absolute, so one allocation
/// per procedure breaks them.
TEST(AllocBudget, ObservabilityAllocatesPerBatchNotPerProcedure) {
  if (!SYNAT_COUNT_ALLOCS) GTEST_SKIP() << "sanitizer build: not counted";
  const std::string log_path = testing::TempDir() + "synat_alloc_events.jsonl";
  // The first call registers the stage histograms and the event series, so
  // every plain run after it snapshots the same registry.
  obs_cost({generated_input()}, log_path);
  // Measured: tracing +100 to +120 per batch at both sizes and on the
  // corpus (a snapshot copies each histogram's occupied buckets, so the
  // count moves with the timings); the log +4 to +8 per one-program batch
  // and +98 to +102 on the 17-program corpus. The bounds are 10% above
  // the largest.
  constexpr int64_t kTracedPerBatch = 132;
  constexpr int64_t kLoggedPerProgram = 9;
  for (size_t procs : {160, 640}) {
    const ObsCost cost = obs_cost({generated_input(procs)}, log_path);
    EXPECT_LE(cost.traced, kTracedPerBatch) << procs << " procedures";
    EXPECT_LE(cost.logged, kLoggedPerProgram) << procs << " procedures";
  }
  const std::vector<ProgramInput> corpus = corpus_inputs();
  const ObsCost cost = obs_cost(corpus, log_path);
  EXPECT_LE(cost.traced, kTracedPerBatch) << "corpus";
  EXPECT_LE(cost.logged,
            kLoggedPerProgram * static_cast<int64_t>(corpus.size()))
      << "corpus";
}

}  // namespace
}  // namespace synat::driver
