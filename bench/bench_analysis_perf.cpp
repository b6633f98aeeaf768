// E9 — performance of the analysis pipeline itself ("suitable for
// automation"): parse / analyze / model-check throughput over the corpus,
// plus the batch-driver speedup measurements (serial vs. parallel vs. warm
// cache) recorded machine-readably in BENCH_driver.json.
#include <benchmark/benchmark.h>

#include <sys/utsname.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <future>
#include <string>
#include <thread>

#include "synat/atomicity/infer.h"
#include "synat/corpus/corpus.h"
#include "synat/driver/driver.h"
#include "synat/interp/interp.h"
#include "synat/obs/events.h"
#include "synat/obs/export.h"
#include "synat/obs/metrics.h"
#include "synat/obs/obs.h"
#include "synat/obs/trace.h"
#include "synat/serve/service.h"
#include "synat/synl/parser.h"

using namespace synat;

namespace {

std::vector<driver::ProgramInput> corpus_inputs() {
  std::vector<driver::ProgramInput> inputs;
  for (const corpus::Entry& e : corpus::all()) {
    driver::ProgramInput in;
    in.name = "corpus:" + std::string(e.name);
    in.source = std::string(e.source);
    for (auto c : e.counted_cas) in.opts.counted_cas.emplace_back(c);
    inputs.push_back(std::move(in));
  }
  return inputs;
}

void BM_ParseCorpus(benchmark::State& state) {
  size_t bytes = 0;
  for (auto _ : state) {
    for (const corpus::Entry& e : corpus::all()) {
      DiagEngine diags;
      synl::Program p = synl::parse_and_check(e.source, diags);
      benchmark::DoNotOptimize(p.num_procs());
      bytes += e.source.size();
    }
  }
  state.SetBytesProcessed(static_cast<int64_t>(bytes));
}
BENCHMARK(BM_ParseCorpus);

void BM_InferOne(benchmark::State& state) {
  const corpus::Entry& e =
      corpus::all()[static_cast<size_t>(state.range(0))];
  state.SetLabel(std::string(e.name));
  for (auto _ : state) {
    DiagEngine diags;
    synl::Program p = synl::parse_and_check(e.source, diags);
    atomicity::InferOptions opts;
    for (auto c : e.counted_cas) opts.counted_cas.emplace_back(c);
    auto r = atomicity::infer_atomicity(p, diags, opts);
    benchmark::DoNotOptimize(r.procs().size());
  }
}
BENCHMARK(BM_InferOne)->DenseRange(0, 10);

void BM_InferWholeCorpus(benchmark::State& state) {
  for (auto _ : state) {
    for (const corpus::Entry& e : corpus::all()) {
      DiagEngine diags;
      synl::Program p = synl::parse_and_check(e.source, diags);
      atomicity::InferOptions opts;
      for (auto c : e.counted_cas) opts.counted_cas.emplace_back(c);
      auto r = atomicity::infer_atomicity(p, diags, opts);
      benchmark::DoNotOptimize(r.procs().size());
    }
  }
}
BENCHMARK(BM_InferWholeCorpus);

void BM_DriverCorpus(benchmark::State& state) {
  std::vector<driver::ProgramInput> inputs = corpus_inputs();
  driver::DriverOptions opts;
  opts.jobs = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    driver::BatchDriver drv(opts);
    driver::BatchReport r = drv.run(inputs);
    benchmark::DoNotOptimize(r.metrics.procedures);
  }
}
BENCHMARK(BM_DriverCorpus)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_DriverCorpusWarmCache(benchmark::State& state) {
  std::vector<driver::ProgramInput> inputs = corpus_inputs();
  driver::DriverOptions opts;
  opts.jobs = static_cast<unsigned>(state.range(0));
  opts.use_cache = true;
  driver::ResultCache cache;
  driver::BatchDriver warmup(opts, &cache);
  warmup.run(inputs);
  for (auto _ : state) {
    driver::BatchDriver drv(opts, &cache);
    driver::BatchReport r = drv.run(inputs);
    benchmark::DoNotOptimize(r.metrics.cache_hits);
  }
}
BENCHMARK(BM_DriverCorpusWarmCache)->Arg(1)->Arg(8);

void BM_CompileBytecode(benchmark::State& state) {
  DiagEngine diags;
  synl::Program p =
      synl::parse_and_check(corpus::get("michael_malloc").source, diags);
  for (auto _ : state) {
    DiagEngine d2;
    auto cp = interp::compile_program(p, d2);
    benchmark::DoNotOptimize(cp.procs.size());
  }
}
BENCHMARK(BM_CompileBytecode);

void BM_InterpreterSteps(benchmark::State& state) {
  DiagEngine diags;
  synl::Program p =
      synl::parse_and_check(corpus::get("semaphore_down").source, diags);
  auto cp = interp::compile_program(p, diags);
  interp::Interp in(cp);
  int up = cp.find_index("Up");
  for (auto _ : state) {
    interp::State s = in.initial_state({{up, {}}});
    std::string err;
    in.run_thread(s, 0, &err);
    benchmark::DoNotOptimize(s.globals[0].i);
  }
}
BENCHMARK(BM_InterpreterSteps);

/// Wall-clock of one driver sweep over `inputs`, best of `reps`.
double sweep_ms(const driver::DriverOptions& opts,
                const std::vector<driver::ProgramInput>& inputs,
                driver::ResultCache* cache, int reps,
                driver::BatchReport* last = nullptr) {
  double best = 1e300;
  for (int i = 0; i < reps; ++i) {
    auto t0 = std::chrono::steady_clock::now();
    driver::BatchDriver drv(opts, cache);
    driver::BatchReport r = drv.run(inputs);
    auto t1 = std::chrono::steady_clock::now();
    double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (ms < best) best = ms;
    if (last) *last = std::move(r);
  }
  return best;
}

/// One analyze round-trip through the serve Service — decode, dispatch on
/// the pool, encode the response frame — best of `reps`. The reply arrives
/// on a pool worker, so each iteration waits on a promise.
double serve_rpc_ms(serve::Service& svc, const std::string& line, int reps) {
  double best = 1e300;
  for (int i = 0; i < reps; ++i) {
    std::promise<void> done;
    std::future<void> got = done.get_future();
    auto t0 = std::chrono::steady_clock::now();
    svc.handle(line, [&done](std::string) { done.set_value(); });
    got.wait();
    auto t1 = std::chrono::steady_clock::now();
    double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (ms < best) best = ms;
  }
  return best;
}

/// `s` as a JSON string literal, quotes included.
std::string json_string(std::string_view s) {
  std::string out;
  obs::append_json_escaped(out, s);
  return out;
}

/// "model name" from /proc/cpuinfo — wall-clock numbers only mean anything
/// next to the silicon that produced them.
std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = line.find_first_not_of(" \t", colon + 1);
        if (start != std::string::npos) return line.substr(start);
      }
    }
  }
  return "unknown";
}

std::string kernel_version() {
  struct utsname u;
  if (uname(&u) != 0) return "unknown";
  return std::string(u.sysname) + " " + u.release + " " + u.machine;
}

/// Measures the driver speedups the roadmap tracks (serial vs. --jobs 8,
/// cold vs. warm cache) and records them in BENCH_driver.json so future
/// changes have a perf trajectory to compare against.
void emit_driver_json(const char* path) {
  std::vector<driver::ProgramInput> inputs = corpus_inputs();
  constexpr int kReps = 3;
  constexpr unsigned kJobs = 8;

  driver::DriverOptions serial;
  driver::BatchReport report;
  double serial_ms = sweep_ms(serial, inputs, nullptr, kReps, &report);

  // On single-core runners --jobs 8 just adds scheduling overhead, so the
  // serial/parallel ratio is noise, not a speedup. Record the effective
  // parallelism and mark the headline number invalid rather than publishing
  // a meaningless figure.
  const unsigned hw = std::thread::hardware_concurrency();
  const unsigned effective_jobs = std::min(kJobs, hw > 0 ? hw : 1u);
  const bool speedup_valid = hw >= 2;
  if (!speedup_valid) {
    std::fprintf(stderr,
                 "bench: WARNING: hardware_concurrency=%u — every parallel "
                 "number below is scheduling noise on this machine; "
                 "recording speedup_valid:false\n",
                 hw);
  }

  driver::DriverOptions parallel = serial;
  parallel.jobs = kJobs;
  double parallel_ms = sweep_ms(parallel, inputs, nullptr, kReps);

  // Cost of the observability layer: the same serial sweep with tracing and
  // metrics collection enabled. serial_ms above is the tracing-disabled
  // number (instrumentation compiled in, flags off) that the CI overhead
  // gate compares against its recorded baseline.
  obs::set_flags(obs::kTraceFlag | obs::kMetricsFlag);
  double obs_enabled_ms = sweep_ms(serial, inputs, nullptr, kReps);
  obs::set_flags(0);
  obs::Tracer::instance().drain();  // discard spans from the timed sweep
  obs::registry().reset();

  // Cost of the flight data (DESIGN.md §3i), split in two: the always-on
  // ring (render one wide event per program into the in-memory recorder,
  // no disk) and the full --events-out log (same render plus a JSONL
  // write+flush per program). The ring number is the price of "postmortems
  // are always possible"; the file number is what --events-out adds.
  double recorder_only_ms;
  {
    obs::EventLogOptions ring;  // empty path: ring only
    obs::EventLog ring_log(ring);
    driver::DriverOptions with_ring = serial;
    with_ring.events = &ring_log;
    recorder_only_ms = sweep_ms(with_ring, inputs, nullptr, kReps);
  }
  double events_enabled_ms;
  const char* events_tmp = "bench_events_sweep.jsonl";
  {
    obs::EventLogOptions file;
    file.path = events_tmp;
    obs::EventLog file_log(file);
    driver::DriverOptions with_events = serial;
    with_events.events = &file_log;
    events_enabled_ms = sweep_ms(with_events, inputs, nullptr, kReps);
  }
  std::remove(events_tmp);
  obs::registry().reset();  // discard the event-latency histograms

  // Cost of provenance collection (DESIGN.md §3f): the same serial sweep
  // with derivation records collected and attached on every input.
  // serial_ms above is the provenance-disabled number the <1% CI gate
  // (tools/check_overhead.py --prov-budget) holds against its baseline.
  std::vector<driver::ProgramInput> prov_inputs = inputs;
  for (driver::ProgramInput& in : prov_inputs) in.opts.provenance = true;
  double prov_enabled_ms = sweep_ms(serial, prov_inputs, nullptr, kReps);
  obs::registry().reset();  // discard the volume counters of the timed sweep

  // Same sweep through sandboxed one-shot workers (fork per program,
  // rlimits, framed pipes). The ratio against the in-process parallel run
  // is the price of crash containment; the roadmap budget is <= 10% once
  // per-program analysis dominates the ~0.5-1ms fork/IPC cost, so the
  // per-program delta is also recorded as the machine-portable number
  // (the micro-corpus programs finish in ~1ms, making this sweep the
  // worst case for the ratio).
  driver::DriverOptions isolated = parallel;
  isolated.isolate = true;
  double isolate_ms = sweep_ms(isolated, inputs, nullptr, kReps);
  double per_program_ms =
      inputs.empty() ? 0.0
                     : (isolate_ms - parallel_ms) /
                           static_cast<double>(inputs.size());

  driver::DriverOptions cached = serial;
  cached.use_cache = true;
  driver::ResultCache cache;
  double cold_ms = sweep_ms(cached, inputs, &cache, 1);
  size_t h0 = cache.hits(), m0 = cache.misses();
  double warm_ms = sweep_ms(cached, inputs, &cache, 1);
  size_t warm_hits = cache.hits() - h0;
  size_t warm_total = warm_hits + (cache.misses() - m0);

  // Daemon round-trip (DESIGN.md §3g): one program analyzed through the
  // serve RPC layer end to end (decode → pool dispatch → schema-v5 encode).
  // The warm number is the latency a long-lived client sees once the
  // per-procedure cache is hot — the incremental-reanalysis payoff.
  serve::ServiceOptions sopts;
  sopts.jobs = 1;
  serve::Service svc(sopts);
  const corpus::Entry& nfq = corpus::get("nfq_prime");
  serve::JsonValue params = serve::JsonValue::make_object();
  params.add("program",
             serve::JsonValue::make_string(std::string(nfq.source)));
  params.add("name", serve::JsonValue::make_string("corpus:nfq_prime"));
  serve::JsonValue counted = serve::JsonValue::make_array();
  for (auto c : nfq.counted_cas)
    counted.push(serve::JsonValue::make_string(std::string(c)));
  params.add("counted", std::move(counted));
  serve::JsonValue reqv = serve::JsonValue::make_object();
  reqv.add("jsonrpc", serve::JsonValue::make_string("2.0"));
  reqv.add("id", serve::JsonValue::make_number(int64_t{1}));
  reqv.add("method", serve::JsonValue::make_string("analyze"));
  reqv.add("params", std::move(params));
  std::string rpc_line = serve::encode_json(reqv);
  double serve_cold_rpc_ms = serve_rpc_ms(svc, rpc_line, 1);
  double serve_warm_rpc_ms = serve_rpc_ms(svc, rpc_line, kReps);
  svc.drain();

  // Sandboxed round-trip (DESIGN.md §3h): the same cold request through a
  // --sandbox daemon, so the fork + CacheDelta + reassembly tax is a
  // tracked number rather than folklore. Cold only — a sandboxed warm hit
  // still pays the fork, which is exactly what this field prices.
  serve::ServiceOptions sandbox_opts;
  sandbox_opts.jobs = 1;
  sandbox_opts.sandbox = true;
  serve::Service sandbox_svc(sandbox_opts);
  double serve_sandbox_rpc_ms = serve_rpc_ms(sandbox_svc, rpc_line, 1);
  sandbox_svc.drain();
  obs::registry().reset();  // discard the serve counters of the timed calls

  double procs = static_cast<double>(report.metrics.procedures);
  double hit_rate =
      warm_total == 0 ? 0.0
                      : static_cast<double>(warm_hits) /
                            static_cast<double>(warm_total);
  std::FILE* f = std::fopen(path, "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"driver_corpus_sweep\",\n"
               "  \"host\": {\n"
               "    \"cpu_model\": %s,\n"
               "    \"kernel\": %s\n"
               "  },\n"
               "  \"hardware_concurrency\": %u,\n",
               json_string(cpu_model()).c_str(),
               json_string(kernel_version()).c_str(), hw);
  std::fprintf(f,
               "  \"programs\": %zu,\n"
               "  \"procedures\": %zu,\n"
               "  \"variants\": %zu,\n"
               "  \"reps_best_of\": %d,\n"
               "  \"jobs\": %u,\n"
               "  \"effective_jobs\": %u,\n"
               "  \"speedup_valid\": %s,\n"
               "  \"serial_ms\": %.3f,\n"
               "  \"parallel_ms\": %.3f,\n",
               report.metrics.programs, report.metrics.procedures,
               report.metrics.variants, kReps, kJobs, effective_jobs,
               speedup_valid ? "true" : "false", serial_ms, parallel_ms);
  if (speedup_valid) {
    std::fprintf(f, "  \"parallel_speedup\": %.3f,\n",
                 parallel_ms > 0 ? serial_ms / parallel_ms : 0.0);
  }
  std::fprintf(f,
               "  \"procs_per_sec_serial\": %.1f,\n"
               "  \"procs_per_sec_parallel\": %.1f,\n"
               "  \"obs_enabled_ms\": %.3f,\n"
               "  \"obs_enabled_overhead\": %.3f,\n"
               "  \"recorder_only_ms\": %.3f,\n"
               "  \"recorder_only_overhead\": %.3f,\n"
               "  \"events_enabled_ms\": %.3f,\n"
               "  \"events_overhead\": %.3f,\n"
               "  \"provenance_enabled_ms\": %.3f,\n"
               "  \"provenance_overhead\": %.3f,\n"
               "  \"isolate_ms\": %.3f,\n"
               "  \"isolate_overhead\": %.3f,\n"
               "  \"isolate_per_program_ms\": %.3f,\n"
               "  \"cache_cold_ms\": %.3f,\n"
               "  \"cache_warm_ms\": %.3f,\n"
               "  \"cache_warm_speedup\": %.3f,\n"
               "  \"cache_warm_hit_rate\": %.3f,\n"
               "  \"serve_cold_rpc_ms\": %.3f,\n"
               "  \"serve_warm_rpc_ms\": %.3f,\n"
               "  \"serve_sandbox_rpc_ms\": %.3f\n"
               "}\n",
               serial_ms > 0 ? procs * 1000.0 / serial_ms : 0.0,
               parallel_ms > 0 ? procs * 1000.0 / parallel_ms : 0.0,
               obs_enabled_ms,
               serial_ms > 0 ? obs_enabled_ms / serial_ms - 1.0 : 0.0,
               recorder_only_ms,
               serial_ms > 0 ? recorder_only_ms / serial_ms - 1.0 : 0.0,
               events_enabled_ms,
               serial_ms > 0 ? events_enabled_ms / serial_ms - 1.0 : 0.0,
               prov_enabled_ms,
               serial_ms > 0 ? prov_enabled_ms / serial_ms - 1.0 : 0.0,
               isolate_ms,
               parallel_ms > 0 ? isolate_ms / parallel_ms - 1.0 : 0.0,
               per_program_ms, cold_ms,
               warm_ms, warm_ms > 0 ? cold_ms / warm_ms : 0.0, hit_rate,
               serve_cold_rpc_ms, serve_warm_rpc_ms, serve_sandbox_rpc_ms);
  std::fclose(f);
  std::printf("wrote %s (serial %.1fms, --jobs %u %.1fms, --isolate %.1fms, "
              "obs on %.1fms, ring %.1fms, events %.1fms, warm cache %.1fms, "
              "hit rate %.0f%%, "
              "serve rpc %.2fms cold / %.2fms warm / %.2fms sandboxed)\n",
              path, serial_ms, kJobs, parallel_ms, isolate_ms, obs_enabled_ms,
              recorder_only_ms, events_enabled_ms,
              warm_ms, hit_rate * 100, serve_cold_rpc_ms, serve_warm_rpc_ms,
              serve_sandbox_rpc_ms);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  const char* out = std::getenv("SYNAT_BENCH_OUT");
  emit_driver_json(out ? out : "BENCH_driver.json");
  return 0;
}
