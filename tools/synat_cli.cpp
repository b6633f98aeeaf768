// synat — command-line driver for the library.
//
//   synat corpus                          list the embedded corpus
//   synat analyze  <prog> [options]      atomicity inference + listing
//   synat batch    [options] <progs...>  parallel batch analysis + report
//   synat explain  <prog> [proc] [opts]  derivation tree for every verdict
//   synat variants <prog> [proc]         print exceptional variants
//   synat blocks   <prog>                atomic-block partition
//   synat cfg      <prog> <proc>         event-CFG dump
//   synat dot      <prog> <proc>         event-CFG in Graphviz dot
//   synat disasm   <prog>                bytecode disassembly
//   synat mc       <prog> [mc options]   explicit-state model checking
//   synat serve    [serve options]       long-lived analysis daemon
//
// <prog> is a file path, `corpus:<name>` (see `synat corpus`), or `-` for
// standard input (analyze/batch/explain).
// analyze options: --no-variants --no-windows --no-conds --counted <k>
// batch options: --all (whole corpus) --jobs N (0 = one per hardware
//                thread) --format json|sarif|text
//                --timings (parse/analyze/report stage histograms in the
//                JSON metrics block; workers' stages too under --isolate)
//                -o FILE --deadline-ms N (per program)
//                --max-variants N --strict
//                --isolate (run each program in a sandboxed worker process;
//                a worker crash degrades that one program, exit 1)
//                --max-rss-mb N (per-worker address-space cap)
//                --retries N (re-dispatches of a crashed worker; default 1)
//                --trace-out FILE (Chrome trace-event JSON of every
//                pipeline/driver stage; per-worker lanes under --isolate)
//                --metrics-out FILE (Prometheus text exposition of the
//                run's counters/gauges/histograms)
//                --report-counters (schema v4 "counters" section in the
//                JSON report: the deterministic obs counters)
//                --provenance (collect derivation records and emit the
//                schema v5 "provenance" sections in the JSON report)
//                --no-variants --no-windows --no-conds (the analyze
//                ablation flags, applied to every input)
//                --events-out FILE (wide-event log: one canonical JSON line
//                per program, byte-identical across --jobs/--isolate under
//                SYNAT_OBS_VIRTUAL_CLOCK) --events-max-bytes N (size-based
//                rotation to FILE.1; default 64 MiB, 0 disables)
// serve options: --listen ADDR (required; a path binds a unix socket,
//                host:port binds TCP) --jobs N (analysis pool workers,
//                0 = one per hardware thread) --max-queue N (queued+running
//                request cap before -32003 rejections; default 64)
//                --cache-file FILE (warm-start snapshot, saved on shutdown)
//                --trace-out FILE (Chrome trace with per-request lanes,
//                written on shutdown)
//                --sandbox (run each analyze/explain in a forked one-shot
//                worker; crash/hang/OOM degrades the request, never the
//                daemon) --deadline-ms N --max-rss-mb N (per-request
//                budgets; sandbox only) --retries N (re-forks after a
//                worker death, default 1)
//                --quarantine-threshold K --quarantine-ttl SECS (K
//                consecutive failed sandboxed executions of one program
//                short-circuit to -32004 until the TTL expires)
//                --snapshot-interval-s N (with --cache-file: periodic
//                crash-only cache snapshots while serving)
//                --events-out FILE (wide-event log: one canonical JSON line
//                per analyze/explain RPC, flushed as it is written; the
//                incident record of worker deaths and quarantine refusals)
//                --events-max-bytes N (rotation)
//                The wire protocol is newline-delimited JSON-RPC 2.0:
//                methods analyze, explain, status, metrics, invalidate,
//                shutdown (see src/serve/include/synat/serve/service.h and
//                tools/synat_client.py).
// explain options: --jobs N --isolate plus the analyze ablation flags
//                (--no-variants --no-windows --no-conds --counted <k>);
//                output is byte-identical across --jobs/--isolate modes
// mc options: --run Proc[:intarg] (repeatable) --init Proc --tinit Proc
//             --por --atomic Proc (repeatable) --arrays N --max-states N
//
// Exit codes (all commands): 0 success / all atomic; 1 analysis found a
// non-atomic procedure, a degraded (budget/deadline/recovered-parse)
// result, a crashed --isolate worker, or mc found an error; 2 usage error;
// 3 an input failed to load or parse (batch still analyzes the other
// inputs); 4 internal analyzer error, or output (a report, a listing, an
// event log) that could not be written whole. When several apply the highest-
// severity code wins — the precedence order (0 < 1 < 2 < 3 < 4) is
// implemented once, in driver::combine_exit_codes.
#include <cstdarg>
#include <cstdlib>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "synat/corpus/corpus.h"
#include "synat/driver/driver.h"
#include "synat/mc/mc.h"
#include "synat/obs/events.h"
#include "synat/obs/export.h"
#include "synat/obs/metrics.h"
#include "synat/obs/trace.h"
#include "synat/serve/server.h"
#include "synat/synat.h"
#include "synat/synl/printer.h"

using namespace synat;

namespace {

// Exit-code convention, shared with driver::BatchReport::exit_code().
constexpr int kExitOk = 0;
constexpr int kExitNotAtomic = 1;
constexpr int kExitUsage = 2;
constexpr int kExitParseError = 3;
constexpr int kExitInternalError = 4;

int usage() {
  std::fprintf(
      stderr,
      "usage: synat "
      "<corpus|analyze|batch|explain|variants|blocks|cfg|dot|disasm|mc|serve"
      "> [args]\n(see the header of tools/synat_cli.cpp)\n");
  return kExitUsage;
}

bool load_source(const std::string& spec, std::string& out) {
  if (spec == "-") {
    std::stringstream ss;
    ss << std::cin.rdbuf();
    out = ss.str();
    return true;
  }
  if (spec.rfind("corpus:", 0) == 0) {
    for (const corpus::Entry& e : corpus::all()) {
      if (e.name == spec.substr(7)) {
        out = std::string(e.source);
        return true;
      }
    }
    std::fprintf(stderr, "unknown corpus entry '%s'\n", spec.c_str() + 7);
    return false;
  }
  std::ifstream in(spec);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", spec.c_str());
    return false;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

struct Parsed {
  DiagEngine diags;
  synl::Program prog;
};

bool parse(const std::string& spec, Parsed& p) {
  std::string source;
  if (!load_source(spec, source)) return false;
  p.prog = synl::parse_and_check(source, p.diags);
  if (p.diags.has_errors()) {
    std::fprintf(stderr, "%s", p.diags.dump().c_str());
    return false;
  }
  return true;
}

/// Counted-CAS defaults: if the program came from the corpus, use its
/// annotation; --counted adds more.
void default_counted(const std::string& spec,
                     atomicity::InferOptions& opts) {
  if (spec.rfind("corpus:", 0) != 0) return;
  for (const corpus::Entry& e : corpus::all()) {
    if (e.name == spec.substr(7)) {
      for (auto c : e.counted_cas) opts.counted_cas.emplace_back(c);
    }
  }
}

/// Writes a finished document to `path`, or to stdout when `path` is empty.
/// A document that cannot be written whole is reported, naming the output,
/// and the caller exits 4: a truncated report must never pass for a verdict.
bool write_output(const std::string& path, const std::string& doc) {
  std::string err;
  if (!path.empty()) {
    if (obs::write_file(path, doc, &err)) return true;
  } else if (std::fwrite(doc.data(), 1, doc.size(), stdout) == doc.size() &&
             std::fflush(stdout) == 0) {
    return true;
  } else {
    err = "short write to standard output";
  }
  std::fprintf(stderr, "%s\n", err.c_str());
  return false;
}

/// printf into `out`: listings are built whole, then written through
/// write_output.
[[gnu::format(printf, 2, 3)]] void appendf(std::string& out, const char* fmt,
                                           ...) {
  va_list ap;
  va_start(ap, fmt);
  va_list again;
  va_copy(again, ap);
  const int n = std::vsnprintf(nullptr, 0, fmt, ap);
  va_end(ap);
  if (n > 0) {
    const size_t at = out.size();
    out.resize(at + static_cast<size_t>(n) + 1);
    std::vsnprintf(out.data() + at, static_cast<size_t>(n) + 1, fmt, again);
    out.resize(at + static_cast<size_t>(n));
  }
  va_end(again);
}

int cmd_corpus() {
  std::string out;
  for (const corpus::Entry& e : corpus::all()) {
    appendf(out, "%-18s %s\n", std::string(e.name).c_str(),
            std::string(e.description).c_str());
  }
  return write_output({}, out) ? kExitOk : kExitInternalError;
}

/// Default analysis options for a spec: corpus annotations for counted CAS.
atomicity::InferOptions spec_options(const std::string& spec) {
  atomicity::InferOptions opts;
  default_counted(spec, opts);
  return opts;
}

int cmd_batch(int argc, char** argv) {
  driver::DriverOptions dopts;
  driver::RenderOptions ropts;
  std::string format = "json";
  std::string out_path;
  std::string trace_out;
  std::string metrics_out;
  std::string events_out;
  uint64_t events_max_bytes = 64ull << 20;
  std::vector<std::string> specs;
  bool all = false;
  bool provenance = false;
  bool no_variants = false;
  bool no_windows = false;
  bool no_conds = false;
  size_t max_variants = 0;
  for (int i = 0; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--all") {
      all = true;
    } else if (a == "--jobs" && i + 1 < argc) {
      char* end = nullptr;
      unsigned long n = std::strtoul(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0' || n > 1024) {
        std::fprintf(stderr, "--jobs expects a thread count, got '%s'\n",
                     argv[i]);
        return kExitUsage;
      }
      dopts.jobs = static_cast<unsigned>(n);
    } else if (a == "--deadline-ms" && i + 1 < argc) {
      char* end = nullptr;
      unsigned long long n = std::strtoull(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0') {
        std::fprintf(stderr, "--deadline-ms expects milliseconds, got '%s'\n",
                     argv[i]);
        return kExitUsage;
      }
      dopts.deadline_ms = n;
    } else if (a == "--max-variants" && i + 1 < argc) {
      char* end = nullptr;
      unsigned long long n = std::strtoull(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0') {
        std::fprintf(stderr, "--max-variants expects a count, got '%s'\n",
                     argv[i]);
        return kExitUsage;
      }
      max_variants = static_cast<size_t>(n);
    } else if (a == "--strict") {
      dopts.strict = true;
    } else if (a == "--isolate") {
      dopts.isolate = true;
    } else if (a == "--max-rss-mb" && i + 1 < argc) {
      char* end = nullptr;
      unsigned long n = std::strtoul(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0') {
        std::fprintf(stderr, "--max-rss-mb expects MiB, got '%s'\n", argv[i]);
        return kExitUsage;
      }
      dopts.max_rss_mb = static_cast<unsigned>(n);
    } else if (a == "--retries" && i + 1 < argc) {
      char* end = nullptr;
      unsigned long n = std::strtoul(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0' || n > 100) {
        std::fprintf(stderr, "--retries expects a count, got '%s'\n", argv[i]);
        return kExitUsage;
      }
      dopts.retries = static_cast<unsigned>(n);
    } else if (a == "--format" && i + 1 < argc) {
      format = argv[++i];
      if (format != "json" && format != "sarif" && format != "text") {
        std::fprintf(stderr, "unknown format '%s'\n", format.c_str());
        return kExitUsage;
      }
    } else if (a == "--timings") {
      ropts.timings = true;
    } else if (a == "--trace-out" && i + 1 < argc) {
      trace_out = argv[++i];
    } else if (a == "--metrics-out" && i + 1 < argc) {
      metrics_out = argv[++i];
    } else if (a == "--events-out" && i + 1 < argc) {
      events_out = argv[++i];
    } else if (a == "--events-max-bytes" && i + 1 < argc) {
      char* end = nullptr;
      unsigned long long n = std::strtoull(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0') {
        std::fprintf(stderr, "--events-max-bytes expects bytes, got '%s'\n",
                     argv[i]);
        return kExitUsage;
      }
      events_max_bytes = n;
    } else if (a == "--report-counters") {
      ropts.counters = true;
    } else if (a == "--provenance") {
      provenance = true;
      ropts.provenance = true;
    } else if (a == "--no-variants") {
      no_variants = true;
    } else if (a == "--no-windows") {
      no_windows = true;
    } else if (a == "--no-conds") {
      no_conds = true;
    } else if (a == "-o" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (a != "-" && !a.empty() && a[0] == '-') {
      std::fprintf(stderr, "unknown batch option %s\n", a.c_str());
      return kExitUsage;
    } else {
      specs.push_back(a);
    }
  }
  std::vector<driver::ProgramInput> inputs;
  if (all) {
    for (const corpus::Entry& e : corpus::all()) {
      driver::ProgramInput in;
      in.name = "corpus:" + std::string(e.name);
      in.source = std::string(e.source);
      for (auto c : e.counted_cas) in.opts.counted_cas.emplace_back(c);
      inputs.push_back(std::move(in));
    }
  }
  for (const std::string& spec : specs) {
    driver::ProgramInput in;
    in.name = spec;
    if (!load_source(spec, in.source)) {
      // Keep the batch going: the driver reports this input as a load
      // error (exit 3) and still analyzes every other input.
      in.load_error = "cannot open input '" + spec + "'";
    }
    in.opts = spec_options(spec);
    inputs.push_back(std::move(in));
  }
  if (inputs.empty()) {
    std::fprintf(stderr, "batch needs program specs or --all\n");
    return kExitUsage;
  }
  for (driver::ProgramInput& in : inputs) {
    in.opts.variant_opts.max_variants = max_variants;
    in.opts.provenance = provenance;
    if (no_variants) in.opts.variant_opts.disable = true;
    if (no_windows) in.opts.use_window_rule = false;
    if (no_conds) in.opts.use_local_conditions = false;
  }
  // Observability flags must be set before the driver runs: --isolate
  // forks its workers from this process, and the flag word (like the rest
  // of the address space) is inherited at fork time.
  uint32_t obs_flags = 0;
  if (!trace_out.empty()) obs_flags |= obs::kTraceFlag;
  // --timings renders the run's stage histograms, which the metrics flag
  // records.
  if (!metrics_out.empty() || ropts.timings) obs_flags |= obs::kMetricsFlag;
  obs::set_flags(obs_flags);
  if (!trace_out.empty())
    obs::Tracer::instance().set_lane_name(0,
                                          dopts.isolate ? "supervisor" : "main");
  // The event sink outlives the driver: the driver appends the per-program
  // events from the assembled report after run() completes its workers.
  std::unique_ptr<obs::EventLog> events;
  if (!events_out.empty()) {
    obs::EventLogOptions eopts;
    eopts.path = events_out;
    eopts.max_bytes = events_max_bytes;
    events = std::make_unique<obs::EventLog>(std::move(eopts));
    dopts.events = events.get();
  }
  driver::BatchDriver drv(dopts);
  driver::BatchReport report = drv.run(inputs);
  if (events != nullptr && events->dropped() != 0) {
    std::fprintf(stderr, "short write to %s\n", events_out.c_str());
    return kExitInternalError;
  }
  if (!trace_out.empty()) {
    std::vector<obs::SpanRecord> spans = obs::Tracer::instance().drain();
    std::string trace =
        obs::to_chrome_trace(spans, obs::Tracer::instance().lane_names());
    std::string err;
    if (!obs::write_file(trace_out, trace, &err)) {
      std::fprintf(stderr, "%s\n", err.c_str());
      return kExitInternalError;
    }
  }
  if (!metrics_out.empty()) {
    // The exposition covers this run's registry delta (what the batch did),
    // not process-lifetime totals, so two runs of the same corpus export
    // comparable documents.
    std::string prom = obs::to_prometheus(report.metrics.telemetry);
    std::string err;
    if (!obs::write_file(metrics_out, prom, &err)) {
      std::fprintf(stderr, "%s\n", err.c_str());
      return kExitInternalError;
    }
  }
  std::string doc = format == "json"    ? driver::to_json(report, ropts)
                    : format == "sarif" ? driver::to_sarif(report)
                                        : driver::to_text(report);
  if (!write_output(out_path, doc)) return kExitInternalError;
  return report.exit_code();
}

/// `synat explain <prog> [proc]` — run the batch driver with provenance
/// collection on and render the derivation tree. Deliberately goes through
/// BatchDriver (not infer_atomicity directly) so --jobs and --isolate
/// exercise the same paths as `synat batch`; the output is a pure function
/// of the report and therefore byte-identical across those modes.
int cmd_explain(const std::string& spec, int argc, char** argv) {
  driver::DriverOptions dopts;
  std::string proc_filter;
  atomicity::InferOptions iopts = spec_options(spec);
  for (int i = 0; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--jobs" && i + 1 < argc) {
      char* end = nullptr;
      unsigned long n = std::strtoul(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0' || n > 1024) {
        std::fprintf(stderr, "--jobs expects a thread count, got '%s'\n",
                     argv[i]);
        return kExitUsage;
      }
      dopts.jobs = static_cast<unsigned>(n);
    } else if (a == "--isolate") {
      dopts.isolate = true;
    } else if (a == "--no-variants") {
      iopts.variant_opts.disable = true;
    } else if (a == "--no-windows") {
      iopts.use_window_rule = false;
    } else if (a == "--no-conds") {
      iopts.use_local_conditions = false;
    } else if (a == "--counted" && i + 1 < argc) {
      iopts.counted_cas.emplace_back(argv[++i]);
    } else if (!a.empty() && a[0] == '-') {
      std::fprintf(stderr, "unknown explain option %s\n", a.c_str());
      return kExitUsage;
    } else if (proc_filter.empty()) {
      proc_filter = a;
    } else {
      std::fprintf(stderr, "explain takes at most one procedure name\n");
      return kExitUsage;
    }
  }
  driver::ProgramInput in;
  in.name = spec;
  if (!load_source(spec, in.source))
    in.load_error = "cannot open input '" + spec + "'";
  in.opts = iopts;
  in.opts.provenance = true;
  driver::BatchDriver drv(dopts);
  driver::BatchReport report = drv.run({in});
  if (!write_output({}, driver::to_explain(report, proc_filter)))
    return kExitInternalError;
  return report.exit_code();
}

int cmd_analyze(const std::string& spec, int argc, char** argv) {
  Parsed p;
  if (!parse(spec, p)) return kExitParseError;
  atomicity::InferOptions opts;
  default_counted(spec, opts);
  for (int i = 0; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--no-variants") opts.variant_opts.disable = true;
    else if (a == "--no-windows") opts.use_window_rule = false;
    else if (a == "--no-conds") opts.use_local_conditions = false;
    else if (a == "--counted" && i + 1 < argc) opts.counted_cas.emplace_back(argv[++i]);
    else { std::fprintf(stderr, "unknown option %s\n", a.c_str()); return kExitUsage; }
  }
  auto result = atomicity::infer_atomicity(p.prog, p.diags, opts);
  if (!write_output({}, result.full_listing(p.prog))) return kExitInternalError;
  return result.all_atomic() ? kExitOk : kExitNotAtomic;
}

int cmd_variants(const std::string& spec, int argc, char** argv) {
  Parsed p;
  if (!parse(spec, p)) return kExitParseError;
  atomicity::InferOptions opts;
  default_counted(spec, opts);
  auto result = atomicity::infer_atomicity(p.prog, p.diags, opts);
  std::string out;
  for (const atomicity::ProcResult& pr : result.procs()) {
    std::string name(p.prog.syms().name(p.prog.proc(pr.proc).name));
    if (argc > 0 && name != argv[0]) continue;
    for (const atomicity::VariantResult& v : pr.variants) {
      out += synl::print_proc(p.prog, v.variant);
      out += '\n';
    }
  }
  return write_output({}, out) ? kExitOk : kExitInternalError;
}

int cmd_blocks(const std::string& spec) {
  Parsed p;
  if (!parse(spec, p)) return kExitParseError;
  atomicity::InferOptions opts;
  default_counted(spec, opts);
  auto result = atomicity::infer_atomicity(p.prog, p.diags, opts);
  atomicity::BlockSummary sum = atomicity::summarize_blocks(p.prog, result);
  std::string out;
  for (auto [pid, blocks] : sum.per_proc) {
    appendf(out, "%-20s %zu block(s)%s\n",
            std::string(p.prog.syms().name(p.prog.proc(pid).name)).c_str(),
            blocks, result.result_for(pid)->atomic ? " [atomic]" : "");
  }
  appendf(out, "total: %zu procedures, %zu blocks\n", sum.total_procs,
          sum.total_blocks);
  return write_output({}, out) ? kExitOk : kExitInternalError;
}

int cmd_cfg(const std::string& spec, const char* proc_name, bool dot) {
  Parsed p;
  if (!parse(spec, p)) return kExitParseError;
  synl::ProcId pid = p.prog.find_proc(proc_name);
  if (!pid.valid()) {
    std::fprintf(stderr, "no procedure '%s'\n", proc_name);
    return kExitUsage;
  }
  cfg::Cfg g = cfg::build_cfg(p.prog, pid);
  if (!dot)
    return write_output({}, g.dump(p.prog)) ? kExitOk : kExitInternalError;
  std::string out;
  appendf(out, "digraph \"%s\" {\n  node [shape=box,fontname=monospace];\n",
          proc_name);
  for (uint32_t i = 0; i < g.num_nodes(); ++i) {
    const cfg::Event& ev = g.node(cfg::EventId(i));
    std::string label(to_string(ev.kind));
    if (ev.path.root.valid()) label += " " + ev.path.str(p.prog);
    if (ev.must_succeed) label += "!";
    appendf(out, "  n%u [label=\"%s\"];\n", i, label.c_str());
    for (const cfg::Edge& e : g.succs(cfg::EventId(i))) {
      const char* style = "";
      if (e.kind == cfg::EdgeKind::True) style = " [label=T,color=darkgreen]";
      if (e.kind == cfg::EdgeKind::False) style = " [label=F,color=red]";
      appendf(out, "  n%u -> n%u%s;\n", i, e.to.idx, style);
    }
  }
  out += "}\n";
  return write_output({}, out) ? kExitOk : kExitInternalError;
}

int cmd_disasm(const std::string& spec) {
  Parsed p;
  if (!parse(spec, p)) return kExitParseError;
  interp::CompiledProgram cp = interp::compile_program(p.prog, p.diags);
  std::string out;
  for (const interp::CompiledProc& proc : cp.procs) {
    out += interp::disassemble(proc);
    out += '\n';
  }
  return write_output({}, out) ? kExitOk : kExitInternalError;
}

int cmd_mc(const std::string& spec, int argc, char** argv) {
  Parsed p;
  if (!parse(spec, p)) return kExitParseError;
  mc::Options opts;
  mc::RunSpec run;
  std::string tinit;
  for (int i = 0; i < argc; ++i) {
    std::string a = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (a == "--run") {
      std::string s = next();
      mc::ThreadPlan plan;
      size_t colon = s.find(':');
      plan.proc = s.substr(0, colon == std::string::npos ? s.size() : colon);
      if (colon != std::string::npos)
        plan.args.push_back(mc::Value::of_int(std::atoll(s.c_str() + colon + 1)));
      run.threads.push_back(std::move(plan));
    } else if (a == "--init") {
      run.global_init = next();
    } else if (a == "--tinit") {
      tinit = next();
    } else if (a == "--por") {
      opts.por = true;
    } else if (a == "--atomic") {
      opts.atomic_procs.emplace_back(next());
    } else if (a == "--arrays") {
      opts.array_size = std::atoi(next());
    } else if (a == "--max-states") {
      opts.max_states = std::strtoull(next(), nullptr, 10);
    } else {
      std::fprintf(stderr, "unknown mc option %s\n", a.c_str());
      return kExitUsage;
    }
  }
  if (run.threads.empty()) {
    std::fprintf(stderr, "mc needs at least one --run Proc[:arg]\n");
    return kExitUsage;
  }
  for (mc::ThreadPlan& plan : run.threads) plan.init_proc = tinit;
  interp::CompiledProgram cp = interp::compile_program(p.prog, p.diags);
  mc::ModelChecker checker(cp, opts);
  mc::Result r = checker.run(run);
  if (!write_output({}, r.summary() + '\n')) return kExitInternalError;
  return r.error_found ? kExitNotAtomic : kExitOk;
}

int cmd_serve(int argc, char** argv) {
  serve::ServerOptions sopts;
  std::string events_out;
  uint64_t events_max_bytes = 64ull << 20;
  for (int i = 0; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--listen" && i + 1 < argc) {
      sopts.listen = argv[++i];
    } else if (a == "--jobs" && i + 1 < argc) {
      char* end = nullptr;
      unsigned long n = std::strtoul(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0' || n > 1024) {
        std::fprintf(stderr, "--jobs expects a thread count, got '%s'\n",
                     argv[i]);
        return kExitUsage;
      }
      sopts.service.jobs = static_cast<unsigned>(n);
    } else if (a == "--max-queue" && i + 1 < argc) {
      char* end = nullptr;
      unsigned long n = std::strtoul(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0') {
        std::fprintf(stderr, "--max-queue expects a count, got '%s'\n",
                     argv[i]);
        return kExitUsage;
      }
      sopts.service.max_queue = static_cast<size_t>(n);
    } else if (a == "--cache-file" && i + 1 < argc) {
      sopts.cache_file = argv[++i];
    } else if (a == "--trace-out" && i + 1 < argc) {
      sopts.trace_out = argv[++i];
    } else if (a == "--sandbox") {
      sopts.service.sandbox = true;
    } else if (a == "--deadline-ms" && i + 1 < argc) {
      char* end = nullptr;
      unsigned long n = std::strtoul(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0') {
        std::fprintf(stderr, "--deadline-ms expects milliseconds, got '%s'\n",
                     argv[i]);
        return kExitUsage;
      }
      sopts.service.sandbox_deadline_ms = n;
    } else if (a == "--max-rss-mb" && i + 1 < argc) {
      char* end = nullptr;
      unsigned long n = std::strtoul(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0') {
        std::fprintf(stderr, "--max-rss-mb expects megabytes, got '%s'\n",
                     argv[i]);
        return kExitUsage;
      }
      sopts.service.sandbox_max_rss_mb = static_cast<size_t>(n);
    } else if (a == "--retries" && i + 1 < argc) {
      char* end = nullptr;
      unsigned long n = std::strtoul(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0' || n > 16) {
        std::fprintf(stderr, "--retries expects a small count, got '%s'\n",
                     argv[i]);
        return kExitUsage;
      }
      sopts.service.sandbox_retries = static_cast<unsigned>(n);
    } else if (a == "--quarantine-threshold" && i + 1 < argc) {
      char* end = nullptr;
      unsigned long n = std::strtoul(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0' || n == 0) {
        std::fprintf(stderr,
                     "--quarantine-threshold expects a positive count, "
                     "got '%s'\n",
                     argv[i]);
        return kExitUsage;
      }
      sopts.service.quarantine_threshold = static_cast<unsigned>(n);
    } else if (a == "--quarantine-ttl" && i + 1 < argc) {
      char* end = nullptr;
      unsigned long n = std::strtoul(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0') {
        std::fprintf(stderr, "--quarantine-ttl expects seconds, got '%s'\n",
                     argv[i]);
        return kExitUsage;
      }
      sopts.service.quarantine_ttl_ms = uint64_t{n} * 1000;
    } else if (a == "--snapshot-interval-s" && i + 1 < argc) {
      char* end = nullptr;
      unsigned long n = std::strtoul(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0') {
        std::fprintf(stderr,
                     "--snapshot-interval-s expects seconds, got '%s'\n",
                     argv[i]);
        return kExitUsage;
      }
      sopts.snapshot_interval_s = static_cast<unsigned>(n);
    } else if (a == "--events-out" && i + 1 < argc) {
      events_out = argv[++i];
    } else if (a == "--events-max-bytes" && i + 1 < argc) {
      char* end = nullptr;
      unsigned long long n = std::strtoull(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0') {
        std::fprintf(stderr, "--events-max-bytes expects bytes, got '%s'\n",
                     argv[i]);
        return kExitUsage;
      }
      events_max_bytes = n;
    } else {
      std::fprintf(stderr, "unknown serve option %s\n", a.c_str());
      return kExitUsage;
    }
  }
  if (sopts.listen.empty()) {
    std::fprintf(stderr, "serve needs --listen <socket-path|host:port>\n");
    return kExitUsage;
  }
  // The daemon's stage histograms back the live `metrics` RPC, so metrics
  // recording is always on; span tracing only when a trace file is wanted.
  uint32_t obs_flags = obs::kMetricsFlag;
  if (!sopts.trace_out.empty()) obs_flags |= obs::kTraceFlag;
  obs::set_flags(obs_flags);
  if (!sopts.trace_out.empty())
    obs::Tracer::instance().set_lane_name(0, "serve");
  // Stack-owned so it outlives the server: the service appends an event
  // after each reply, up to the end of the drain.
  std::unique_ptr<obs::EventLog> events;
  if (!events_out.empty()) {
    obs::EventLogOptions eopts;
    eopts.path = events_out;
    eopts.max_bytes = events_max_bytes;
    events = std::make_unique<obs::EventLog>(std::move(eopts));
    sopts.service.events = events.get();
  }
  serve::Server server(std::move(sopts));
  return server.serve();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2) return usage();
    std::string cmd = argv[1];
    if (cmd == "corpus") return cmd_corpus();
    if (cmd == "batch") return cmd_batch(argc - 2, argv + 2);
    if (cmd == "serve") return cmd_serve(argc - 2, argv + 2);
    if (argc < 3) return usage();
    std::string spec = argv[2];
    if (cmd == "analyze") return cmd_analyze(spec, argc - 3, argv + 3);
    if (cmd == "explain") return cmd_explain(spec, argc - 3, argv + 3);
    if (cmd == "variants")
      return cmd_variants(spec, argc - 3, argv + 3);
    if (cmd == "blocks") return cmd_blocks(spec);
    if (cmd == "cfg" && argc >= 4) return cmd_cfg(spec, argv[3], false);
    if (cmd == "dot" && argc >= 4) return cmd_cfg(spec, argv[3], true);
    if (cmd == "disasm") return cmd_disasm(spec);
    if (cmd == "mc") return cmd_mc(spec, argc - 3, argv + 3);
    return usage();
  } catch (const InternalError& e) {
    std::fprintf(stderr, "internal error: %s\n", e.what());
    return kExitInternalError;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return kExitInternalError;
  }
}
