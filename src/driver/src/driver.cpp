#include "synat/driver/driver.h"

#include <algorithm>
#include <exception>
#include <memory>
#include <thread>

#include "synat/atomicity/blocks.h"
#include "synat/atomicity/infer.h"
#include "synat/driver/worker.h"
#include "synat/obs/events.h"
#include "synat/obs/metrics.h"
#include "synat/obs/trace.h"
#include "synat/support/budget.h"
#include "synat/support/hash.h"
#include "synat/support/thread_pool.h"
#include "synat/synl/parser.h"
#include "synat/synl/printer.h"

namespace synat::driver {

namespace {

std::vector<DiagReport> diag_reports(const DiagEngine& diags) {
  std::vector<DiagReport> out;
  for (const Diagnostic& d : diags.diagnostics())
    out.push_back({std::string(to_string(d.severity)), d.loc.line,
                   d.loc.column, d.message});
  return out;
}

/// Pre-order walk of a variant body producing one LineReport per statement,
/// mirroring AtomicityResult::listing but as structured data.
void collect_lines(const synl::Program& prog,
                   const atomicity::VariantResult& v, synl::StmtId s,
                   std::vector<LineReport>& out) {
  if (!s.valid()) return;
  const synl::Stmt& st = prog.stmt(s);
  if (st.kind == synl::StmtKind::Block) {
    for (synl::StmtId c : prog.children(st)) collect_lines(prog, v, c, out);
    return;
  }
  LineReport line;
  line.line = st.loc.line;
  const atomicity::StmtAtoms::Entry* e = v.stmt_atom.find(s);
  line.atom =
      e == nullptr ? std::string("-") : std::string(to_string(e->whole));
  line.text = synl::stmt_head(prog, s);
  out.push_back(std::move(line));
  switch (st.kind) {
    case synl::StmtKind::Local:
    case synl::StmtKind::Loop:
    case synl::StmtKind::Synchronized:
      collect_lines(prog, v, st.s1, out);
      break;
    case synl::StmtKind::If:
      collect_lines(prog, v, st.s1, out);
      collect_lines(prog, v, st.s2, out);
      break;
    default:
      break;
  }
}

std::shared_ptr<const ProcReport> make_proc_report(
    const synl::Program& prog, const atomicity::ProcResult& pr,
    uint64_t key, bool provenance) {
  static obs::Counter& procs_analyzed =
      obs::registry().counter("synat_procs_analyzed_total");
  procs_analyzed.inc();
  auto report = std::make_shared<ProcReport>();
  report->name = std::string(prog.syms().name(prog.proc(pr.proc).name));
  report->line = prog.proc(pr.proc).loc.line;
  report->atomic = pr.atomic;
  report->atomicity = std::string(to_string(pr.atomicity));
  report->no_variants = pr.no_variants;
  report->bailed_out = pr.bailed_out;
  report->key = key;
  report->prov = pr.prov;
  for (const atomicity::VariantResult& v : pr.variants) {
    VariantReport vr;
    const synl::ProcInfo& vp = prog.proc(v.variant);
    vr.tag = vp.variant_tag.empty()
                 ? std::string(prog.syms().name(vp.name))
                 : vp.variant_tag;
    vr.atomicity = std::string(to_string(v.atomicity));
    vr.prov = v.prov;
    collect_lines(prog, v, vp.body, vr.lines);
    atomicity::BlockPartition part = atomicity::partition_blocks(prog, v);
    for (const atomicity::AtomicBlock& b : part.blocks)
      vr.blocks.push_back(
          {std::string(to_string(b.atom)), b.units.size()});
    if (provenance) {
      // Atomic-block cuts are computed here, not in the infer engine, so
      // their step-6 records join the variant's derivation at report time.
      std::vector<obs::ProvenanceRecord> blk =
          atomicity::block_provenance(prog, v, part);
      obs::count_provenance(blk);
      for (obs::ProvenanceRecord& r : blk) vr.prov.push_back(std::move(r));
    }
    report->variants.push_back(std::move(vr));
  }
  return report;
}

/// A placeholder verdict for a procedure the pipeline could not finish
/// (parse failure, deadline, variant budget). Never cached: the next run
/// gets a fresh chance at a real result.
std::shared_ptr<const ProcReport> make_degraded_report(std::string name,
                                                       uint32_t line,
                                                       std::string kind,
                                                       std::string reason) {
  static obs::Counter& degraded =
      obs::registry().counter("synat_degraded_total");
  degraded.inc();
  auto report = std::make_shared<ProcReport>();
  report->name = std::move(name);
  report->line = line;
  report->atomic = false;
  report->atomicity = "unknown";
  report->degraded = true;
  report->degrade_kind = std::move(kind);
  report->degrade_reason = std::move(reason);
  return report;
}

/// A report's `cache_key` field carries the whole-program identity key of
/// the run being reported. A content-addressed hit can come from a run of a
/// *different* program text, so the resident report is cloned to re-stamp
/// the key it is reported under (shared reports are immutable).
std::shared_ptr<const ProcReport> with_key(std::shared_ptr<const ProcReport> r,
                                           uint64_t key) {
  if (r == nullptr || r->key == key) return r;
  auto copy = std::make_shared<ProcReport>(*r);
  copy->key = key;
  return copy;
}

}  // namespace

uint64_t options_fingerprint(const atomicity::InferOptions& opts) {
  // variant_opts.budget is deliberately excluded: it only decides whether an
  // analysis finishes, never what a finished analysis computes (and
  // degraded results are never cached anyway).
  Hasher h;
  h.mix(static_cast<uint64_t>(opts.variant_opts.disable));
  h.mix(static_cast<uint64_t>(opts.variant_opts.max_paths));
  h.mix(static_cast<uint64_t>(opts.variant_opts.max_variants));
  h.mix(static_cast<uint64_t>(opts.use_window_rule));
  h.mix(static_cast<uint64_t>(opts.use_local_conditions));
  // Provenance changes what a cached report carries (derivation records),
  // so runs with and without it must not share entries.
  h.mix(static_cast<uint64_t>(opts.provenance));
  std::vector<std::string> counted = opts.counted_cas;
  std::sort(counted.begin(), counted.end());
  counted.erase(std::unique(counted.begin(), counted.end()), counted.end());
  for (const std::string& c : counted) h.mix(c);
  return h.value();
}

BatchDriver::BatchDriver(DriverOptions opts, ResultCache* cache)
    : opts_(opts), cache_(cache) {}

void BatchDriver::run_program_task(const ProgramInput& input, size_t index,
                                   ReportSink& sink, CacheTally& tally,
                                   ThreadPool& pool) {
  DiagEngine diags;
  uint64_t parse_ns = 0;
  synl::FrontEnd fe = [&] {
    obs::SpanScope span(obs::StageId::Parse, charge(parse_ns));
    return synl::parse_and_recover(input.source, diags);
  }();
  sink.add_program_time(index, obs::StageId::Parse, parse_ns);
  synl::Program& prog = fe.prog;
  const size_t num_procs = prog.num_procs();
  size_t healthy = 0;
  for (size_t p = 0; p < num_procs; ++p)
    if (!prog.proc(synl::ProcId(static_cast<uint32_t>(p))).broken) ++healthy;
  // A program with errors is recovered — analyzed with its broken
  // procedures degraded — only when every error was contained to some
  // procedure and at least one procedure survived. --strict disables
  // recovery entirely.
  bool recovered =
      diags.has_errors() && fe.contained && healthy > 0 && !opts_.strict;
  if (recovered) {
    static obs::Counter& recoveries =
        obs::registry().counter("synat_parse_recovered_total");
    recoveries.inc();
  }
  if (diags.has_errors() && !recovered) {
    sink.fail_program(index, input.name, ProgramStatus::ParseError,
                      diag_reports(diags));
    return;
  }
  const uint64_t opts_fp = options_fingerprint(input.opts);
  const uint64_t program_fp =
      Hasher().mix(synl::print_program(prog)).mix(opts_fp).value();
  ProgramReport out;
  out.name = input.name;
  out.fingerprint = hex64(program_fp);
  if (recovered) out.diagnostics = diag_reports(diags);
  out.procs.resize(num_procs);

  // One budget (and deadline) covers the whole program: the universe build
  // and every classification. A trip degrades each procedure it stops;
  // --strict escalates them into an internal error instead.
  ExecBudget budget;
  if (opts_.deadline_ms > 0) {
    static obs::Counter& arms =
        obs::registry().counter("synat_watchdog_arms_total");
    arms.inc();
    budget.arm_deadline_ms(opts_.deadline_ms);
  }
  atomicity::InferOptions iopts = input.opts;
  iopts.variant_opts.budget = &budget;
  auto trip = [&](size_t p, const BudgetExceeded& e) {
    synl::ProcId pid(static_cast<uint32_t>(p));
    uint32_t line = prog.proc(pid).loc.line;
    if (opts_.strict) {
      out.status = ProgramStatus::InternalError;
      out.diagnostics.push_back({"error", line, 0, e.what()});
    } else {
      out.procs[p] = make_degraded_report(
          std::string(prog.syms().name(prog.proc(pid).name)), line,
          e.reason(), e.what());
    }
  };
  for (size_t p = 0; p < num_procs; ++p) {
    synl::ProcId pid(static_cast<uint32_t>(p));
    if (prog.proc(pid).broken)
      out.procs[p] = make_degraded_report(
          std::string(prog.syms().name(prog.proc(pid).name)),
          prog.proc(pid).loc.line, "parse", "procedure body failed to parse");
  }

  try {
    uint64_t universe_ns = 0;
    const atomicity::ConflictUniverse universe = [&] {
      obs::SpanScope span(obs::StageId::Analyze, charge(universe_ns));
      return atomicity::ConflictUniverse(prog, diags, iopts, &pool);
    }();
    sink.add_program_time(index, obs::StageId::Analyze, universe_ns);
    // Cache addressing (DESIGN.md §3g). When the program fingerprints
    // completely, each procedure's result is cached under H(options, own
    // content, interference universe), the universe hash taken from the
    // universe just built, so an edit that leaves a procedure's body and
    // the program's interference signature unchanged still hits: this is
    // what makes `synat serve` re-analyze only edited procedures. Programs
    // with broken procedures and provenance runs (whose derivation records
    // quote other variants' source text and locations) use the
    // whole-program key. Reports carry the whole-program key in their
    // `cache_key` field either way.
    const bool content_keys =
        cache_ != nullptr && !input.opts.provenance && !recovered;
    const uint64_t universe_fp = content_keys ? universe.fingerprint() : 0;
    struct Miss {
      Miss(synl::ProcId proc, uint64_t key, uint64_t addr)
          : proc(proc), key(key), addr(addr) {}
      synl::ProcId proc;
      uint64_t key;
      uint64_t addr;
      std::shared_ptr<const ProcReport> report;
      std::exception_ptr error;
      uint64_t analyze_ns = 0;
      uint64_t report_ns = 0;
    };
    std::vector<Miss> misses;
    for (size_t p = 0; p < num_procs; ++p) {
      if (out.procs[p] != nullptr) continue;  // broken
      synl::ProcId pid(static_cast<uint32_t>(p));
      const uint64_t key = Hasher()
                               .mix(program_fp)
                               .mix(prog.syms().name(prog.proc(pid).name))
                               .value();
      const uint64_t addr =
          content_keys ? Hasher()
                             .mix(opts_fp)
                             .mix(atomicity::content_fingerprint(prog, pid))
                             .mix(universe_fp)
                             .value()
                       : key;
      if (cache_ != nullptr) {
        if (std::shared_ptr<const ProcReport> hit = cache_->lookup(addr)) {
          ++tally.hits;
          out.procs[p] = with_key(std::move(hit), key);
          continue;
        }
        ++tally.misses;
      }
      misses.emplace_back(pid, key, addr);
    }
    // This thread and the pool's idle workers classify and render the
    // misses, each into its own slot; a failure is kept with its
    // procedure. This thread times the whole loop and splits that wall
    // time between the two stages in the ratio of their call times.
    const uint64_t loop_start = timed() ? obs::now_ns() : 0;
    pool.parallel_for(misses.size(), [&](size_t k) {
      Miss& m = misses[k];
      try {
        atomicity::ProcResult result = [&] {
          obs::SpanScope span(obs::StageId::Analyze, charge(m.analyze_ns));
          return universe.classify(m.proc);
        }();
        obs::SpanScope span(obs::StageId::Report, charge(m.report_ns));
        m.report = make_proc_report(prog, result, m.key, iopts.provenance);
      } catch (...) {
        m.error = std::current_exception();
      }
    });
    if (timed() && !misses.empty()) {
      const uint64_t wall = obs::now_ns() - loop_start;
      uint64_t analyze = 0, report = 0;
      for (const Miss& m : misses) {
        analyze += m.analyze_ns;
        report += m.report_ns;
      }
      const double share = analyze + report == 0
                               ? 0.0
                               : static_cast<double>(analyze) /
                                     static_cast<double>(analyze + report);
      const auto analyze_wall =
          static_cast<uint64_t>(share * static_cast<double>(wall));
      sink.add_program_time(index, obs::StageId::Analyze, analyze_wall);
      sink.add_program_time(index, obs::StageId::Report, wall - analyze_wall);
    }
    // Budget trips and errors apply in procedure order, as a serial loop
    // meets them.
    for (Miss& m : misses) {
      try {
        if (m.error) std::rethrow_exception(m.error);
        std::shared_ptr<const ProcReport> report = std::move(m.report);
        if (cache_ != nullptr)
          report = with_key(cache_->insert(m.addr, report), m.key);
        out.procs[m.proc.idx] = std::move(report);
      } catch (const BudgetExceeded& e) {
        trip(m.proc.idx, e);
      }
    }
  } catch (const BudgetExceeded& e) {
    // The universe build tripped: no procedure can be classified.
    for (size_t p = 0; p < num_procs; ++p)
      if (out.procs[p] == nullptr) trip(p, e);
  } catch (const std::exception& e) {
    // An analysis stage threw: a synat bug, reported as the program's.
    out.status = ProgramStatus::InternalError;
    out.diagnostics.push_back({"error", 0, 0, e.what()});
  }
  // Only a deadline cancels the budget; trips depend on machine speed, so
  // the counter is nondeterministic by registration and never enters the
  // JSON report.
  if (budget.cancelled()) {
    static obs::Counter& trips =
        obs::registry().counter("synat_watchdog_trips_total", false);
    trips.inc();
  }
  sink.publish_program(index, std::move(out));
}

BatchReport BatchDriver::run(const std::vector<ProgramInput>& inputs) {
  unsigned jobs = opts_.jobs == 0
                      ? std::max(1u, std::thread::hardware_concurrency())
                      : opts_.jobs;
  ReportSink sink(inputs.size());
  Metrics counters;
  // The run's registry delta starts here: everything the batch increments
  // (in-process or merged back from workers) minus what previous runs in
  // this process already counted.
  const obs::MetricsSnapshot telemetry_base = obs::registry().snapshot();
  obs::registry().gauge("synat_jobs").set(jobs);
  static obs::Counter& programs_total =
      obs::registry().counter("synat_programs_total");
  programs_total.inc(inputs.size());

  for (size_t i = 0; i < inputs.size(); ++i) {
    if (inputs[i].load_error.empty()) continue;
    sink.fail_program(i, inputs[i].name, ProgramStatus::LoadError,
                      {{"error", 0, 0, inputs[i].load_error}});
  }

  CacheTally tally;
  if (opts_.isolate) {
    // Sandboxed one-shot workers (DESIGN.md §3d), forked before any thread
    // of this run exists: no ThreadPool here (workers build their own).
    // Each outcome lands in the sink as it arrives.
    static obs::Counter& dispatches =
        obs::registry().counter("synat_worker_dispatches_total");
    static obs::Counter& results =
        obs::registry().counter("synat_worker_results_total");
    static obs::Counter& retries =
        obs::registry().counter("synat_worker_retries_total");
    static obs::Counter& crashes =
        obs::registry().counter("synat_worker_crashes_total");
    std::vector<const ProgramInput*> pending;
    std::vector<size_t> index_of;
    for (size_t i = 0; i < inputs.size(); ++i) {
      if (!inputs[i].load_error.empty()) continue;
      pending.push_back(&inputs[i]);
      index_of.push_back(i);
    }
    auto deliver = [&](size_t k, WorkerOutcome out) {
      const size_t i = index_of[k];
      dispatches.inc(out.deaths() + (out.ok ? 1 : 0));
      crashes.inc(out.deaths());
      retries.inc(out.retries);
      if (!out.ok) {
        sink.fail_program(i, inputs[i].name, ProgramStatus::Degraded,
                          {{"error", 0, 0, out.reason}});
        return;
      }
      results.inc();
      if (!out.spans.empty()) {
        // Lane = input index + 1 (lane 0 is this process): deterministic,
        // where a pid would not be.
        const auto lane = static_cast<uint32_t>(i + 1);
        obs::Tracer::instance().inject(lane, out.spans);
        obs::Tracer::instance().set_lane_name(lane, "worker " + inputs[i].name);
      }
      sink.publish_program(i, std::move(out.report));
    };
    run_workers(pending, opts_, jobs, nullptr, deliver);
  } else {
    ThreadPool pool(jobs <= 1 ? 0 : jobs);
    for (size_t i = 0; i < inputs.size(); ++i) {
      if (!inputs[i].load_error.empty()) continue;
      pool.submit([this, &inputs, i, &sink, &tally, &pool] {
        try {
          run_program_task(inputs[i], i, sink, tally, pool);
        } catch (const std::exception& e) {
          sink.fail_program(i, inputs[i].name, ProgramStatus::InternalError,
                            {{"error", 0, 0, e.what()}});
        }
      });
    }
    pool.wait_idle();
  }
  counters.cache_hits = tally.hits;
  counters.cache_misses = tally.misses;
  // rejected() is a lifetime counter and load() runs before run(), so the
  // absolute value (not a delta) is what this batch observed.
  counters.cache_rejected = cache_ != nullptr ? cache_->rejected() : 0;
  static obs::Counter& span_drops =
      obs::registry().counter("synat_trace_spans_dropped_total", false);
  uint64_t dropped = obs::Tracer::instance().dropped();
  uint64_t counted = span_drops.value();
  if (dropped > counted) span_drops.inc(dropped - counted);
  counters.telemetry = obs::registry().snapshot().delta_from(telemetry_base);
  BatchReport out = sink.finish(counters, jobs);

  // Wide events (DESIGN.md §3i): one line per program, emitted from the
  // assembled report in input order — never completion order — so the log
  // is byte-identical across --jobs values and --isolate under the virtual
  // clock. Per-program latency also feeds the p50/p95/p99 source here.
  if (opts_.events != nullptr) {
    obs::Histogram& latency =
        obs::registry().histogram("synat_driver_program_latency_seconds");
    for (size_t i = 0; i < out.programs.size(); ++i) {
      const ProgramReport& pr = out.programs[i];
      obs::Event ev = program_event(pr);
      if (ev.name.empty()) ev.name = inputs[i].name;
      const auto stages = sink.program_stage_ns(i);
      ev.parse_ns = stages[static_cast<size_t>(obs::StageId::Parse)];
      ev.analyze_ns = stages[static_cast<size_t>(obs::StageId::Analyze)];
      ev.report_ns = stages[static_cast<size_t>(obs::StageId::Report)];
      ev.dur_ns = ev.parse_ns + ev.analyze_ns + ev.report_ns;
      if (pr.status == ProgramStatus::Degraded)
        ev.deaths_crash = 1;  // the report keeps no death kind; see §3d
      latency.observe(ev.dur_ns);
      opts_.events->append(ev);
    }
  }
  return out;
}

}  // namespace synat::driver
