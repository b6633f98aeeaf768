#include "synat/driver/report.h"

#include <algorithm>

#include "synat/driver/json.h"
#include "synat/support/hash.h"

namespace synat::driver {

std::string_view to_string(ProgramStatus s) {
  switch (s) {
    case ProgramStatus::Ok: return "ok";
    case ProgramStatus::Degraded: return "degraded";
    case ProgramStatus::ParseError: return "parse_error";
    case ProgramStatus::LoadError: return "load_error";
    case ProgramStatus::InternalError: return "internal_error";
  }
  return "?";
}

bool ProgramReport::all_atomic() const {
  if (status != ProgramStatus::Ok) return false;
  for (const auto& p : procs)
    if (!p || !p->atomic) return false;
  return true;
}

size_t BatchReport::procs_not_atomic() const {
  size_t n = 0;
  for (const ProgramReport& prog : programs)
    for (const auto& p : prog.procs)
      if (p && !p->atomic) ++n;
  return n;
}

int exit_code_severity(int code) {
  // Severity happens to increase with the numeric code; this function is
  // the single place that fact is allowed to live. An unknown code ranks
  // above everything so a bug can never be masked down to success.
  return (code >= 0 && code <= 4) ? code : 5;
}

int combine_exit_codes(int a, int b) {
  return exit_code_severity(a) >= exit_code_severity(b) ? a : b;
}

int BatchReport::exit_code() const {
  int code = 0;
  if (procs_not_atomic() > 0 || metrics.degraded > 0 || metrics.crashed > 0)
    code = combine_exit_codes(code, 1);
  if (metrics.parse_errors > 0 || metrics.load_errors > 0)
    code = combine_exit_codes(code, 3);
  if (metrics.internal_errors > 0) code = combine_exit_codes(code, 4);
  return code;
}

obs::Event program_event(const ProgramReport& pr) {
  obs::Event ev;
  ev.name = pr.name;
  ev.fingerprint = pr.fingerprint;
  ev.status = std::string(to_string(pr.status));
  ev.atomic = pr.all_atomic();
  switch (pr.status) {
    case ProgramStatus::Ok:
      break;
    case ProgramStatus::Degraded:
      ev.exit_code = 1;
      ev.error_kind = "worker_death";
      break;
    case ProgramStatus::ParseError:
    case ProgramStatus::LoadError:
      ev.exit_code = 3;
      break;
    case ProgramStatus::InternalError:
      ev.exit_code = 4;
      break;
  }
  ev.procs = pr.procs.size();
  for (const auto& p : pr.procs) {
    if (p == nullptr) continue;
    if (!p->atomic) ++ev.procs_not_atomic;
    if (p->degraded && ev.exit_code == 0) ev.exit_code = 1;
    ev.variants += p->variants.size();
  }
  if (ev.procs_not_atomic > 0 && ev.exit_code == 0) ev.exit_code = 1;
  return ev;
}

// ---------------------------------------------------------------------------
// ReportSink

ReportSink::ReportSink(size_t num_programs) {
  programs_.resize(num_programs);
  stage_ns_.resize(num_programs);
}

void ReportSink::publish_program(size_t i, ProgramReport report) {
  std::lock_guard<std::mutex> lock(mu_);
  programs_.at(i) = std::move(report);
}

void ReportSink::fail_program(size_t i, std::string name, ProgramStatus status,
                              std::vector<DiagReport> diags) {
  std::lock_guard<std::mutex> lock(mu_);
  ProgramReport& pr = programs_.at(i);
  if (pr.name.empty()) pr.name = std::move(name);
  // The worst status wins (InternalError > LoadError > ParseError >
  // Degraded > Ok) should a program fail more than once.
  if (static_cast<uint8_t>(status) > static_cast<uint8_t>(pr.status))
    pr.status = status;
  for (DiagReport& d : diags) pr.diagnostics.push_back(std::move(d));
}

void ReportSink::add_program_time(size_t i, obs::StageId s, uint64_t ns) {
  std::lock_guard<std::mutex> lock(mu_);
  stage_ns_.at(i)[static_cast<size_t>(s)] += ns;
}

std::array<uint64_t, obs::kNumStages> ReportSink::program_stage_ns(
    size_t i) const {
  std::lock_guard<std::mutex> lock(mu_);
  return stage_ns_.at(i);
}

BatchReport ReportSink::finish(const Metrics& counters, size_t jobs) {
  std::lock_guard<std::mutex> lock(mu_);
  BatchReport out;
  metrics_.programs = programs_.size();
  metrics_.cache_hits = counters.cache_hits;
  metrics_.cache_misses = counters.cache_misses;
  metrics_.cache_rejected = counters.cache_rejected;
  metrics_.jobs = jobs;
  metrics_.telemetry = counters.telemetry;
  for (ProgramReport& pr : programs_) {
    if (pr.status == ProgramStatus::Ok) {
      for (const auto& p : pr.procs) {
        if (!p) {  // a decoded report without this result; surface it
          pr.status = ProgramStatus::InternalError;
          pr.diagnostics.push_back(
              {"error", 0, 0, "procedure result missing"});
          break;
        }
      }
    }
    if (pr.status != ProgramStatus::Ok) pr.procs.clear();
    if (pr.status == ProgramStatus::Degraded) ++metrics_.crashed;
    if (pr.status == ProgramStatus::ParseError) ++metrics_.parse_errors;
    if (pr.status == ProgramStatus::LoadError) ++metrics_.load_errors;
    if (pr.status == ProgramStatus::InternalError) ++metrics_.internal_errors;
    metrics_.procedures += pr.procs.size();
    for (const auto& p : pr.procs) {
      metrics_.variants += p->variants.size();
      if (p->degraded) ++metrics_.degraded;
    }
  }
  out.programs = std::move(programs_);
  out.metrics = metrics_;
  programs_.clear();
  return out;
}

// ---------------------------------------------------------------------------
// Renderers

namespace {

/// One `--timings` stage: the run's registry histogram of that stage.
void emit_stage(JsonWriter& w, const obs::MetricsSnapshot& telemetry,
                obs::StageId stage) {
  static const obs::HistogramSample kEmpty;
  const std::string name = obs::stage_histogram_name(stage);
  const obs::HistogramSample* h = &kEmpty;
  for (const obs::HistogramSample& s : telemetry.histograms)
    if (s.name == name) h = &s;
  const uint64_t samples = h->count();
  w.key(obs::stage_name(stage)).begin_object();
  w.key("samples").value(samples);
  w.key("total_ns").value(h->sum_ns);
  w.key("mean_ns").value(samples == 0 ? uint64_t{0} : h->sum_ns / samples);
  w.key("buckets").begin_array();
  for (const auto& [idx, n] : h->buckets) {
    w.begin_object();
    w.key("le_ns").value(obs::Histogram::bucket_bound(idx));
    w.key("count").value(n);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

void emit_metrics(JsonWriter& w, const BatchReport& r,
                  const RenderOptions& opts, size_t atomic_procs) {
  w.key("summary").begin_object();
  w.key("programs").value(r.metrics.programs);
  w.key("procedures").value(r.metrics.procedures);
  w.key("variants").value(r.metrics.variants);
  w.key("atomic_procedures").value(atomic_procs);
  w.key("non_atomic_procedures").value(r.metrics.procedures - atomic_procs);
  w.key("degraded_procedures").value(r.metrics.degraded);
  w.key("crashed_programs").value(r.metrics.crashed);
  w.key("parse_errors").value(r.metrics.parse_errors);
  w.key("load_errors").value(r.metrics.load_errors);
  w.key("internal_errors").value(r.metrics.internal_errors);
  w.end_object();
  // The jobs count is deliberately not emitted: `synat batch --jobs N` is
  // documented to produce byte-identical documents for every N.
  w.key("metrics").begin_object();
  w.key("cache_hits").value(r.metrics.cache_hits);
  w.key("cache_misses").value(r.metrics.cache_misses);
  w.key("cache_rejected").value(r.metrics.cache_rejected);
  if (opts.counters) {
    // Schema v4: the run's deterministic registry counters, name-sorted.
    w.key("counters").begin_object();
    for (const obs::CounterSample& c : r.metrics.telemetry.counters)
      if (c.deterministic) w.key(c.name).value(c.value);
    w.end_object();
  }
  if (opts.timings) {
    w.key("stages").begin_object();
    for (obs::StageId s :
         {obs::StageId::Parse, obs::StageId::Analyze, obs::StageId::Report})
      emit_stage(w, r.metrics.telemetry, s);
    w.end_object();
  }
  w.end_object();
}

size_t count_atomic(const BatchReport& r) {
  size_t n = 0;
  for (const ProgramReport& prog : r.programs)
    for (const auto& p : prog.procs)
      if (p && p->atomic) ++n;
  return n;
}

// Every record field is always emitted (possibly empty/zero) so the schema
// validator can require a fixed shape and diff_provenance compares like
// with like.
void emit_prov(JsonWriter& w, const std::vector<obs::ProvenanceRecord>& recs) {
  w.key("provenance").begin_array();
  for (const obs::ProvenanceRecord& r : recs) {
    w.begin_object();
    w.key("step").value(r.step);
    w.key("theorem").value(r.theorem);
    w.key("rule").value(r.rule);
    w.key("subject").value(r.subject);
    w.key("line").value(r.line);
    w.key("column").value(r.column);
    w.key("atom").value(r.atom);
    w.key("detail").value(r.detail);
    w.key("witness").value(r.witness);
    w.key("witness_line").value(r.witness_line);
    w.key("witness_column").value(r.witness_column);
    w.end_object();
  }
  w.end_array();
}

}  // namespace

std::string to_json(const BatchReport& report, const RenderOptions& opts) {
  JsonWriter w;
  w.begin_object();
  w.key("schema").value("synat-batch-report");
  // v5 adds the optional "provenance" sections (RenderOptions::provenance);
  // v4 added the optional metrics "counters" section.
  w.key("version").value(kReportSchemaVersion);
  w.key("programs").begin_array();
  for (const ProgramReport& prog : report.programs) {
    w.begin_object();
    w.key("name").value(prog.name);
    w.key("fingerprint").value(prog.fingerprint);
    w.key("status").value(to_string(prog.status));
    if (!prog.diagnostics.empty()) {
      w.key("diagnostics").begin_array();
      for (const DiagReport& d : prog.diagnostics) {
        w.begin_object();
        w.key("severity").value(d.severity);
        w.key("line").value(d.line);
        w.key("column").value(d.column);
        w.key("message").value(d.message);
        w.end_object();
      }
      w.end_array();
    }
    w.key("procedures").begin_array();
    for (const auto& p : prog.procs) {
      w.begin_object();
      w.key("name").value(p->name);
      w.key("line").value(p->line);
      w.key("atomic").value(p->atomic);
      w.key("atomicity").value(p->atomicity);
      w.key("no_variants").value(p->no_variants);
      w.key("bailed_out").value(p->bailed_out);
      if (p->degraded) {
        w.key("degraded").value(true);
        w.key("degrade_kind").value(p->degrade_kind);
        w.key("degrade_reason").value(p->degrade_reason);
      }
      w.key("cache_key").value(hex64(p->key));
      if (opts.provenance) emit_prov(w, p->prov);
      w.key("variants").begin_array();
      for (const VariantReport& v : p->variants) {
        w.begin_object();
        w.key("tag").value(v.tag);
        w.key("atomicity").value(v.atomicity);
        if (opts.provenance) emit_prov(w, v.prov);
        w.key("lines").begin_array();
        for (const LineReport& l : v.lines) {
          w.begin_object();
          w.key("line").value(l.line);
          w.key("atom").value(l.atom);
          w.key("text").value(l.text);
          w.end_object();
        }
        w.end_array();
        w.key("blocks").begin_array();
        for (const BlockReport& b : v.blocks) {
          w.begin_object();
          w.key("atomicity").value(b.atom);
          w.key("units").value(b.units);
          w.end_object();
        }
        w.end_array();
        w.end_object();
      }
      w.end_array();
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  // Every degradation in one place, so a consumer checking "did anything
  // fall short of a full verdict?" needs exactly one lookup. Always
  // emitted (possibly empty) for schema stability.
  w.key("degraded").begin_array();
  for (const ProgramReport& prog : report.programs) {
    if (prog.status == ProgramStatus::Degraded) {
      w.begin_object();
      w.key("program").value(prog.name);
      w.key("kind").value("crash");
      w.key("reason").value(prog.diagnostics.empty()
                                ? std::string("isolated worker died")
                                : prog.diagnostics.front().message);
      w.end_object();
    }
    for (const auto& p : prog.procs) {
      if (!p || !p->degraded) continue;
      w.begin_object();
      w.key("program").value(prog.name);
      w.key("procedure").value(p->name);
      w.key("kind").value(p->degrade_kind);
      w.key("reason").value(p->degrade_reason);
      w.end_object();
    }
  }
  if (report.metrics.cache_rejected > 0) {
    w.begin_object();
    w.key("kind").value("cache");
    w.key("reason").value(std::to_string(report.metrics.cache_rejected) +
                          " cache snapshot entr" +
                          (report.metrics.cache_rejected == 1 ? "y" : "ies") +
                          " rejected (corrupt or stale); recomputed cold");
    w.end_object();
  }
  w.end_array();
  emit_metrics(w, report, opts, count_atomic(report));
  w.end_object();
  std::string out = std::move(w).str();
  out += '\n';
  return out;
}

std::string to_sarif(const BatchReport& report) {
  JsonWriter w;
  w.begin_object();
  w.key("$schema")
      .value("https://json.schemastore.org/sarif-2.1.0.json");
  w.key("version").value("2.1.0");
  w.key("runs").begin_array();
  w.begin_object();
  w.key("tool").begin_object();
  w.key("driver").begin_object();
  w.key("name").value("synat");
  w.key("informationUri")
      .value("https://doi.org/10.1145/1065944.1065955");
  w.key("rules").begin_array();
  struct Rule { const char* id; const char* name; const char* text; };
  const Rule rules[] = {
      {"SYNAT001", "NonAtomicProcedure",
       "Procedure could not be proven atomic (Lipton reduction over the "
       "Flanagan-Qadeer calculus)."},
      {"SYNAT002", "ParseError",
       "SYNL front end rejected the program or the input could not be "
       "read."},
      {"SYNAT003", "VariantBailout",
       "Exceptional-variant enumeration exceeded the path cap; the verdict "
       "is conservative."},
      {"SYNAT004", "InternalError", "The analyzer failed on this program."},
      {"SYNAT005", "DegradedResult",
       "Analysis of this procedure was cut short (parse failure, deadline, "
       "or resource budget); its atomicity is unknown."},
      {"SYNAT006", "WorkerCrashed",
       "The isolated worker process analyzing this program died (crash, "
       "out-of-memory kill, or stall); the program has no verdict."},
  };
  for (const Rule& r : rules) {
    w.begin_object();
    w.key("id").value(r.id);
    w.key("name").value(r.name);
    w.key("shortDescription").begin_object();
    w.key("text").value(r.text);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();  // driver
  w.end_object();  // tool
  w.key("results").begin_array();
  auto location = [&](const std::string& uri, uint32_t line) {
    w.key("locations").begin_array();
    w.begin_object();
    w.key("physicalLocation").begin_object();
    w.key("artifactLocation").begin_object();
    w.key("uri").value(uri);
    w.end_object();
    if (line > 0) {
      w.key("region").begin_object();
      w.key("startLine").value(line);
      w.end_object();
    }
    w.end_object();
    w.end_object();
    w.end_array();
  };
  for (const ProgramReport& prog : report.programs) {
    if (prog.status != ProgramStatus::Ok) {
      const char* rule = "SYNAT002";
      const char* level = "error";
      if (prog.status == ProgramStatus::InternalError) rule = "SYNAT004";
      if (prog.status == ProgramStatus::Degraded) {
        rule = "SYNAT006";
        level = "warning";  // contained fault, same severity as SYNAT005
      }
      w.begin_object();
      w.key("ruleId").value(rule);
      w.key("level").value(level);
      w.key("message").begin_object();
      std::string text = prog.diagnostics.empty()
                             ? std::string(to_string(prog.status))
                             : prog.diagnostics.front().message;
      w.key("text").value(text);
      w.end_object();
      uint32_t line =
          prog.diagnostics.empty() ? 0 : prog.diagnostics.front().line;
      location(prog.name, line);
      w.end_object();
      continue;
    }
    for (const auto& p : prog.procs) {
      if (p->degraded) {
        w.begin_object();
        w.key("ruleId").value("SYNAT005");
        w.key("level").value("warning");
        w.key("message").begin_object();
        w.key("text").value("procedure '" + p->name +
                            "' has no verdict (degraded: " + p->degrade_kind +
                            "): " + p->degrade_reason);
        w.end_object();
        location(prog.name, p->line);
        w.end_object();
        continue;  // "unknown" must not double-report as non-atomic
      }
      if (!p->atomic) {
        w.begin_object();
        w.key("ruleId").value("SYNAT001");
        w.key("level").value("warning");
        w.key("message").begin_object();
        std::string text = "procedure '" + p->name + "' is not atomic (" +
                           p->atomicity + ")";
        if (!p->variants.empty() && !p->variants.front().blocks.empty()) {
          size_t max_blocks = 0;
          for (const VariantReport& v : p->variants)
            max_blocks = std::max(max_blocks, v.blocks.size());
          text += "; largest variant partitions into " +
                  std::to_string(max_blocks) + " atomic block(s)";
        }
        w.key("text").value(text);
        w.end_object();
        location(prog.name, p->line);
        // Conflict witnesses recorded by step 4 become relatedLocations:
        // both sides of each conflicting access pair, in variant order.
        bool have_witness = false;
        for (const VariantReport& v : p->variants)
          for (const obs::ProvenanceRecord& r : v.prov)
            if (r.step == 4 && r.rule == "conflict" && !r.witness.empty())
              have_witness = true;
        if (have_witness) {
          auto related = [&](const std::string& msg, uint32_t line) {
            w.begin_object();
            w.key("physicalLocation").begin_object();
            w.key("artifactLocation").begin_object();
            w.key("uri").value(prog.name);
            w.end_object();
            if (line > 0) {
              w.key("region").begin_object();
              w.key("startLine").value(line);
              w.end_object();
            }
            w.end_object();
            w.key("message").begin_object();
            w.key("text").value(msg);
            w.end_object();
            w.end_object();
          };
          w.key("relatedLocations").begin_array();
          for (const VariantReport& v : p->variants) {
            for (const obs::ProvenanceRecord& r : v.prov) {
              if (r.step != 4 || r.rule != "conflict" || r.witness.empty())
                continue;
              related(r.subject, r.line);
              related("conflicts with " + r.witness, r.witness_line);
            }
          }
          w.end_array();
        }
        w.end_object();
      }
      if (p->bailed_out) {
        w.begin_object();
        w.key("ruleId").value("SYNAT003");
        w.key("level").value("note");
        w.key("message").begin_object();
        w.key("text").value("variant enumeration bailed out for '" + p->name +
                            "'");
        w.end_object();
        location(prog.name, p->line);
        w.end_object();
      }
    }
  }
  w.end_array();
  w.end_object();  // run
  w.end_array();
  w.end_object();
  std::string out = std::move(w).str();
  out += '\n';
  return out;
}

std::string to_text(const BatchReport& report) {
  std::string out;
  for (const ProgramReport& prog : report.programs) {
    out += prog.name;
    out += ": ";
    out += to_string(prog.status);
    out += '\n';
    for (const DiagReport& d : prog.diagnostics) {
      out += "  " + d.severity + " " + std::to_string(d.line) + ":" +
             std::to_string(d.column) + ": " + d.message + "\n";
    }
    for (const auto& p : prog.procs) {
      if (p->degraded) {
        out += "  proc " + p->name + " : unknown (degraded: " +
               p->degrade_reason + ")\n";
        continue;
      }
      out += "  proc " + p->name + " : ";
      out += p->atomic ? "atomic" : "NOT atomic";
      out += " (" + p->atomicity + ")";
      out += ", " + std::to_string(p->variants.size()) + " variant(s)";
      size_t max_blocks = 0;
      for (const VariantReport& v : p->variants)
        max_blocks = std::max(max_blocks, v.blocks.size());
      if (!p->atomic && max_blocks > 0)
        out += ", " + std::to_string(max_blocks) + " atomic block(s)";
      if (p->bailed_out) out += " [bailed out]";
      out += '\n';
    }
  }
  size_t atomic = count_atomic(report);
  out += "summary: " + std::to_string(report.metrics.programs) +
         " program(s), " + std::to_string(report.metrics.procedures) +
         " procedure(s), " + std::to_string(atomic) + " atomic, " +
         std::to_string(report.metrics.procedures - atomic) + " not atomic";
  if (report.metrics.degraded > 0)
    out += ", " + std::to_string(report.metrics.degraded) + " degraded";
  if (report.metrics.crashed > 0)
    out += ", " + std::to_string(report.metrics.crashed) + " crashed";
  if (report.metrics.parse_errors > 0)
    out += ", " + std::to_string(report.metrics.parse_errors) +
           " parse error(s)";
  if (report.metrics.load_errors > 0)
    out += ", " + std::to_string(report.metrics.load_errors) +
           " load error(s)";
  if (report.metrics.internal_errors > 0)
    out += ", " + std::to_string(report.metrics.internal_errors) +
           " internal error(s)";
  out += "\ncache: " + std::to_string(report.metrics.cache_hits) + " hit(s), " +
         std::to_string(report.metrics.cache_misses) + " miss(es)";
  if (report.metrics.cache_rejected > 0)
    out += ", " + std::to_string(report.metrics.cache_rejected) +
           " rejected snapshot entr" +
           (report.metrics.cache_rejected == 1 ? "y" : "ies");
  out += "\n";
  return out;
}

namespace {

std::string loc_str(uint32_t line, uint32_t column) {
  if (line == 0) return {};
  std::string s = "line " + std::to_string(line);
  if (column > 0) s += ":" + std::to_string(column);
  return s;
}

/// One derivation record as an indented bullet:
///   - step 4 [commutativity] conflict: read Head (line 7) => A  [Thm 3.3]
///       a conflicting access exists in an adjacent slot
///       witness: SC Head in Enq'1 (line 12)
void render_record(std::string& out, const obs::ProvenanceRecord& r,
                   const std::string& indent) {
  out += indent + "- step " + std::to_string(r.step) + " [" +
         std::string(obs::provenance_step_title(r.step)) + "] " + r.rule;
  if (!r.subject.empty()) out += ": " + r.subject;
  std::string loc = loc_str(r.line, r.column);
  if (!loc.empty()) out += " (" + loc + ")";
  if (!r.atom.empty()) out += " => " + r.atom;
  if (!r.theorem.empty()) out += "  [Thm " + r.theorem + "]";
  out += '\n';
  if (!r.detail.empty()) out += indent + "    " + r.detail + "\n";
  if (!r.witness.empty()) {
    out += indent + "    witness: " + r.witness;
    std::string wloc = loc_str(r.witness_line, r.witness_column);
    if (!wloc.empty()) out += " (" + wloc + ")";
    out += '\n';
  }
}

}  // namespace

std::string to_explain(const BatchReport& report,
                       const std::string& proc_filter) {
  std::string out;
  bool matched = proc_filter.empty();
  for (const ProgramReport& prog : report.programs) {
    out += "== " + prog.name + " (" + std::string(to_string(prog.status)) +
           ") ==\n";
    if (prog.status != ProgramStatus::Ok) {
      for (const DiagReport& d : prog.diagnostics)
        out += "  " + d.severity + " " + std::to_string(d.line) + ":" +
               std::to_string(d.column) + ": " + d.message + "\n";
      continue;
    }
    for (const auto& p : prog.procs) {
      if (!proc_filter.empty() && p->name != proc_filter) continue;
      matched = true;
      out += "\nprocedure " + p->name;
      if (p->line > 0) out += " (line " + std::to_string(p->line) + ")";
      if (p->degraded) {
        out += ": unknown (degraded: " + p->degrade_kind + ") — " +
               p->degrade_reason + "\n";
        continue;
      }
      out += ": ";
      out += p->atomic ? "atomic" : "NOT atomic";
      out += " (" + p->atomicity + ")\n";
      bool any = !p->prov.empty();
      // Step-0 facts (variant enumeration, purity) lead; the step-7
      // verdict closes the tree after the variants it judges.
      for (const obs::ProvenanceRecord& r : p->prov)
        if (r.step != 7) render_record(out, r, "  ");
      for (const VariantReport& v : p->variants) {
        if (!v.prov.empty()) any = true;
        out += "  variant " + v.tag + ": composes to " + v.atomicity + "\n";
        for (const obs::ProvenanceRecord& r : v.prov)
          render_record(out, r, "    ");
      }
      for (const obs::ProvenanceRecord& r : p->prov)
        if (r.step == 7) render_record(out, r, "  ");
      if (!any)
        out += "  (no derivation records; the run did not collect "
               "provenance)\n";
    }
  }
  if (!matched)
    out += "procedure '" + proc_filter + "' not found\n";
  return out;
}

}  // namespace synat::driver
