// Report model for the batch driver: plain-data summaries of one analysis
// run, aggregated by a ReportSink into deterministic JSON / SARIF / text.
//
// Everything here is decoupled from the AST so reports outlive the Program
// they were computed from (Programs are per-task and per-thread; reports are
// cached across tasks and runs). All ordering is by task/procedure index,
// never by pointer or hash order, so documents are byte-stable across
// --jobs settings. Durations are not part of the model: the `--timings`
// block renders the obs stage histograms carried in Metrics::telemetry.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "synat/obs/events.h"
#include "synat/obs/metrics.h"
#include "synat/obs/provenance.h"

namespace synat::driver {

/// Build version, reported by the `synat serve` status RPC.
inline constexpr std::string_view kSynatVersion = "0.6.0";
/// Version of the "synat-batch-report" JSON schema emitted by to_json.
inline constexpr int kReportSchemaVersion = 5;

/// One annotated source line of a variant listing: the statement head with
/// its inferred atomicity type (the paper's Figure 3 presentation).
struct LineReport {
  uint32_t line = 0;     ///< 1-based source line (0 if synthesized)
  std::string atom;      ///< "B" "R" "L" "A" "N"
  std::string text;      ///< one-line statement head
};

/// One maximal atomic block of a variant body (paper Section 6.4).
struct BlockReport {
  std::string atom;      ///< composed atomicity of the block
  size_t units = 0;      ///< flattened statements merged into the block
};

/// One exceptional variant of a procedure.
struct VariantReport {
  std::string tag;       ///< "Deq'2", or the proc name for the sole variant
  std::string atomicity; ///< of the variant body
  std::vector<LineReport> lines;
  std::vector<BlockReport> blocks;
  /// Derivation records for this variant (per-event mover classes, the
  /// step-6 composition, atomic-block cuts). Empty unless the run collected
  /// provenance (DESIGN.md §3f).
  std::vector<obs::ProvenanceRecord> prov;
};

/// Per-procedure verdict; the unit stored in the memoization cache.
struct ProcReport {
  std::string name;
  uint32_t line = 0;  ///< 1-based source line of the declaration
  bool atomic = false;
  std::string atomicity;   ///< join over variant bodies
  bool no_variants = false;
  bool bailed_out = false;
  uint64_t key = 0;        ///< content-address this report is cached under
  std::vector<VariantReport> variants;
  /// Procedure-level derivation records (step-0 variant/purity facts and
  /// the step-7 verdict). Empty unless the run collected provenance.
  std::vector<obs::ProvenanceRecord> prov;

  /// Graceful degradation (DESIGN.md §3c): the analysis of this procedure
  /// was cut short (parse failure, deadline, variant budget) and
  /// `atomicity` is "unknown". Degraded reports are never cached.
  bool degraded = false;
  std::string degrade_kind;    ///< "parse" "deadline" "max-variants"
  std::string degrade_reason;  ///< human-readable detail
};

struct DiagReport {
  std::string severity;  ///< "error" "warning" "note"
  uint32_t line = 0, column = 0;
  std::string message;
};

enum class ProgramStatus : uint8_t {
  // Order matters: ReportSink::fail_program keeps the numerically largest
  // (worst) status when a program fails more than once.
  Ok,             ///< parsed and analyzed (possibly with degraded procs)
  Degraded,       ///< an isolated worker died (crash/OOM/stall); no verdict
  ParseError,     ///< front-end rejected the source
  LoadError,      ///< the input could not be read at all
  InternalError,  ///< an analysis stage threw (a synat bug)
};

std::string_view to_string(ProgramStatus s);

struct ProgramReport {
  std::string name;        ///< file path or corpus:<name> spec
  std::string fingerprint; ///< hex FNV-1a of printed program + options
  ProgramStatus status = ProgramStatus::Ok;
  std::vector<DiagReport> diagnostics;
  /// One entry per original procedure, in declaration order. Entries are
  /// shared with the cache (immutable once published).
  std::vector<std::shared_ptr<const ProcReport>> procs;

  bool all_atomic() const;
};

struct Metrics {
  size_t programs = 0;
  size_t procedures = 0;
  size_t variants = 0;
  size_t parse_errors = 0;
  size_t load_errors = 0;
  size_t internal_errors = 0;
  size_t degraded = 0;        ///< procedures reported with ProcReport::degraded
  size_t crashed = 0;         ///< programs whose isolated worker died
  size_t cache_hits = 0;      ///< this run's own cache lookups that hit
  size_t cache_misses = 0;    ///< ... and missed (procedures re-analyzed)
  size_t cache_rejected = 0;  ///< corrupt/stale snapshot entries skipped
  size_t jobs = 0;
  /// Registry delta for this run (obs counters/gauges/histograms), filled
  /// by BatchDriver::run. The deterministic counters feed the report's
  /// "counters" section (RenderOptions::counters) and the parse, analyze
  /// and report stage histograms its "stages" section
  /// (RenderOptions::timings); everything reaches the Prometheus exporter.
  obs::MetricsSnapshot telemetry;
};

/// The documented exit-code convention, as one explicit precedence order:
/// 0 ok < 1 not-atomic/degraded < 2 usage < 3 parse/load < 4 internal.
/// Everything that combines codes — BatchReport::exit_code() and the CLI's
/// escalation paths — must go through these, never ad-hoc comparisons.
int exit_code_severity(int code);
int combine_exit_codes(int a, int b);

struct BatchReport {
  std::vector<ProgramReport> programs;
  Metrics metrics;

  size_t procs_not_atomic() const;
  /// Driver exit-code convention: 0 ok, 1 some procedure not atomic or
  /// degraded (including crashed workers), 3 parse/load errors, 4 internal
  /// errors; the highest-severity code wins (combine_exit_codes).
  int exit_code() const;
};

struct RenderOptions {
  /// Include the parse, analyze and report stage histograms of
  /// Metrics::telemetry in the metrics block; they hold samples only when
  /// the run had obs::kMetricsFlag on. Off by default so default output is
  /// byte-deterministic across runs.
  bool timings = false;
  /// Include the deterministic obs counters (schema v4 "counters" section).
  bool counters = false;
  /// Include the "provenance" section (schema v5): structured derivation
  /// records per procedure and variant. Requires the run to have collected
  /// them (InferOptions::provenance); renders empty arrays otherwise.
  bool provenance = false;
};

/// Seeds a wide event (obs/events.h) with program `pr`'s verdict fields:
/// name, fingerprint, status, atomic, per-program exit code, and the
/// procedure/variant tallies. This is the shared core of batch and serve
/// event emission — both paths build their line from the same assembled
/// ProgramReport, which is what keeps one program's event byte-identical
/// across execution modes under the virtual clock.
obs::Event program_event(const ProgramReport& pr);

/// Deterministic renderers (pure functions of the report).
std::string to_json(const BatchReport& report, const RenderOptions& opts = {});
std::string to_sarif(const BatchReport& report);
std::string to_text(const BatchReport& report);
/// Human-readable derivation trees for `synat explain`: per-event mover
/// class → per-statement atomicity → verdict, citing the recorded theorems.
/// When `proc_filter` is non-empty only that procedure is rendered.
std::string to_explain(const BatchReport& report,
                       const std::string& proc_filter = {});

/// Thread-safe collector: workers publish whole programs by index;
/// finish() assembles the deterministic BatchReport.
class ReportSink {
 public:
  explicit ReportSink(size_t num_programs);

  /// Publishes program `i` once its analysis is done, in process or as a
  /// decoded worker result: every procedure filled in, or a status saying
  /// why not (an escalated budget trip).
  void publish_program(size_t i, ProgramReport report);
  /// Publishes a failed program (parse, load, internal error, or a crashed
  /// isolated worker — ProgramStatus::Degraded).
  void fail_program(size_t i, std::string name, ProgramStatus status,
                    std::vector<DiagReport> diags);
  /// Accumulates `ns` against program `i`'s own tally of stage `s` (the
  /// wide event's parse/analyze/report fields): wall time on the
  /// program's thread, not a histogram sample.
  void add_program_time(size_t i, obs::StageId s, uint64_t ns);
  /// Per-program accumulated stage wall times (ns), indexed by StageId.
  /// Consumed by the driver's event emission; valid after finish() too.
  std::array<uint64_t, obs::kNumStages> program_stage_ns(size_t i) const;

  /// Assembles the final report. Call after the pool is idle.
  BatchReport finish(const Metrics& counters, size_t jobs);

 private:
  mutable std::mutex mu_;
  std::vector<ProgramReport> programs_;
  std::vector<std::array<uint64_t, obs::kNumStages>>
      stage_ns_;                       ///< per-program stage tallies
  Metrics metrics_;
};

}  // namespace synat::driver
