// Binary encoding of report structures, shared by the cache snapshot and
// the supervisor/worker result frames. One codec means one definition of
// "what a report is on the wire": every consumer frames the payload itself
// (length prefix + CRC32) and treats a decode failure as corruption of that
// one payload, never of the whole stream.
//
// All integers are little-endian; strings are u64-length-prefixed.
// Collection counts are sanity-capped so a corrupt length cannot drive a
// multi-gigabyte allocation before the checksum is even consulted.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "synat/driver/report.h"
#include "synat/obs/trace.h"

namespace synat::driver::codec {

void put_u32(std::string& out, uint32_t v);
void put_u64(std::string& out, uint64_t v);
void put_str(std::string& out, std::string_view s);

/// Forward-only reader over an encoded payload. Every get_* returns false
/// (and poisons the reader) on truncation or an over-cap count, so callers
/// can chain reads and check once.
class Reader {
 public:
  explicit Reader(std::string_view bytes) : in_(bytes) {}

  bool get_u32(uint32_t& v);
  bool get_u64(uint64_t& v);
  bool get_str(std::string& s);
  bool ok() const { return ok_; }
  bool at_end() const { return ok_ && pos_ == in_.size(); }

 private:
  bool take(size_t n, const char*& p);

  std::string_view in_;
  size_t pos_ = 0;
  bool ok_ = true;
};

/// ProcReport payload (cache entry unit). Includes the degradation fields:
/// the cache never stores degraded reports, but the worker encoding must
/// carry them losslessly.
void put_proc_report(std::string& out, const ProcReport& r);
bool get_proc_report(Reader& in, ProcReport& r);

/// Whole-program payload (worker Result frame unit).
void put_program_report(std::string& out, const ProgramReport& r);
bool get_program_report(Reader& in, ProgramReport& r);

/// Telemetry payload (worker Telemetry frame unit): the spans a worker
/// collected plus its registry delta since fork. Span lanes are not
/// encoded — the supervisor assigns the lane when it injects the spans.
/// Histograms travel sparse: name, sum, then (index, count) pairs for the
/// occupied buckets only. Counts are sanity-capped (kMaxTelemetrySpans /
/// kMaxTelemetryMetrics, at most obs::Histogram::kBuckets pairs) and bucket
/// indices must be in range and strictly increasing, so a corrupt frame
/// fails decode instead of driving a giant allocation.
inline constexpr uint64_t kMaxTelemetrySpans = uint64_t{1} << 22;
inline constexpr uint64_t kMaxTelemetryMetrics = uint64_t{1} << 16;
void put_telemetry(std::string& out, const std::vector<obs::SpanRecord>& spans,
                   const obs::MetricsSnapshot& delta);
bool get_telemetry(Reader& in, std::vector<obs::SpanRecord>& spans,
                   obs::MetricsSnapshot& delta);

/// Provenance section: derivation records for an already-encoded report,
/// keyed by procedure and variant index. Kept out of put_proc_report /
/// put_program_report so the v3 shapes stay byte-stable; consumers that
/// carry provenance (cache v4, the worker Provenance frame)
/// append this section after the report payload and re-attach on decode.
/// Counts are sanity-capped (kMaxProvRecords per vector).
inline constexpr uint64_t kMaxProvRecords = uint64_t{1} << 20;
void put_prov_records(std::string& out,
                      const std::vector<obs::ProvenanceRecord>& recs);
bool get_prov_records(Reader& in, std::vector<obs::ProvenanceRecord>& recs);

/// Whole-program provenance: for each procedure, its records plus each
/// variant's records, in report order. Attaches into `r` on decode
/// (procedure/variant counts must match the decoded report).
void put_program_provenance(std::string& out, const ProgramReport& r);
bool get_program_provenance(Reader& in, ProgramReport& r);

/// Per-procedure provenance (cache entry suffix).
void put_proc_provenance(std::string& out, const ProcReport& r);
bool get_proc_provenance(Reader& in, ProcReport& r);

/// Cache-delta payload (worker CacheDelta frame unit, sandboxed serve):
/// the child's cache hit/miss deltas plus every entry it inserted into its
/// copy-on-write cache image, as (address, report + provenance) pairs. The
/// supervisor re-inserts them into the live cache so subsequent forks
/// inherit a warm image. Entry count is sanity-capped — a single request
/// analyzes one program, so anything near the cap is corruption.
inline constexpr uint64_t kMaxCacheDeltaEntries = uint64_t{1} << 16;
using CacheDeltaEntry = std::pair<uint64_t, std::shared_ptr<const ProcReport>>;
void put_cache_delta(std::string& out, uint64_t hits, uint64_t misses,
                     const std::vector<CacheDeltaEntry>& entries);
bool get_cache_delta(Reader& in, uint64_t& hits, uint64_t& misses,
                     std::vector<CacheDeltaEntry>& entries);

}  // namespace synat::driver::codec
