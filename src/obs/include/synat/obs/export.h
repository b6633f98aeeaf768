// Exporters for the observability layer: Chrome trace-event JSON
// (chrome://tracing / Perfetto "traceEvents" array) and Prometheus text
// exposition 0.0.4. Both renderings are pure functions of their inputs and
// emit keys in a fixed order, so a deterministic span list (drained under
// `--jobs 1`, or any run under the virtual clock) yields a byte-identical
// document modulo the normalized timestamp base.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "synat/obs/metrics.h"
#include "synat/obs/trace.h"

namespace synat::obs {

/// Renders spans as a complete-event ("ph":"X") Chrome trace. Lanes map to
/// trace pids (lane 0 = supervisor/in-process run, lane N = worker N) and
/// span tids to trace tids; process_name/thread_sort_index metadata events
/// label the lanes from `lanes`. Timestamps are re-based to the earliest
/// span start, so two runs with identical relative timing render
/// identically regardless of absolute clock values.
std::string to_chrome_trace(
    const std::vector<SpanRecord>& spans,
    const std::vector<std::pair<uint32_t, std::string>>& lanes);

/// Renders a snapshot in Prometheus text exposition format. Counters gain
/// a "_total" suffix if missing; nondeterministic counters carry
/// "(nondeterministic)" in their HELP line so CI comparators can skip them.
/// Histograms render cumulative `_bucket{le="..."}` series at the upper
/// bounds (in seconds) of their occupied buckets, then `+Inf`, `_sum` and
/// `_count`.
std::string to_prometheus(const MetricsSnapshot& snap);

/// Appends `s` as a JSON string literal (quotes included), escaped per
/// RFC 8259. The one JSON string escape: the exporters and wide events
/// here, the driver's report writer and serve's encoder (obs is the lowest
/// library all of them link).
void append_json_escaped(std::string& out, std::string_view s);

/// Writes `content` to `path` (binary, truncate). Returns false and fills
/// `err` on failure.
bool write_file(const std::string& path, const std::string& content,
                std::string* err);

}  // namespace synat::obs
