// Unified observability layer (DESIGN.md §3e): stage identifiers, the
// process-wide enable flags, and the monotonic clock shared by the span
// tracer and the metrics registry.
//
// Everything here is built to be compiled in unconditionally and cost
// nothing when disabled: a SpanScope whose flags are off performs exactly
// one relaxed atomic load and no clock read; counters are single relaxed
// atomic increments and are always on (they feed the JSON report's
// deterministic counters section and cost nanoseconds per driver-level
// event, never inside an analysis hot loop).
#pragma once

#include <atomic>
#include <cstdint>
#include <string_view>

namespace synat::obs {

/// Every span the system emits names one of these stages. The first seven
/// are the paper's pipeline (parse → CFG/liveness → purity §4 → exceptional
/// variants §5.2 → mover classification Thms 3.1-5.5 → atomicity inference
/// §5.4 → block partitioning §6.4); the rest are batch-driver stages.
enum class StageId : uint8_t {
  // Pipeline stages (category "pipeline").
  Parse,
  CfgLiveness,
  Dataflow,       ///< escape, uniqueness, LL/SC matching, local conditions
  Purity,
  Variants,
  Contexts,       ///< regions, lock sets, alias indexes, Thm 5.5 premises
  Movers,
  Infer,
  Blocks,
  // Driver stages (category "driver").
  Analyze,        ///< universe build and per-procedure classification
  Report,         ///< report assembly from analysis results
  CacheLookup,
  CacheStore,
  Dispatch,       ///< supervisor: fork of one worker
  // Serve stages (category "serve"): the `synat serve` daemon.
  RpcDecode,      ///< request line parse + JSON-RPC validation
  RpcExecute,     ///< method execution (analysis runs inside)
  RpcRequest,     ///< whole request lifetime: decode, queue wait, execute
  RpcSandbox,     ///< sandboxed execution: fork, worker attempts, reap
  COUNT
};

inline constexpr size_t kNumStages = static_cast<size_t>(StageId::COUNT);

std::string_view stage_name(StageId s);      ///< "parse", "cfg_liveness", ...
std::string_view stage_category(StageId s);  ///< "pipeline", "driver", "serve"

/// Observability flags, one process-wide atomic word.
enum : uint32_t {
  kTraceFlag = 1u << 0,    ///< collect spans into the per-thread rings
  kMetricsFlag = 1u << 1,  ///< record span durations into stage histograms
};

namespace detail {
extern std::atomic<uint32_t> g_flags;
}

inline uint32_t flags() {
  return detail::g_flags.load(std::memory_order_relaxed);
}
inline bool timing_enabled() { return flags() != 0; }
void set_flags(uint32_t flags);
void enable(uint32_t flag);

/// Monotonic nanoseconds. When the environment variable
/// SYNAT_OBS_VIRTUAL_CLOCK is set (checked once), this is a process-global
/// counter advancing 1µs per read instead of a real clock, which makes
/// span timestamps — and therefore whole trace/metrics documents —
/// byte-deterministic under `--jobs 1`.
uint64_t now_ns();

/// Whether the virtual clock is active (test/CI hook).
bool virtual_clock();

}  // namespace synat::obs
