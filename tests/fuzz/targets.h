// Fuzz targets (DESIGN.md §3c): shared between the libFuzzer entry points
// (built with -DSYNAT_FUZZ=ON under Clang) and the deterministic corpus
// replay binary that runs under plain ctest on every build. Both targets
// assert the pipeline's crash-freedom contract: arbitrary bytes may produce
// diagnostics or a degraded result, never UB, an uncaught exception, or a
// hang.
#pragma once

#include <cstddef>
#include <cstdint>

namespace synat::fuzz {

/// Lexer → error-recovering parser → containment-mode inline/sema. When the
/// input is fully valid, also checks the printer/reparse fixpoint.
int run_parser(const uint8_t* data, size_t size);

/// Full pipeline: front end plus atomicity inference under a tight resource
/// budget (path cap, variant cap, self-checked deadline). BudgetExceeded is
/// the one exception the pipeline is allowed to raise.
int run_pipeline(const uint8_t* data, size_t size);

/// SYNF Telemetry frame payload decoder (codec::get_telemetry) plus the
/// exporters fed from it. Arbitrary bytes must either fail decode or yield
/// a payload that re-encodes to a decode fixpoint and renders through the
/// Chrome-trace and Prometheus exporters without UB.
int run_telemetry(const uint8_t* data, size_t size);

/// SYNF Provenance frame payload decoder (codec::get_prov_records) plus the
/// counter-name builder fed from it. Arbitrary bytes must either fail
/// decode (truncated frames, over-cap record counts) or yield records that
/// re-encode to a decode fixpoint.
int run_provenance(const uint8_t* data, size_t size);

/// The `synat serve` request decoder: JSON parsing under resource limits
/// plus JSON-RPC request validation. Arbitrary bytes must produce a typed
/// error or a decoded request whose compact re-encoding parses back to the
/// same document — never UB or an exception (requests come straight off the
/// daemon's sockets).
int run_rpc(const uint8_t* data, size_t size);

/// The wide-event renderer (obs/events.h): arbitrary bytes land in every
/// string field of an Event. The rendered line must be a single line and a
/// valid JSON document — the contract the validator, the chaos harness,
/// and log pipelines parse against.
int run_events(const uint8_t* data, size_t size);

}  // namespace synat::fuzz
