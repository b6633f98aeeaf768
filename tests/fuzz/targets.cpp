#include "targets.h"

#include <string_view>
#include <vector>

#include "synat/atomicity/infer.h"
#include "synat/driver/codec.h"
#include "synat/obs/events.h"
#include "synat/obs/export.h"
#include "synat/obs/metrics.h"
#include "synat/obs/trace.h"
#include "synat/serve/json.h"
#include "synat/serve/rpc.h"
#include "synat/support/budget.h"
#include "synat/support/diag.h"
#include "synat/synl/parser.h"
#include "synat/synl/printer.h"

namespace synat::fuzz {

int run_parser(const uint8_t* data, size_t size) {
  std::string_view source(reinterpret_cast<const char*>(data), size);
  DiagEngine diags;
  synl::FrontEnd fe = synl::parse_and_recover(source, diags);
  if (diags.has_errors()) {
    // Recovered programs still print (broken procedures are empty stubs),
    // which exercises the printer on recovery-shaped ASTs.
    if (fe.contained) synl::print_program(fe.prog);
    return 0;
  }
  // Valid input: the printer must be a fixpoint under reparsing.
  std::string printed = synl::print_program(fe.prog);
  DiagEngine d2;
  synl::Program p2 = synl::parse_and_check(printed, d2);
  SYNAT_ASSERT(!d2.has_errors(), "printed program failed to reparse");
  SYNAT_ASSERT(synl::print_program(p2) == printed,
               "printer is not a reparse fixpoint");
  return 0;
}

int run_pipeline(const uint8_t* data, size_t size) {
  // Inference cost is superlinear in program size; cap the input so a
  // single fuzz iteration stays fast and the budget does the rest.
  constexpr size_t kMaxInput = 8 * 1024;
  if (size > kMaxInput) size = kMaxInput;
  std::string_view source(reinterpret_cast<const char*>(data), size);
  DiagEngine diags;
  synl::FrontEnd fe = synl::parse_and_recover(source, diags);
  if (!fe.contained) return 0;
  ExecBudget budget;
  budget.arm_deadline_ms(2000);  // checked against the clock at every poll
  atomicity::InferOptions opts;
  opts.variant_opts.max_paths = 64;
  opts.variant_opts.max_variants = 32;
  opts.variant_opts.budget = &budget;
  try {
    atomicity::infer_atomicity(fe.prog, diags, opts);
  } catch (const BudgetExceeded&) {
    // The sanctioned escape hatch; anything else is a real bug.
  }
  return 0;
}

int run_telemetry(const uint8_t* data, size_t size) {
  std::string_view bytes(reinterpret_cast<const char*>(data), size);
  driver::codec::Reader in(bytes);
  std::vector<obs::SpanRecord> spans;
  obs::MetricsSnapshot delta;
  if (!driver::codec::get_telemetry(in, spans, delta)) return 0;
  // Decodable payloads must survive the exporters (hostile metric names hit
  // the JSON/Prometheus escaping paths) and re-encode to a decode fixpoint.
  obs::to_chrome_trace(spans, {});
  obs::to_prometheus(delta);
  std::string wire;
  driver::codec::put_telemetry(wire, spans, delta);
  driver::codec::Reader in2(wire);
  std::vector<obs::SpanRecord> spans2;
  obs::MetricsSnapshot delta2;
  SYNAT_ASSERT(driver::codec::get_telemetry(in2, spans2, delta2),
               "re-encoded telemetry failed to decode");
  bool same = spans2.size() == spans.size() &&
              delta2.counters.size() == delta.counters.size() &&
              delta2.histograms.size() == delta.histograms.size();
  for (size_t i = 0; same && i < delta.histograms.size(); ++i)
    same = delta2.histograms[i].buckets == delta.histograms[i].buckets &&
           delta2.histograms[i].sum_ns == delta.histograms[i].sum_ns;
  SYNAT_ASSERT(same, "telemetry re-encode is not a fixpoint");
  return 0;
}

int run_provenance(const uint8_t* data, size_t size) {
  std::string_view bytes(reinterpret_cast<const char*>(data), size);
  driver::codec::Reader in(bytes);
  std::vector<obs::ProvenanceRecord> recs;
  if (!driver::codec::get_prov_records(in, recs)) return 0;
  // Decodable payloads must survive the counter-name builder (hostile
  // theorem strings hit the label escaping) and re-encode to a fixpoint.
  for (const obs::ProvenanceRecord& r : recs) obs::provenance_counter_name(r);
  std::string wire;
  driver::codec::put_prov_records(wire, recs);
  driver::codec::Reader in2(wire);
  std::vector<obs::ProvenanceRecord> recs2;
  SYNAT_ASSERT(driver::codec::get_prov_records(in2, recs2),
               "re-encoded provenance failed to decode");
  SYNAT_ASSERT(in2.at_end() && recs2 == recs,
               "provenance re-encode is not a fixpoint");
  return 0;
}

int run_rpc(const uint8_t* data, size_t size) {
  std::string_view line(reinterpret_cast<const char*>(data), size);
  serve::RpcRequest req;
  serve::RpcError err = serve::decode_request(line, req);
  if (err.code != 0) {
    // Typed rejection; the error response must still encode (it may echo
    // a partially decoded id).
    serve::encode_error(req.has_id ? &req.id : nullptr, err.code, err.message);
    return 0;
  }
  // Decoded requests re-encode compactly and parse back to an equal shape
  // (the parser accepts what the encoder emits).
  serve::JsonValue result = serve::JsonValue::make_object();
  result.add("method", serve::JsonValue::make_string(req.method));
  result.add("params", req.params);
  std::string frame = serve::encode_result(
      req.has_id ? req.id : serve::JsonValue::make_null(), std::move(result));
  serve::JsonParse back = serve::parse_json(frame);
  SYNAT_ASSERT(back.ok, "encoded response failed to reparse");
  SYNAT_ASSERT(serve::encode_json(back.value) == frame,
               "response encoding is not a reparse fixpoint");
  return 0;
}

int run_events(const uint8_t* data, size_t size) {
  // Split the input into the event's string fields: hostile bytes (quotes,
  // control characters, newlines, invalid UTF-8) land in every escaped
  // position of the rendered line.
  std::string_view bytes(reinterpret_cast<const char*>(data), size);
  obs::Event e;
  size_t quarter = size / 4;
  e.name = std::string(bytes.substr(0, quarter));
  e.fingerprint = std::string(bytes.substr(quarter, quarter));
  e.status = std::string(bytes.substr(2 * quarter, quarter));
  e.error_kind = std::string(bytes.substr(3 * quarter));
  // Numeric fields from the head bytes so counters vary too.
  for (size_t i = 0; i < size && i < 8; ++i)
    e.seq = (e.seq << 8) | data[i];
  e.ts_ns = e.seq ^ 0x5a5a5a5a;
  e.error_code = size > 0 ? -static_cast<int>(data[0]) : 0;
  e.atomic = (size & 1) != 0;
  e.quarantined = (size & 2) != 0;
  std::string line = render_event(e);
  // The line contract the whole pipeline leans on: exactly one line, and
  // every rendered event is a valid JSON document (the validator, the
  // chaos harness, and dashboards all parse it back).
  SYNAT_ASSERT(line.find('\n') == std::string::npos,
               "rendered event contains a raw newline");
  serve::JsonParse back = serve::parse_json(line);
  SYNAT_ASSERT(back.ok, "rendered event is not valid JSON");
  const serve::JsonValue* name = back.value.get("name");
  SYNAT_ASSERT(name != nullptr && name->is_string(),
               "rendered event lost its name field");
  return 0;
}

}  // namespace synat::fuzz
