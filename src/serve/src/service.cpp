#include "synat/serve/service.h"

#include <cstdio>
#include <thread>
#include <utility>
#include <vector>

#include "synat/driver/driver.h"
#include "synat/driver/worker.h"
#include "synat/obs/events.h"
#include "synat/obs/export.h"
#include "synat/obs/metrics.h"
#include "synat/obs/trace.h"
#include "synat/support/budget.h"
#include "synat/support/hash.h"

namespace synat::serve {

namespace {

/// The display name a refused request would have analyzed under, for its
/// wide event (accepted requests take the name from the assembled report).
std::string request_name(const JsonValue& params) {
  if (params.is_object()) {
    const JsonValue* name = params.get("name");
    if (name != nullptr && name->is_string()) return name->str;
  }
  return "rpc";
}

/// Reads the analyze/explain params into a ProgramInput + render settings.
/// The option names mirror the `synat batch` flags one-to-one so a client
/// can reproduce any CLI run over RPC.
RpcError parse_analyze_params(const JsonValue& params,
                              driver::ProgramInput& input, bool& provenance,
                              std::string& proc_filter) {
  if (!params.is_object())
    return {kErrInvalidParams, "params must be an object"};
  const JsonValue* program = params.get("program");
  if (program == nullptr || !program->is_string())
    return {kErrInvalidParams, "params.program must be a string of SYNL source"};
  input.source = program->str;
  input.name = "rpc";
  if (const JsonValue* name = params.get("name")) {
    if (!name->is_string())
      return {kErrInvalidParams, "params.name must be a string"};
    input.name = name->str;
  }
  auto flag = [&params](const char* key, bool& out) -> bool {
    const JsonValue* v = params.get(key);
    if (v == nullptr) return true;
    if (!v->is_bool()) return false;
    out = v->boolean;
    return true;
  };
  bool no_variants = false, no_windows = false, no_conds = false;
  if (!flag("provenance", provenance))
    return {kErrInvalidParams, "params.provenance must be a boolean"};
  if (!flag("no_variants", no_variants))
    return {kErrInvalidParams, "params.no_variants must be a boolean"};
  if (!flag("no_windows", no_windows))
    return {kErrInvalidParams, "params.no_windows must be a boolean"};
  if (!flag("no_conds", no_conds))
    return {kErrInvalidParams, "params.no_conds must be a boolean"};
  input.opts.variant_opts.disable = no_variants;
  input.opts.use_window_rule = !no_windows;
  input.opts.use_local_conditions = !no_conds;
  input.opts.provenance = provenance;
  if (const JsonValue* counted = params.get("counted")) {
    if (!counted->is_array())
      return {kErrInvalidParams, "params.counted must be an array of strings"};
    for (const JsonValue& c : counted->items) {
      if (!c.is_string())
        return {kErrInvalidParams, "params.counted entries must be strings"};
      input.opts.counted_cas.push_back(c.str);
    }
  }
  auto count = [&params](const char* key, size_t& out) -> bool {
    const JsonValue* v = params.get(key);
    if (v == nullptr) return true;
    if (!v->is_number() || v->number < 0) return false;
    out = static_cast<size_t>(v->number);
    return true;
  };
  if (!count("max_paths", input.opts.variant_opts.max_paths))
    return {kErrInvalidParams, "params.max_paths must be a non-negative number"};
  if (!count("max_variants", input.opts.variant_opts.max_variants))
    return {kErrInvalidParams,
            "params.max_variants must be a non-negative number"};
  if (const JsonValue* proc = params.get("proc")) {
    if (!proc->is_string())
      return {kErrInvalidParams, "params.proc must be a string"};
    proc_filter = proc->str;
  }
  return {};
}

/// The analyze/explain reply of both execution paths, built from the
/// assembled one-program report and the request's cache traffic. The live
/// hit and miss counts go to the envelope and the wide event; the document
/// renders with zeroed cache metrics, because it must be byte-identical to
/// `synat batch --format json`, which runs with a cold per-invocation cache
/// (ServerDeterminism).
std::string analyze_reply(const RpcRequest& req, bool explain, bool provenance,
                          const std::string& proc_filter,
                          driver::BatchReport report, uint64_t hits,
                          uint64_t misses, obs::Event* ev) {
  static obs::Counter& serve_hits =
      obs::registry().counter("synat_serve_cache_hits_total", false);
  static obs::Counter& serve_misses =
      obs::registry().counter("synat_serve_cache_misses_total", false);
  static obs::Counter& reanalyzed =
      obs::registry().counter("synat_serve_procedures_reanalyzed_total", false);
  serve_hits.inc(hits);
  serve_misses.inc(misses);
  reanalyzed.inc(misses);
  if (ev != nullptr && !report.programs.empty()) {
    *ev = driver::program_event(report.programs[0]);
    ev->cache_hits = hits;
    ev->cache_misses = misses;
  }
  report.metrics.cache_hits = 0;
  report.metrics.cache_misses = 0;
  report.metrics.cache_rejected = 0;

  JsonValue result = JsonValue::make_object();
  if (explain) {
    result.add("explanation",
               JsonValue::make_string(driver::to_explain(report, proc_filter)));
  } else {
    driver::RenderOptions ropts;
    ropts.provenance = provenance;
    result.add("report", JsonValue::make_string(driver::to_json(report, ropts)));
    result.add("cache_hits", JsonValue::make_number(hits));
    result.add("procedures_reanalyzed", JsonValue::make_number(misses));
  }
  result.add("exit_code",
             JsonValue::make_number(static_cast<int64_t>(report.exit_code())));
  return encode_result(req.id, std::move(result));
}

}  // namespace

Service::Service(ServiceOptions opts)
    : opts_(opts),
      quarantine_(Quarantine::Options{opts.quarantine_threshold,
                                      opts.quarantine_ttl_ms,
                                      /*max_entries=*/4096}) {
  jobs_ = opts_.jobs == 0
              ? std::max(1u, std::thread::hardware_concurrency())
              : opts_.jobs;
  pool_ = std::make_unique<ThreadPool>(jobs_);
  start_ns_ = obs::now_ns();
}

Service::~Service() { drain(); }

uint64_t Service::uptime_ms() const {
  return (obs::now_ns() - start_ns_) / 1'000'000;
}

void Service::set_shutdown_hook(std::function<void()> hook) {
  shutdown_hook_ = std::move(hook);
}

void Service::drain() {
  draining_.store(true, std::memory_order_release);
  pool_->wait_idle();
}

void Service::handle(std::string line, Reply reply) {
  static obs::Counter& requests =
      obs::registry().counter("synat_serve_requests_total", false);
  static obs::Counter& invalid =
      obs::registry().counter("synat_serve_invalid_total", false);
  static obs::Counter& rejected =
      obs::registry().counter("synat_serve_rejected_total", false);
  static obs::Gauge& in_flight_gauge =
      obs::registry().gauge("synat_serve_in_flight");
  requests.inc();

  const uint64_t seq = next_request_.fetch_add(1, std::memory_order_relaxed);
  const uint64_t req_start = obs::timing_enabled() ? obs::now_ns() : 0;
  // Latency samples take the real clock, never the virtual one (quantiles
  // of a virtual clock would be fiction).
  const uint64_t start_real = steady_now_ns();

  RpcRequest req;
  RpcError err;
  {
    obs::SpanScope decode_span(obs::StageId::RpcDecode);
    if (line.size() > opts_.max_request_bytes) {
      err = {kErrInvalidRequest,
             "request exceeds " + std::to_string(opts_.max_request_bytes) +
                 " bytes"};
    } else {
      JsonLimits limits;
      limits.max_bytes = opts_.max_request_bytes;
      err = decode_request(line, req, limits);
    }
  }

  // Per-request lane tracing: the whole request lifetime becomes one span
  // in its own lane named after the request, so a trace of a busy daemon
  // reads like a swimlane diagram of overlapping requests.
  auto finish_request = [seq, req_start, method = req.method] {
    if (req_start == 0) return;
    uint64_t dur = obs::now_ns() - req_start;
    uint32_t flags = obs::flags();
    if (flags & obs::kMetricsFlag)
      obs::registry().stage_histogram(obs::StageId::RpcRequest).observe(dur);
    if (flags & obs::kTraceFlag) {
      uint32_t lane = static_cast<uint32_t>(1 + seq);
      obs::Tracer::instance().inject(
          lane, {{static_cast<uint32_t>(obs::StageId::RpcRequest), lane, 0,
                  req_start, dur}});
      obs::Tracer::instance().set_lane_name(
          lane, "rpc #" + std::to_string(seq) +
                    (method.empty() ? "" : " " + method));
    }
  };
  if (err.code != 0) {
    // An undecodable line cannot be identified as a notification, so it
    // always gets a response (JSON-RPC prescribes id:null).
    invalid.inc();
    if (reply)
      reply(encode_error(req.has_id ? &req.id : nullptr, err.code,
                         err.message));
    finish_request();
    return;
  }

  // Notifications (no id) execute but never produce a response frame.
  auto respond = [reply = std::move(reply), has_id = req.has_id](
                     std::string body) {
    if (has_id && reply) reply(std::move(body));
  };

  if (req.method == "analyze" || req.method == "explain") {
    // A refused request still gets a wide event: load shedding is exactly
    // the kind of incident the event log must narrate.
    auto refuse = [this, start_real](const JsonValue& params, int code,
                                     const char* kind) {
      obs::Event ev;
      ev.name = request_name(params);
      ev.status = "error";
      ev.error_code = code;
      ev.error_kind = kind;
      finish_obs(std::move(ev), start_real);
    };
    if (draining()) {
      respond(encode_error(&req.id, kErrShuttingDown,
                           "server is shutting down"));
      refuse(req.params, kErrShuttingDown, "shutting_down");
      finish_request();
      return;
    }
    // Admission control before the queue: fetch_add is the reservation, so
    // concurrent arrivals over the cap are refused without ever queueing —
    // bounded memory and bounded latency under saturation.
    size_t admitted = in_flight_.fetch_add(1, std::memory_order_acq_rel);
    if (admitted >= opts_.max_queue) {
      in_flight_.fetch_sub(1, std::memory_order_acq_rel);
      rejected.inc();
      respond(encode_error(&req.id, kErrOverloaded,
                           "server overloaded: " +
                               std::to_string(opts_.max_queue) +
                               " requests already queued or running"));
      refuse(req.params, kErrOverloaded, "overloaded");
      finish_request();
      return;
    }
    in_flight_gauge.set(admitted + 1);
    pool_->submit([this, seq, start_real, req = std::move(req),
                   respond = std::move(respond), finish_request]() mutable {
      obs::Event ev;
      ev.name = request_name(req.params);
      std::string body;
      {
        obs::SpanScope exec_span(obs::StageId::RpcExecute);
        body = dispatch(req, static_cast<uint32_t>(1 + seq), &ev);
      }
      // Release the admission slot before the reply leaves: a client that
      // observes its response must also observe the slot free (status right
      // after a reply reports in_flight 0, no reservation still in limbo).
      size_t now = in_flight_.fetch_sub(1, std::memory_order_acq_rel) - 1;
      obs::registry().gauge("synat_serve_in_flight").set(now);
      respond(std::move(body));
      finish_request();
      finish_obs(std::move(ev), start_real);
    });
    return;
  }

  // Cheap methods answer inline on the calling thread: they must stay
  // responsive (status/metrics are the probes) even when the pool is
  // saturated with analysis work.
  std::string body;
  {
    obs::SpanScope exec_span(obs::StageId::RpcExecute);
    body = dispatch(req, static_cast<uint32_t>(1 + seq), nullptr);
  }
  if (body.empty()) {
    invalid.inc();
    body = encode_error(req.has_id ? &req.id : nullptr, kErrMethodNotFound,
                        "unknown method '" + req.method + "'");
  }
  respond(std::move(body));
  finish_request();
  // The shutdown hook fires only after the reply was handed to the
  // transport: firing it from do_shutdown() would race the server's drain
  // (which shuts the connections down) against the reply still being
  // written, and the client could lose the {"ok":true} frame.
  if (req.method == "shutdown" && !hook_fired_.exchange(true) &&
      shutdown_hook_)
    shutdown_hook_();
}

std::string Service::dispatch(const RpcRequest& req, uint32_t lane,
                              obs::Event* ev) {
  if (req.method == "analyze")
    return do_analyze(req, /*explain=*/false, lane, ev);
  if (req.method == "explain")
    return do_analyze(req, /*explain=*/true, lane, ev);
  if (req.method == "status") return do_status(req);
  if (req.method == "metrics") return do_metrics(req);
  if (req.method == "invalidate") return do_invalidate(req);
  if (req.method == "shutdown") return do_shutdown(req);
  return {};  // handle() turns this into kErrMethodNotFound
}

std::string Service::do_analyze(const RpcRequest& req, bool explain,
                                uint32_t lane, obs::Event* ev) {
  driver::ProgramInput input;
  bool provenance = explain;  // explain needs the derivation records
  std::string proc_filter;
  if (RpcError err =
          parse_analyze_params(req.params, input, provenance, proc_filter);
      err.code != 0) {
    if (ev != nullptr) {
      ev->status = "error";
      ev->error_code = err.code;
      ev->error_kind = "invalid_params";
    }
    return encode_error(&req.id, err.code, err.message);
  }
  if (explain) input.opts.provenance = true;

  if (opts_.sandbox)
    return do_analyze_sandboxed(req, explain, std::move(input), provenance,
                                proc_filter, lane, ev);

  driver::DriverOptions dopts;
  dopts.jobs = 1;  // index-addressed assembly makes jobs irrelevant to bytes
  driver::BatchDriver drv(dopts, &cache_);
  driver::BatchReport report;
  try {
    report = drv.run({std::move(input)});
  } catch (const std::exception& e) {
    if (ev != nullptr) {
      ev->status = "internal_error";
      ev->error_code = kErrInternal;
      ev->error_kind = "exception";
    }
    return encode_error(&req.id, kErrInternal, e.what());
  }
  const uint64_t hits = report.metrics.cache_hits;
  const uint64_t misses = report.metrics.cache_misses;
  return analyze_reply(req, explain, provenance, proc_filter,
                       std::move(report), hits, misses, ev);
}

std::string Service::do_analyze_sandboxed(const RpcRequest& req, bool explain,
                                          driver::ProgramInput input,
                                          bool provenance,
                                          const std::string& proc_filter,
                                          uint32_t lane, obs::Event* ev) {
  static obs::Counter& worker_crashes =
      obs::registry().counter("synat_serve_worker_crashes_total", false);
  static obs::Counter& worker_timeouts =
      obs::registry().counter("synat_serve_worker_timeouts_total", false);
  static obs::Counter& worker_ooms =
      obs::registry().counter("synat_serve_worker_oom_kills_total", false);
  static obs::Counter& worker_retries =
      obs::registry().counter("synat_serve_worker_retries_total", false);
  static obs::Counter& quarantined =
      obs::registry().counter("synat_serve_quarantined_total", false);
  static obs::Counter& programs_total =
      obs::registry().counter("synat_programs_total");

  // The quarantine key is the same pair a result depends on: the program
  // text and the analysis options. Two requests for the same source with
  // different options fork (and die) independently.
  const uint64_t fp = Hasher()
                          .mix(input.source)
                          .mix(driver::options_fingerprint(input.opts))
                          .value();
  // The quarantine TTL runs on the real clock, so a virtual-clock run still
  // sees it decay.
  if (quarantine_.check(fp, steady_now_ns() / 1'000'000)) {
    quarantined.inc();
    if (ev != nullptr) {
      ev->status = "error";
      ev->quarantined = true;
      ev->error_code = kErrQuarantined;
      ev->error_kind = "quarantined";
    }
    return encode_error(&req.id, kErrQuarantined,
                        "program quarantined: repeated worker deaths; "
                        "retry after the quarantine TTL");
  }

  driver::DriverOptions dopts;
  dopts.deadline_ms = opts_.sandbox_deadline_ms;
  dopts.max_rss_mb = opts_.sandbox_max_rss_mb;
  dopts.retries = opts_.sandbox_retries;
  driver::WorkerOutcome out;
  {
    obs::SpanScope sandbox_span(obs::StageId::RpcSandbox);
    driver::run_workers({&input}, dopts, 1, &cache_,
                        [&out](size_t, driver::WorkerOutcome o) {
                          out = std::move(o);
                        });
  }
  worker_crashes.inc(out.deaths_crash);
  worker_timeouts.inc(out.deaths_timeout);
  worker_ooms.inc(out.deaths_oom);
  worker_retries.inc(out.retries);
  if (out.ok) {
    // The program count the in-process path's run() takes; workers leave
    // it to their caller.
    programs_total.inc();
    if (!out.spans.empty()) obs::Tracer::instance().inject(lane, out.spans);
    quarantine_.record_success(fp);
  } else {
    quarantine_.record_death(fp, steady_now_ns() / 1'000'000);
  }

  // Reassemble the one-program document exactly the way BatchDriver does,
  // so a degraded sandbox reply renders the same "kind":"crash" entry (and
  // exit code 1) as `synat batch --isolate` on a crashing worker, and a
  // healthy one stays byte-identical to `synat batch --format json`.
  driver::ReportSink sink(1);
  if (out.ok) {
    sink.publish_program(0, std::move(out.report));
  } else {
    sink.fail_program(0, input.name, driver::ProgramStatus::Degraded,
                      {{"error", 0, 0, out.reason}});
  }
  std::string reply =
      analyze_reply(req, explain, provenance, proc_filter,
                    sink.finish(driver::Metrics{}, 1), out.cache_hits,
                    out.cache_misses, ev);
  if (ev != nullptr) {
    ev->retries = out.retries;
    ev->deaths_crash = out.deaths_crash;
    ev->deaths_timeout = out.deaths_timeout;
    ev->deaths_oom = out.deaths_oom;
  }
  return reply;
}

std::string Service::do_status(const RpcRequest& req) {
  JsonValue result = JsonValue::make_object();
  result.add("version",
             JsonValue::make_string(std::string(driver::kSynatVersion)));
  result.add("schema_version", JsonValue::make_number(static_cast<int64_t>(
                                   driver::kReportSchemaVersion)));
  result.add("uptime_ms", JsonValue::make_number(uptime_ms()));
  result.add("cache_entries",
             JsonValue::make_number(static_cast<uint64_t>(cache_.size())));
  result.add("options_fingerprint",
             JsonValue::make_string(
                 hex64(driver::options_fingerprint(atomicity::InferOptions{}))));
  result.add("in_flight",
             JsonValue::make_number(static_cast<uint64_t>(in_flight())));
  result.add("jobs", JsonValue::make_number(static_cast<uint64_t>(jobs_)));
  result.add("sandbox", JsonValue::make_bool(opts_.sandbox));
  result.add("quarantine_entries",
             JsonValue::make_number(static_cast<uint64_t>(quarantine_.size())));
  // RPC latency percentiles (real wall clock; inherently nondeterministic)
  // — `status` is the operator's one-stop probe.
  const obs::Histogram& lat =
      obs::registry().histogram("synat_serve_rpc_request_latency_seconds");
  JsonValue latency = JsonValue::make_object();
  latency.add("count", JsonValue::make_number(lat.count()));
  latency.add("p50", JsonValue::make_number(lat.quantile_ns(0.5)));
  latency.add("p95", JsonValue::make_number(lat.quantile_ns(0.95)));
  latency.add("p99", JsonValue::make_number(lat.quantile_ns(0.99)));
  result.add("latency_ns", std::move(latency));
  return encode_result(req.id, std::move(result));
}

std::string Service::do_metrics(const RpcRequest& req) {
  JsonValue result = JsonValue::make_object();
  result.add("content_type",
             JsonValue::make_string("text/plain; version=0.0.4"));
  result.add("prometheus", JsonValue::make_string(
                               obs::to_prometheus(obs::registry().snapshot())));
  return encode_result(req.id, std::move(result));
}

std::string Service::do_invalidate(const RpcRequest& req) {
  size_t n = cache_.size();
  cache_.clear();
  JsonValue result = JsonValue::make_object();
  result.add("invalidated", JsonValue::make_number(static_cast<uint64_t>(n)));
  return encode_result(req.id, std::move(result));
}

std::string Service::do_shutdown(const RpcRequest& req) {
  draining_.store(true, std::memory_order_release);
  // The shutdown hook is fired by handle(), after the reply is delivered.
  JsonValue result = JsonValue::make_object();
  result.add("ok", JsonValue::make_bool(true));
  return encode_result(req.id, std::move(result));
}

void Service::finish_obs(obs::Event ev, uint64_t start_real_ns) {
  const uint64_t dur = steady_now_ns() - start_real_ns;
  ev.dur_ns = dur;
  static obs::Histogram& latency = obs::registry().histogram(
      "synat_serve_rpc_request_latency_seconds");
  latency.observe(dur);
  if (opts_.events == nullptr) return;
  opts_.events->append(std::move(ev));
  // The log counts the lines it could not write; say so once.
  if (opts_.events->dropped() != 0 && !events_warned_.exchange(true))
    std::fprintf(stderr,
                 "synat serve: warning: short write to %s; dropping event "
                 "lines\n",
                 opts_.events->path().c_str());
}

}  // namespace synat::serve
