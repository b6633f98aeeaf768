// The serve method layer: determinism against the batch driver,
// incremental re-analysis through the hot cache, backpressure, draining,
// and concurrent access (the TSan CI job runs this suite).
#include "synat/serve/service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "synat/corpus/corpus.h"
#include "synat/driver/driver.h"
#include "synat/obs/metrics.h"

namespace synat::serve {
namespace {

/// Synchronous round trip: handle one line, wait for the reply (which may
/// arrive from a pool worker thread).
std::string call(Service& service, std::string line) {
  std::promise<std::string> p;
  std::future<std::string> f = p.get_future();
  service.handle(std::move(line),
                 [&p](std::string body) { p.set_value(std::move(body)); });
  return f.get();
}

JsonValue parse(const std::string& body) {
  JsonParse p = parse_json(body);
  EXPECT_TRUE(p.ok) << body;
  return std::move(p.value);
}

/// The "result" member of a successful response.
JsonValue result_of(const std::string& body) {
  JsonValue doc = parse(body);
  EXPECT_EQ(doc.get("jsonrpc")->str, "2.0") << body;
  const JsonValue* result = doc.get("result");
  EXPECT_NE(result, nullptr) << body;
  return result != nullptr ? *result : JsonValue::make_null();
}

int error_code_of(const std::string& body) {
  JsonValue doc = parse(body);
  const JsonValue* err = doc.get("error");
  EXPECT_NE(err, nullptr) << body;
  return err != nullptr ? static_cast<int>(err->get("code")->number) : 0;
}

std::string analyze_request(const std::string& program, const std::string& name,
                            bool provenance = false,
                            const std::vector<std::string>& counted = {},
                            const char* method = "analyze", int id = 1) {
  JsonValue params = JsonValue::make_object();
  params.add("program", JsonValue::make_string(program));
  params.add("name", JsonValue::make_string(name));
  if (provenance) params.add("provenance", JsonValue::make_bool(true));
  if (!counted.empty()) {
    JsonValue arr = JsonValue::make_array();
    for (const std::string& c : counted) arr.push(JsonValue::make_string(c));
    params.add("counted", std::move(arr));
  }
  JsonValue req = JsonValue::make_object();
  req.add("jsonrpc", JsonValue::make_string("2.0"));
  req.add("id", JsonValue::make_number(int64_t{id}));
  req.add("method", JsonValue::make_string(method));
  req.add("params", std::move(params));
  return encode_json(req);
}

uint64_t counter_value(const char* name) {
  return obs::registry().counter(name, false).value();
}

// The tentpole contract: the daemon's rendered report is byte-identical to
// a direct BatchDriver run (what `synat batch --format json` prints) for
// every corpus program, with and without provenance — a hot cache and the
// RPC envelope must never leak into the document.
TEST(ServeService, ServerDeterminism) {
  ServiceOptions sopts;
  sopts.jobs = 2;
  Service service(sopts);
  for (const corpus::Entry& entry : corpus::all()) {
    for (bool provenance : {false, true}) {
      driver::ProgramInput input;
      input.name = "corpus:" + std::string(entry.name);
      input.source = std::string(entry.source);
      for (std::string_view c : entry.counted_cas)
        input.opts.counted_cas.emplace_back(c);
      input.opts.provenance = provenance;
      driver::BatchDriver direct(driver::DriverOptions{});
      driver::RenderOptions ropts;
      ropts.provenance = provenance;
      std::string expected = driver::to_json(direct.run({input}), ropts);

      std::vector<std::string> counted;
      for (std::string_view c : entry.counted_cas) counted.emplace_back(c);
      std::string body = call(
          service, analyze_request(input.source, input.name, provenance,
                                   counted));
      JsonValue result = result_of(body);
      ASSERT_NE(result.get("report"), nullptr) << body;
      EXPECT_EQ(result.get("report")->str, expected)
          << entry.name << " provenance=" << provenance;
    }
  }
}

// Warm requests hit the per-procedure cache; the second identical analyze
// re-analyzes nothing.
TEST(ServeService, WarmRequestHitsCache) {
  ServiceOptions sopts;
  sopts.jobs = 1;
  Service service(sopts);
  const corpus::Entry& entry = corpus::get("nfq_prime");
  std::vector<std::string> counted(entry.counted_cas.begin(),
                                   entry.counted_cas.end());
  std::string req = analyze_request(std::string(entry.source), "warm", false,
                                    counted);
  JsonValue cold = result_of(call(service, req));
  EXPECT_GT(cold.get("procedures_reanalyzed")->number, 0);
  EXPECT_EQ(cold.get("cache_hits")->number, 0);

  JsonValue warm = result_of(call(service, req));
  EXPECT_EQ(warm.get("procedures_reanalyzed")->number, 0);
  EXPECT_GT(warm.get("cache_hits")->number, 0);
  EXPECT_EQ(warm.get("report")->str, cold.get("report")->str);
}

// The incremental contract: editing one procedure re-analyzes only that
// procedure (tracked by synat_serve_procedures_reanalyzed_total), and the
// warm verdicts are byte-identical to a cold run of the edited program.
TEST(ServeService, IncrementalReanalysis) {
  const std::string before =
      "global int Counter;\n"
      "proc int Next() {\n"
      "  loop {\n"
      "    local t := LL(Counter) in {\n"
      "      if (SC(Counter, t + 1)) { return t; }\n"
      "    }\n"
      "  }\n"
      "}\n"
      "proc int Read() {\n"
      "  local t := Counter in { return t; }\n"
      "}\n";
  // Edit only Read's local computation: same layout, same global accesses,
  // so Next's content and the interference universe are unchanged.
  const std::string after =
      "global int Counter;\n"
      "proc int Next() {\n"
      "  loop {\n"
      "    local t := LL(Counter) in {\n"
      "      if (SC(Counter, t + 1)) { return t; }\n"
      "    }\n"
      "  }\n"
      "}\n"
      "proc int Read() {\n"
      "  local t := Counter in { return t + 0; }\n"
      "}\n";

  ServiceOptions sopts;
  sopts.jobs = 1;
  Service service(sopts);
  result_of(call(service, analyze_request(before, "incr")));

  uint64_t reanalyzed_before =
      counter_value("synat_serve_procedures_reanalyzed_total");
  JsonValue warm = result_of(call(service, analyze_request(after, "incr")));
  uint64_t delta = counter_value("synat_serve_procedures_reanalyzed_total") -
                   reanalyzed_before;
  EXPECT_EQ(delta, 1u) << "only the edited procedure should re-run";
  EXPECT_EQ(warm.get("procedures_reanalyzed")->number, 1);
  EXPECT_EQ(warm.get("cache_hits")->number, 1);  // Next served from cache

  Service cold_service(sopts);
  JsonValue cold = result_of(
      call(cold_service, analyze_request(after, "incr")));
  EXPECT_EQ(warm.get("report")->str, cold.get("report")->str);
}

// Each reply counts only its own request's cache lookups, even while other
// requests hit the same cache: hits + re-analyzed procedures is exactly the
// request's procedure count, cold or warm.
TEST(ServeService, ConcurrentRepliesCountOnlyTheirOwnLookups) {
  ServiceOptions sopts;
  sopts.jobs = 4;
  Service service(sopts);
  std::vector<std::thread> clients;
  for (const corpus::Entry& entry : corpus::all()) {
    clients.emplace_back([&service, &entry] {
      std::vector<std::string> counted(entry.counted_cas.begin(),
                                       entry.counted_cas.end());
      std::string req = analyze_request(std::string(entry.source),
                                        std::string(entry.name), false,
                                        counted);
      for (int round = 0; round < 3; ++round) {
        JsonValue result = result_of(call(service, req));
        JsonParse report = parse_json(result.get("report")->str);
        ASSERT_TRUE(report.ok);
        const JsonValue* programs = report.value.get("programs");
        ASSERT_NE(programs, nullptr);
        size_t procs = programs->items.at(0).get("procedures")->items.size();
        EXPECT_EQ(result.get("cache_hits")->number +
                      result.get("procedures_reanalyzed")->number,
                  static_cast<double>(procs))
            << entry.name << " round " << round;
      }
    });
  }
  for (std::thread& t : clients) t.join();
}

TEST(ServeService, BackpressureRejectsOverload) {
  ServiceOptions sopts;
  sopts.jobs = 1;
  sopts.max_queue = 0;  // every analysis request is over the cap
  Service service(sopts);
  uint64_t rejected_before = counter_value("synat_serve_rejected_total");
  std::string body =
      call(service, analyze_request("proc P() { skip; }", "bp"));
  EXPECT_EQ(error_code_of(body), kErrOverloaded);
  EXPECT_EQ(counter_value("synat_serve_rejected_total") - rejected_before, 1u);
  EXPECT_EQ(service.in_flight(), 0u);  // the reservation was rolled back
  // Cheap methods still answer under overload.
  result_of(call(service, R"({"jsonrpc":"2.0","id":2,"method":"status"})"));
}

// Overload recovery: a flood that saturates the admission queue earns
// -32003 rejections, but once the burst drains the admission counter is
// back to zero (no leaked reservations) and new work is accepted.
TEST(ServeService, OverloadRecoversAfterDrain) {
  ServiceOptions sopts;
  sopts.jobs = 1;
  sopts.max_queue = 2;
  Service service(sopts);
  const corpus::Entry& entry = corpus::get("nfq_prime");
  std::vector<std::string> counted(entry.counted_cas.begin(),
                                   entry.counted_cas.end());

  constexpr int kFlood = 24;
  std::vector<std::thread> threads;
  std::atomic<int> accepted{0};
  std::atomic<int> rejected{0};
  std::atomic<int> malformed{0};
  for (int t = 0; t < kFlood; ++t) {
    threads.emplace_back([&, t] {
      std::string body = call(
          service, analyze_request(std::string(entry.source),
                                   "flood" + std::to_string(t), false,
                                   counted));
      JsonParse p = parse_json(body);
      if (!p.ok) {
        ++malformed;
      } else if (p.value.get("result") != nullptr) {
        ++accepted;
      } else if (p.value.get("error") != nullptr &&
                 p.value.get("error")->get("code")->number == kErrOverloaded) {
        ++rejected;
      } else {
        ++malformed;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(malformed.load(), 0);
  EXPECT_EQ(accepted.load() + rejected.load(), kFlood);
  // max_queue 2 against a 24-deep instantaneous flood must reject some and
  // serve some; all-or-nothing means admission accounting is broken.
  EXPECT_GT(accepted.load(), 0);
  EXPECT_GT(rejected.load(), 0);

  // Every reservation was released — overload is a transient condition,
  // not a ratchet. The slot is released before the reply is handed back,
  // but the flood's replies may still be settling on the pool thread, so
  // give it a moment; a leaked reservation would never drop.
  for (int spin = 0; spin < 1000 && service.in_flight() != 0; ++spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(service.in_flight(), 0u);
  JsonValue after = result_of(
      call(service, analyze_request("proc P() { skip; }", "post_flood")));
  EXPECT_EQ(after.get("exit_code")->number, 0);
  JsonValue status =
      result_of(call(service, R"({"jsonrpc":"2.0","id":9,"method":"status"})"));
  EXPECT_EQ(status.get("in_flight")->number, 0);
}

TEST(ServeService, DrainingRejectsAnalysis) {
  ServiceOptions sopts;
  sopts.jobs = 1;
  Service service(sopts);
  service.drain();
  EXPECT_TRUE(service.draining());
  std::string body =
      call(service, analyze_request("proc P() { skip; }", "drain"));
  EXPECT_EQ(error_code_of(body), kErrShuttingDown);
  // Probes keep working during the drain.
  result_of(call(service, R"({"jsonrpc":"2.0","id":2,"method":"status"})"));
}

TEST(ServeService, ShutdownFiresHookOnce) {
  ServiceOptions sopts;
  sopts.jobs = 1;
  Service service(sopts);
  int fired = 0;
  service.set_shutdown_hook([&fired] { ++fired; });
  JsonValue r =
      result_of(call(service, R"({"jsonrpc":"2.0","id":1,"method":"shutdown"})"));
  EXPECT_TRUE(r.get("ok")->boolean);
  result_of(call(service, R"({"jsonrpc":"2.0","id":2,"method":"shutdown"})"));
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(service.draining());
}

TEST(ServeService, StatusFields) {
  ServiceOptions sopts;
  sopts.jobs = 3;
  Service service(sopts);
  JsonValue r =
      result_of(call(service, R"({"jsonrpc":"2.0","id":1,"method":"status"})"));
  // The exact key set, in order: a new key is a deliberate change here.
  std::vector<std::string> keys;
  for (const auto& [key, value] : r.members) keys.push_back(key);
  EXPECT_EQ(keys, (std::vector<std::string>{
                      "version", "schema_version", "uptime_ms",
                      "cache_entries", "options_fingerprint", "in_flight",
                      "jobs", "sandbox", "latency_ns"}));
  EXPECT_EQ(r.get("version")->str, std::string(driver::kSynatVersion));
  EXPECT_EQ(r.get("schema_version")->number, driver::kReportSchemaVersion);
  EXPECT_EQ(r.get("jobs")->number, 3);
  EXPECT_EQ(r.get("cache_entries")->number, 0);
  EXPECT_EQ(r.get("in_flight")->number, 0);
  EXPECT_EQ(r.get("options_fingerprint")->str.size(), 16u);
  EXPECT_GE(r.get("uptime_ms")->number, 0);

  result_of(call(service, analyze_request("proc P() { skip; }", "s")));
  JsonValue r2 =
      result_of(call(service, R"({"jsonrpc":"2.0","id":2,"method":"status"})"));
  EXPECT_GT(r2.get("cache_entries")->number, 0);
}

TEST(ServeService, MetricsEndpoint) {
  ServiceOptions sopts;
  sopts.jobs = 1;
  Service service(sopts);
  JsonValue r = result_of(
      call(service, R"({"jsonrpc":"2.0","id":1,"method":"metrics"})"));
  EXPECT_EQ(r.get("content_type")->str, "text/plain; version=0.0.4");
  const std::string& prom = r.get("prometheus")->str;
  EXPECT_NE(prom.find("synat_serve_requests_total"), std::string::npos);
  EXPECT_NE(prom.find("synat_serve_in_flight"), std::string::npos);
}

TEST(ServeService, InvalidateDropsCache) {
  ServiceOptions sopts;
  sopts.jobs = 1;
  Service service(sopts);
  result_of(call(service, analyze_request("proc P() { skip; }", "inv")));
  EXPECT_GT(service.cache().size(), 0u);
  JsonValue r = result_of(
      call(service, R"({"jsonrpc":"2.0","id":2,"method":"invalidate"})"));
  EXPECT_GT(r.get("invalidated")->number, 0);
  EXPECT_EQ(service.cache().size(), 0u);
  // The next analyze re-runs from scratch.
  JsonValue again =
      result_of(call(service, analyze_request("proc P() { skip; }", "inv")));
  EXPECT_EQ(again.get("cache_hits")->number, 0);
}

TEST(ServeService, ExplainMethod) {
  ServiceOptions sopts;
  sopts.jobs = 1;
  Service service(sopts);
  const corpus::Entry& entry = corpus::get("semaphore_down");
  std::string body = call(
      service, analyze_request(std::string(entry.source), "corpus:semaphore_down",
                               false, {}, "explain"));
  JsonValue r = result_of(body);
  ASSERT_NE(r.get("explanation"), nullptr) << body;

  driver::ProgramInput input;
  input.name = "corpus:semaphore_down";
  input.source = std::string(entry.source);
  input.opts.provenance = true;
  driver::BatchDriver direct(driver::DriverOptions{});
  EXPECT_EQ(r.get("explanation")->str, driver::to_explain(direct.run({input})));
}

TEST(ServeService, ErrorPaths) {
  ServiceOptions sopts;
  sopts.jobs = 1;
  Service service(sopts);
  EXPECT_EQ(error_code_of(call(service, "not json")), kErrParse);
  EXPECT_EQ(error_code_of(call(service, "[]")), kErrInvalidRequest);
  EXPECT_EQ(error_code_of(
                call(service, R"({"jsonrpc":"2.0","id":1,"method":"bogus"})")),
            kErrMethodNotFound);
  EXPECT_EQ(error_code_of(call(
                service, R"({"jsonrpc":"2.0","id":1,"method":"analyze"})")),
            kErrInvalidParams);
  EXPECT_EQ(
      error_code_of(call(
          service,
          R"({"jsonrpc":"2.0","id":1,"method":"analyze","params":{"program":7}})")),
      kErrInvalidParams);
  EXPECT_EQ(
      error_code_of(call(
          service,
          R"({"jsonrpc":"2.0","id":1,"method":"analyze","params":{"program":"p","max_paths":-1}})")),
      kErrInvalidParams);
  // A parse failure in the program itself is not an RPC error: the report
  // carries the diagnostics and a nonzero exit code, like `synat batch`.
  JsonValue r = result_of(
      call(service, analyze_request("proc Broken( {", "broken")));
  EXPECT_EQ(r.get("exit_code")->number, 3);
}

TEST(ServeService, NotificationProducesNoReply) {
  ServiceOptions sopts;
  sopts.jobs = 1;
  Service service(sopts);
  std::atomic<int> replies{0};
  // A notification (no id) with a valid method: executed, never answered.
  service.handle(R"({"jsonrpc":"2.0","method":"invalidate"})",
                 [&replies](std::string) { ++replies; });
  // An analyze notification exercises the pool path.
  JsonValue params = JsonValue::make_object();
  params.add("program", JsonValue::make_string("proc P() { skip; }"));
  JsonValue req = JsonValue::make_object();
  req.add("jsonrpc", JsonValue::make_string("2.0"));
  req.add("method", JsonValue::make_string("analyze"));
  req.add("params", std::move(params));
  service.handle(encode_json(req),
                 [&replies](std::string) { ++replies; });
  service.drain();
  EXPECT_EQ(replies.load(), 0);
  EXPECT_GT(service.cache().size(), 0u);  // the notification did run
}

// Many threads sharing one Service: every request gets exactly one valid
// reply, the cache stays consistent. This is the TSan stress surface.
TEST(ServeService, ConcurrentStress) {
  ServiceOptions sopts;
  sopts.jobs = 4;
  sopts.max_queue = 1024;
  Service service(sopts);
  const corpus::Entry& entry = corpus::get("semaphore_down");
  const std::string source(entry.source);
  constexpr int kThreads = 8;
  constexpr int kRequests = 12;
  std::vector<std::thread> threads;
  std::atomic<int> bad{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&service, &source, &bad, t] {
      for (int i = 0; i < kRequests; ++i) {
        std::string body;
        switch (i % 3) {
          case 0:
            body = call(service,
                        analyze_request(source, "stress" + std::to_string(t)));
            break;
          case 1:
            body = call(service,
                        R"({"jsonrpc":"2.0","id":1,"method":"status"})");
            break;
          default:
            body = call(service,
                        R"({"jsonrpc":"2.0","id":1,"method":"metrics"})");
        }
        JsonParse p = parse_json(body);
        if (!p.ok || p.value.get("result") == nullptr) ++bad;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(bad.load(), 0);
  // The admission slot is released after the reply is delivered, so only
  // after the pool drains is in_flight guaranteed back to zero.
  service.drain();
  EXPECT_EQ(service.in_flight(), 0u);
}

}  // namespace
}  // namespace synat::serve
