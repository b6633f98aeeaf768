// Sandboxed serve execution (DESIGN.md §3h): forked one-shot workers per
// request, byte-identity with the in-process path, the CacheDelta return
// channel keeping the daemon cache warm, and — under
// -DSYNAT_FAULT_INJECTION=ON — crash/hang/OOM containment and the sandbox
// death counters end to end.
//
// Every suite here is named ServeSandbox*: the TSan CI job excludes them
// (`-E 'Sandbox'`) because TSan cannot follow fork() from a threaded
// process into a child that spawns its own heartbeat thread.
#include <gtest/gtest.h>

#include <cstdlib>
#include <future>
#include <ostream>
#include <string>

#include "synat/corpus/corpus.h"
#include "synat/driver/driver.h"
#include "synat/obs/metrics.h"
#include "synat/serve/service.h"

namespace synat::serve {
namespace {

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

JsonValue result_of(const std::string& body) {
  JsonValue doc = parse(body);
  const JsonValue* result = doc.get("result");
  EXPECT_NE(result, nullptr) << body;
  return result != nullptr ? *result : JsonValue::make_null();
}

std::string analyze_request(const std::string& program, const std::string& name,
                            const char* method = "analyze") {
  JsonValue params = JsonValue::make_object();
  params.add("program", JsonValue::make_string(program));
  params.add("name", JsonValue::make_string(name));
  JsonValue req = JsonValue::make_object();
  req.add("jsonrpc", JsonValue::make_string("2.0"));
  req.add("id", JsonValue::make_number(int64_t{1}));
  req.add("method", JsonValue::make_string(method));
  req.add("params", std::move(params));
  return encode_json(req);
}

ServiceOptions sandbox_options() {
  ServiceOptions sopts;
  sopts.jobs = 2;
  sopts.sandbox = true;
  sopts.sandbox_retries = 0;
  return sopts;
}

uint64_t counter_value(const char* name) {
  return obs::registry().counter(name, false).value();
}

// Byte-identity: a forked worker must render the same document as the
// in-process pool path (which in turn matches `synat batch --format json`,
// pinned by ServeService.ServerDeterminism).
TEST(ServeSandbox, ReportMatchesInProcessPath) {
  Service inproc((ServiceOptions()));
  Service sandboxed(sandbox_options());
  for (const char* name : {"nfq_prime", "semaphore_down", "racy_counter"}) {
    const corpus::Entry& entry = corpus::get(name);
    // Counted-CAS corpus annotations ride the analyze params in the real
    // client; plain defaults are enough for byte-identity here.
    std::string req =
        analyze_request(std::string(entry.source), std::string(entry.name));
    JsonValue direct = result_of(call(inproc, req));
    JsonValue forked = result_of(call(sandboxed, req));
    ASSERT_NE(forked.get("report"), nullptr);
    EXPECT_EQ(forked.get("report")->str, direct.get("report")->str) << name;
    EXPECT_EQ(forked.get("exit_code")->number,
              direct.get("exit_code")->number) << name;
  }
}

TEST(ServeSandbox, ExplainMatchesInProcessPath) {
  Service inproc((ServiceOptions()));
  Service sandboxed(sandbox_options());
  const corpus::Entry& entry = corpus::get("semaphore_down");
  std::string req = analyze_request(std::string(entry.source),
                                    "corpus:semaphore_down", "explain");
  JsonValue direct = result_of(call(inproc, req));
  JsonValue forked = result_of(call(sandboxed, req));
  ASSERT_NE(forked.get("explanation"), nullptr);
  EXPECT_EQ(forked.get("explanation")->str, direct.get("explanation")->str);
}

// The CacheDelta channel: what a worker computes must land in the daemon
// cache, so the second fork of the same program re-analyzes nothing.
TEST(ServeSandbox, WorkerResultsWarmTheDaemonCache) {
  Service service(sandbox_options());
  const corpus::Entry& entry = corpus::get("semaphore_down");
  std::string req =
      analyze_request(std::string(entry.source), "warm_fork");
  JsonValue cold = result_of(call(service, req));
  EXPECT_GT(cold.get("procedures_reanalyzed")->number, 0);
  EXPECT_GT(service.cache().size(), 0u);

  JsonValue warm = result_of(call(service, req));
  EXPECT_EQ(warm.get("procedures_reanalyzed")->number, 0);
  EXPECT_GT(warm.get("cache_hits")->number, 0);
  EXPECT_EQ(warm.get("report")->str, cold.get("report")->str);
}

TEST(ServeSandbox, StatusReportsSandboxState) {
  Service service(sandbox_options());
  JsonValue r =
      result_of(call(service, R"({"jsonrpc":"2.0","id":1,"method":"status"})"));
  EXPECT_TRUE(r.get("sandbox")->boolean);

  Service plain((ServiceOptions()));
  JsonValue r2 =
      result_of(call(plain, R"({"jsonrpc":"2.0","id":1,"method":"status"})"));
  EXPECT_FALSE(r2.get("sandbox")->boolean);
}

// A parse failure is a report, not a worker death: the worker must not
// crash, and no death may be counted.
TEST(ServeSandbox, ParseFailureIsNotAWorkerDeath) {
  Service service(sandbox_options());
  const uint64_t crashes = counter_value("synat_serve_worker_crashes_total");
  for (int i = 0; i < 3; ++i) {
    JsonValue r = result_of(
        call(service, analyze_request("proc Broken( {", "broken")));
    EXPECT_EQ(r.get("exit_code")->number, 3);
  }
  EXPECT_EQ(counter_value("synat_serve_worker_crashes_total"), crashes);
}

#if defined(SYNAT_FAULT_INJECTION)

/// Scoped SYNAT_FAULT environment; sandbox workers inherit it via fork().
struct FaultEnv {
  explicit FaultEnv(const char* spec) { setenv("SYNAT_FAULT", spec, 1); }
  ~FaultEnv() { unsetenv("SYNAT_FAULT"); }
};

constexpr char kVictimSource[] = "global int X; proc Crash() { X := 1; }";
constexpr char kBystanderSource[] = "global int Y; proc Fine() { Y := 2; }";

TEST(ServeSandboxFault, CrashDegradesTheRequestNotTheDaemon) {
  FaultEnv fault("crash:victim");
  Service service(sandbox_options());
  uint64_t crashes = counter_value("synat_serve_worker_crashes_total");

  std::string body = call(service, analyze_request(kVictimSource, "victim"));
  JsonValue r = result_of(body);
  EXPECT_EQ(r.get("exit_code")->number, 1);
  EXPECT_NE(r.get("report")->str.find("\"kind\": \"crash\""),
            std::string::npos) << body;
  EXPECT_NE(r.get("report")->str.find("SIGSEGV"), std::string::npos);
  EXPECT_EQ(counter_value("synat_serve_worker_crashes_total") - crashes, 1u);

  // The daemon and its pool are unharmed: the next request is served.
  JsonValue ok =
      result_of(call(service, analyze_request(kBystanderSource, "bystander")));
  EXPECT_EQ(ok.get("exit_code")->number, 0);
}

// The degraded document itself is the batch schema: byte-identical to what
// `synat batch --isolate --format json` renders for the same death, for
// every kind of death, under the same deadline, rss cap and no retries.
struct Victim {
  const char* kind;
  const char* fault;
  uint64_t deadline_ms;
  size_t max_rss_mb;
};

/// Names the parameter in test names by its kind, not by a byte dump that
/// would carry string addresses.
void PrintTo(const Victim& v, std::ostream* os) { *os << v.kind; }

class ServeSandboxFaultVictim : public ::testing::TestWithParam<Victim> {};

TEST_P(ServeSandboxFaultVictim, DegradedReportMatchesBatchIsolate) {
  const Victim& v = GetParam();
  FaultEnv fault(v.fault);
  driver::DriverOptions iso;
  iso.isolate = true;
  iso.retries = 0;
  iso.deadline_ms = v.deadline_ms;
  iso.max_rss_mb = static_cast<unsigned>(v.max_rss_mb);
  driver::ProgramInput input;
  input.name = "victim";
  input.source = kVictimSource;
  driver::BatchDriver direct(iso);
  std::string expected = driver::to_json(direct.run({input}));
  EXPECT_NE(expected.find("\"kind\": \"crash\""), std::string::npos);

  ServiceOptions sopts = sandbox_options();
  sopts.sandbox_deadline_ms = v.deadline_ms;
  sopts.sandbox_max_rss_mb = v.max_rss_mb;
  Service service(sopts);
  JsonValue r =
      result_of(call(service, analyze_request(kVictimSource, "victim")));
  EXPECT_EQ(r.get("report")->str, expected);
}

TEST(ServeSandboxFault, RetriedTransientCrashSucceeds) {
  FaultEnv fault("crash:victim@1");  // armed only on the first attempt
  ServiceOptions sopts = sandbox_options();
  sopts.sandbox_retries = 1;
  Service service(sopts);
  uint64_t retries = counter_value("synat_serve_worker_retries_total");
  JsonValue r =
      result_of(call(service, analyze_request(kVictimSource, "victim")));
  EXPECT_EQ(r.get("exit_code")->number, 0);
  EXPECT_EQ(r.get("report")->str.find("\"kind\": \"crash\""),
            std::string::npos);
  EXPECT_EQ(counter_value("synat_serve_worker_retries_total") - retries, 1u);
}

TEST(ServeSandboxFault, HangIsReapedAndCountedAsTimeout) {
  FaultEnv fault("hang:victim");
  ServiceOptions sopts = sandbox_options();
  sopts.sandbox_deadline_ms = 200;  // stall kill at deadline + grace
  Service service(sopts);
  uint64_t timeouts = counter_value("synat_serve_worker_timeouts_total");
  JsonValue r =
      result_of(call(service, analyze_request(kVictimSource, "victim")));
  EXPECT_EQ(r.get("exit_code")->number, 1);
  EXPECT_NE(r.get("report")->str.find("stalled"), std::string::npos);
  EXPECT_EQ(counter_value("synat_serve_worker_timeouts_total") - timeouts, 1u);
}

#if !defined(SYNAT_TEST_ASAN_SANDBOX)
#if defined(__SANITIZE_ADDRESS__)
#define SYNAT_TEST_ASAN_SANDBOX 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SYNAT_TEST_ASAN_SANDBOX 1
#endif
#endif
#endif

#if !defined(SYNAT_TEST_ASAN_SANDBOX)
TEST(ServeSandboxFault, OomKilledWorkerIsCountedAsOom) {
  // RLIMIT_AS is incompatible with ASan shadow memory; plain builds only.
  FaultEnv fault("oom:victim");
  ServiceOptions sopts = sandbox_options();
  sopts.sandbox_max_rss_mb = 256;
  Service service(sopts);
  uint64_t ooms = counter_value("synat_serve_worker_oom_kills_total");
  JsonValue r =
      result_of(call(service, analyze_request(kVictimSource, "victim")));
  EXPECT_EQ(r.get("exit_code")->number, 1);
  EXPECT_EQ(counter_value("synat_serve_worker_oom_kills_total") - ooms, 1u);
}
#endif

INSTANTIATE_TEST_SUITE_P(
    Victims, ServeSandboxFaultVictim,
    ::testing::Values(Victim{"crash", "crash:victim", 0, 0},
                      Victim{"hang", "hang:victim", 200, 0}
#if !defined(SYNAT_TEST_ASAN_SANDBOX)
                      // RLIMIT_AS is incompatible with ASan shadow memory.
                      ,
                      Victim{"oom", "oom:victim", 0, 256}
#endif
                      ),
    [](const ::testing::TestParamInfo<Victim>& info) {
      return std::string(info.param.kind);
    });

#endif  // SYNAT_FAULT_INJECTION

}  // namespace
}  // namespace synat::serve
