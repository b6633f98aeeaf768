#include "synat/driver/worker.h"

#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <new>
#include <thread>

#include "synat/driver/codec.h"
#include "synat/obs/metrics.h"
#include "synat/support/budget.h"
#include "synat/support/fault.h"
#include "synat/support/frame.h"
#include "synat/support/subprocess.h"

namespace synat::driver {

namespace {

using support::Child;
using support::FrameReader;
using support::FrameType;

constexpr uint64_t kHeartbeatMs = 50;
/// Grace on top of the analysis deadline before a silent worker is reaped;
/// heartbeats come from a dedicated thread, so only a frozen or dead
/// process goes quiet this long.
constexpr uint64_t kStallGraceMs = 500;
constexpr uint64_t kStallDefaultMs = 10000;  ///< when no deadline is set
constexpr uint64_t kBackoffBaseMs = 50;
constexpr unsigned kBackoffMaxDoublings = 5;  ///< caps the wait at 1.6 s
/// RLIMIT_CPU backstop: an order of magnitude above the per-program
/// deadline, for runaway spins between two checks of the worker's budget.
constexpr uint64_t kCpuLimitFactor = 16;
/// Exit code of a worker whose analysis ran out of memory (std::bad_alloc).
constexpr int kExitBadAlloc = 114;

/// Serializes the worker's response pipe between the heartbeat thread and
/// the result write; a torn frame would read as corruption upstream.
struct WorkerPipe {
  int fd;
  std::mutex mu;

  bool send(FrameType type, std::string_view payload) {
    std::lock_guard<std::mutex> lock(mu);
    return support::write_frame(fd, type, payload);
  }
};

/// Body of a one-shot worker process: analyzes `input` with an in-process
/// sub-driver while a thread streams heartbeats, then ships Telemetry /
/// Provenance / CacheDelta / Result frames to `out_fd`.
///
/// `cache`, when non-null, is the fork's copy-on-write image of the
/// caller's cache: the sub-driver runs against it, and the entries it adds
/// are shipped back as a CacheDelta frame — the image dies with the child.
int worker_body(int out_fd, const ProgramInput& input, unsigned attempt,
                const DriverOptions& opts, ResultCache* cache) {
  support::maybe_inject_fault(input.name, attempt);

  // Telemetry baseline: the fork copied the caller's rings and counter
  // values, so shed the inherited spans and delta against the inherited
  // counts — what crosses the pipe is exactly this worker's contribution.
  obs::Tracer::instance().reset();
  const obs::MetricsSnapshot obs_base = obs::registry().snapshot();

  WorkerPipe pipe{out_fd, {}};
  std::atomic<bool> stop{false};
  std::mutex beat_mu;
  std::condition_variable beat_cv;
  std::thread heartbeat([&] {
    std::unique_lock<std::mutex> lock(beat_mu);
    static obs::Counter& heartbeats =
        obs::registry().counter("synat_worker_heartbeats_total", false);
    while (!stop.load(std::memory_order_relaxed)) {
      heartbeats.inc();
      if (!pipe.send(FrameType::Heartbeat, {})) return;  // supervisor gone
      beat_cv.wait_for(lock, std::chrono::milliseconds(kHeartbeatMs),
                       [&] { return stop.load(std::memory_order_relaxed); });
    }
  });

  // The sub-driver mirrors the non-isolated per-program execution exactly:
  // report content never depends on jobs or the cache, so one inline run
  // with everything else off is byte-identical to the in-process path. The
  // caller writes the wide events from the outcome.
  DriverOptions sub = opts;
  sub.jobs = 1;
  sub.isolate = false;
  sub.events = nullptr;
  if (cache != nullptr) cache->start_capture();
  int rc = 0;
  std::string result, prov, delta_frame;
  try {
    BatchDriver driver(sub, cache);
    BatchReport report = driver.run({input});
    codec::put_program_report(result, report.programs.at(0));
    // Provenance rides in its own frame so the Result payload stays
    // byte-identical to the non-provenance wire shape.
    if (input.opts.provenance)
      codec::put_program_provenance(prov, report.programs.at(0));
    if (cache != nullptr)
      codec::put_cache_delta(delta_frame, report.metrics.cache_hits,
                             report.metrics.cache_misses,
                             cache->take_capture());
  } catch (const std::bad_alloc&) {
    // Distinct exit code so the supervisor can classify an allocation
    // failure under RLIMIT_AS as an OOM kill rather than a crash.
    rc = kExitBadAlloc;
  } catch (...) {
    rc = 112;
  }
  {
    std::lock_guard<std::mutex> lock(beat_mu);
    stop.store(true, std::memory_order_relaxed);
  }
  beat_cv.notify_all();
  heartbeat.join();
  if (rc == 0) {
    // Telemetry, Provenance and CacheDelta travel just before the Result.
    // Failure to send one is not fatal: the supervisor only trusts them
    // when a decodable Result follows, so a send failure surfaces there.
    std::vector<obs::SpanRecord> spans;
    if (obs::flags() & obs::kTraceFlag) spans = obs::Tracer::instance().drain();
    obs::MetricsSnapshot delta =
        obs::registry().snapshot().delta_from(obs_base);
    // The caller counts the programs it hands out (see run_workers).
    for (obs::CounterSample& c : delta.counters)
      if (c.name == "synat_programs_total") c.value = 0;
    std::string telem;
    codec::put_telemetry(telem, spans, delta);
    pipe.send(FrameType::Telemetry, telem);
    if (!prov.empty()) pipe.send(FrameType::Provenance, prov);
    if (!delta_frame.empty()) pipe.send(FrameType::CacheDelta, delta_frame);
  }
  if (rc == 0 && !pipe.send(FrameType::Result, result)) rc = 111;
  return rc;
}

enum class Death : uint8_t { Crash, Timeout, Oom };

/// Maps a reaped wait status onto the death taxonomy. SIGXCPU is the
/// RLIMIT_CPU backstop firing (a spin the worker's budget never checked);
/// kExitBadAlloc is worker_body's std::bad_alloc path; SIGABRT under an
/// RLIMIT_AS cap is glibc aborting on an allocation the limit refused (raw
/// mallocs bypass the bad_alloc path). Everything else is a crash.
Death classify_death(int status, const DriverOptions& opts) {
  if (WIFSIGNALED(status)) {
    if (WTERMSIG(status) == SIGXCPU) return Death::Timeout;
    if (WTERMSIG(status) == SIGABRT && opts.max_rss_mb > 0) return Death::Oom;
    return Death::Crash;
  }
  if (WIFEXITED(status) && WEXITSTATUS(status) == kExitBadAlloc)
    return Death::Oom;
  return Death::Crash;
}

struct Pending {
  size_t index = 0;
  unsigned attempt = 1;
  uint64_t ready_ms = 0;  ///< retry backoff: not dispatched before this
};

/// One worker process and what it has sent so far.
struct Slot {
  Child child;  ///< invalid while the slot is free
  size_t index = 0;
  unsigned attempt = 1;
  FrameReader reader;
  uint64_t last_beat_ms = 0;
  /// Stashed Telemetry / Provenance / CacheDelta payloads. They are trusted
  /// only when a decodable Result follows, so a dead attempt's stash dies
  /// with it and a retry never double-counts.
  std::string telemetry, provenance, cache_delta;
};

void kill_and_reap(const Slot& s) {
  ::kill(s.child.pid, SIGKILL);
  support::wait_child(s.child.pid);
}

}  // namespace

uint64_t retry_backoff_ms(unsigned attempt) {
  return kBackoffBaseMs << std::min(attempt - 1, kBackoffMaxDoublings);
}

void run_workers(const std::vector<const ProgramInput*>& inputs,
                 const DriverOptions& opts, unsigned jobs, ResultCache* cache,
                 const std::function<void(size_t, WorkerOutcome)>& done) {
  const uint64_t stall_ms = opts.deadline_ms > 0
                                ? saturating_add(opts.deadline_ms, kStallGraceMs)
                                : kStallDefaultMs;
  support::ChildLimits limits;
  limits.max_rss_mb = opts.max_rss_mb;
  if (opts.deadline_ms > 0)
    limits.cpu_seconds =
        saturating_mul(opts.deadline_ms, kCpuLimitFactor) / 1000 + 1;

  std::vector<WorkerOutcome> outcomes(inputs.size());
  std::deque<Pending> pending;
  for (size_t i = 0; i < inputs.size(); ++i) pending.push_back({i, 1, 0});
  std::vector<Slot> slots(std::max(1u, jobs));
  size_t live = 0;

  auto free_slot = [&](Slot& s) {
    if (s.child.to_child >= 0) ::close(s.child.to_child);
    if (s.child.from_child >= 0) ::close(s.child.from_child);
    s = Slot{};
    --live;
  };

  // The attempt in `s` ended without a decodable Result (its child is
  // reaped): retry after a backoff while attempts remain, else give the
  // input up as degraded.
  auto died = [&](Slot& s, Death kind, std::string reason) {
    const size_t index = s.index;
    const unsigned attempt = s.attempt;
    free_slot(s);
    WorkerOutcome& out = outcomes[index];
    switch (kind) {
      case Death::Crash: ++out.deaths_crash; break;
      case Death::Timeout: ++out.deaths_timeout; break;
      case Death::Oom: ++out.deaths_oom; break;
    }
    if (attempt <= opts.retries) {
      ++out.retries;
      pending.push_back({index, attempt + 1,
                         steady_now_ns() / 1'000'000 +
                             retry_backoff_ms(attempt)});
      return;
    }
    out.reason = std::move(reason);
    done(index, std::move(out));
  };

  // A Result arrived: decode it with the frames stashed before it, fold
  // the cache delta and telemetry in, and deliver. A corrupt provenance
  // section or cache delta fails the attempt: a report silently missing
  // its derivation records would break the explain byte-identity contract.
  // Undecodable telemetry is only dropped.
  auto deliver = [&](Slot& s, const std::string& payload) {
    ProgramReport report;
    uint64_t hits = 0, misses = 0;
    std::vector<codec::CacheDeltaEntry> entries;
    codec::Reader r(payload), pr(s.provenance), dr(s.cache_delta);
    bool ok = codec::get_program_report(r, report) && r.at_end();
    if (ok && !s.provenance.empty())
      ok = codec::get_program_provenance(pr, report) && pr.at_end();
    if (ok && !s.cache_delta.empty())
      ok = codec::get_cache_delta(dr, hits, misses, entries) && dr.at_end();
    if (!ok) {
      kill_and_reap(s);
      died(s, Death::Crash, "crashed: undecodable result");
      return;
    }
    WorkerOutcome& out = outcomes[s.index];
    if (cache != nullptr)
      for (codec::CacheDeltaEntry& e : entries)
        cache->insert(e.first, std::move(e.second));
    codec::Reader tr(s.telemetry);
    obs::MetricsSnapshot delta;
    if (codec::get_telemetry(tr, out.spans, delta) && tr.at_end())
      obs::registry().merge(delta);
    else
      out.spans.clear();
    support::wait_child(s.child.pid);
    out.ok = true;
    out.report = std::move(report);
    out.cache_hits = hits;
    out.cache_misses = misses;
    const size_t index = s.index;
    free_slot(s);
    done(index, std::move(out));
  };

  // Reads everything worker `s` sent; false while its attempt goes on.
  auto read_worker = [&](Slot& s, uint64_t now) {
    bool closed = false;
    for (;;) {
      FrameReader::Fill f = s.reader.fill(s.child.from_child);
      if (f == FrameReader::Fill::Blocked) break;
      if (f != FrameReader::Fill::Data) {
        closed = true;
        break;
      }
      s.last_beat_ms = now;
    }
    for (;;) {
      FrameType type{};
      std::string payload;
      FrameReader::Next n = s.reader.next(type, payload);
      if (n == FrameReader::Next::Need) break;
      if (n == FrameReader::Next::Corrupt) {
        kill_and_reap(s);
        died(s, Death::Crash, "crashed: corrupt result frame");
        return true;
      }
      switch (type) {
        case FrameType::Result: deliver(s, payload); return true;
        case FrameType::Telemetry: s.telemetry = std::move(payload); break;
        case FrameType::Provenance: s.provenance = std::move(payload); break;
        case FrameType::CacheDelta: s.cache_delta = std::move(payload); break;
        default: break;  // Heartbeat: liveness only
      }
    }
    if (!closed) return false;
    const int status = support::wait_child(s.child.pid);
    died(s, classify_death(status, opts),
         "crashed: " + support::describe_wait_status(status));
    return true;
  };

  while (live > 0 || !pending.empty()) {
    uint64_t now = steady_now_ns() / 1'000'000;
    for (Slot& s : slots) {
      if (s.child.valid() || pending.empty()) continue;
      auto ready = std::find_if(
          pending.begin(), pending.end(),
          [now](const Pending& p) { return p.ready_ms <= now; });
      if (ready == pending.end()) break;  // all remaining are backing off
      const Pending task = *ready;
      pending.erase(ready);
      obs::SpanScope dispatch_span(obs::StageId::Dispatch);
      s.child = support::spawn_child(
          [&opts, cache, input = inputs[task.index],
           attempt = task.attempt](int, int out_fd) {
            return worker_body(out_fd, *input, attempt, opts, cache);
          },
          limits);
      s.index = task.index;
      s.attempt = task.attempt;
      s.last_beat_ms = now;
      ++live;
      if (!s.child.valid()) died(s, Death::Crash, "crashed: fork failed");
    }

    if (live == 0) {
      // Nothing running; sleep until the earliest backoff expires.
      uint64_t wake = ~uint64_t{0};
      for (const Pending& p : pending) wake = std::min(wake, p.ready_ms);
      if (wake > now)
        std::this_thread::sleep_for(std::chrono::milliseconds(wake - now));
      continue;
    }

    std::vector<struct pollfd> fds;
    std::vector<Slot*> polled;
    for (Slot& s : slots) {
      if (!s.child.valid()) continue;
      fds.push_back({s.child.from_child, POLLIN, 0});
      polled.push_back(&s);
    }
    ::poll(fds.data(), fds.size(), static_cast<int>(kHeartbeatMs));
    now = steady_now_ns() / 1'000'000;
    for (size_t i = 0; i < fds.size(); ++i) {
      Slot& s = *polled[i];
      if (fds[i].revents != 0 && read_worker(s, now)) continue;
      if (now - s.last_beat_ms > stall_ms) {
        kill_and_reap(s);
        // Deterministic text (the limit, not the measured silence):
        // degraded reasons land in rendered documents.
        died(s, Death::Timeout, "crashed: stalled (no heartbeat within " +
                                    std::to_string(stall_ms) + " ms)");
      }
    }
  }
}

}  // namespace synat::driver
