#include "synat/driver/worker.h"

#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <new>
#include <thread>

#include "synat/driver/codec.h"
#include "synat/obs/metrics.h"
#include "synat/obs/trace.h"
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
constexpr uint64_t kBackoffBaseMs = 50;      ///< retry n waits base << (n-1)
/// RLIMIT_CPU backstop: an order of magnitude above the per-procedure
/// deadline, for runaway spins the in-process watchdog failed to contain.
constexpr uint64_t kCpuLimitFactor = 16;

uint64_t now_ms() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

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

/// Shared body of a one-shot worker process, used by both the batch worker
/// (after it has decoded its Request frame) and the sandboxed serve worker
/// (which is forked with its input already bound). Runs the analysis with
/// an in-process sub-driver, streams heartbeats, and ships Telemetry /
/// Provenance / CacheDelta / Result frames to `out_fd`.
///
/// `cache` is non-null only on the serve path: the fork inherited the
/// daemon's hot cache as a copy-on-write image, so the sub-driver runs
/// against it (use_cache on) and the entries it adds are captured and
/// shipped back as a CacheDelta frame — the child's image dies with it.
/// `zero_program_counter` is set by the batch worker, whose supervisor
/// already counted the program in its own run().
int worker_body(int out_fd, const ProgramInput& input, unsigned attempt,
                const DriverOptions& opts, ResultCache* cache,
                bool zero_program_counter) {
  support::maybe_inject_fault(input.name, attempt);

  // Telemetry baseline: the fork copied the supervisor's rings and counter
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
  // report content never depends on jobs/cache/journal, so one inline run
  // with everything else off is byte-identical to the in-process path.
  DriverOptions sub = opts;
  sub.jobs = 1;
  sub.isolate = false;
  sub.use_cache = cache != nullptr;
  sub.collect_timings = false;
  sub.journal_path.clear();
  sub.resume = false;
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
    rc = 114;
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
    // Telemetry travels in its own frame just before the Result. Failure
    // to send it is not fatal: the supervisor only trusts (and merges)
    // telemetry that is followed by a decodable Result anyway.
    std::vector<obs::SpanRecord> spans;
    if (obs::flags() & obs::kTraceFlag) spans = obs::Tracer::instance().drain();
    obs::MetricsSnapshot delta =
        obs::registry().snapshot().delta_from(obs_base);
    // The batch supervisor already counted this program in its own run();
    // the sub-driver's copy of that increment must not merge back on top
    // of it. The serve daemon never counts it itself, so the sandboxed
    // worker's increment is the only one and merges through.
    if (zero_program_counter)
      for (obs::CounterSample& c : delta.counters)
        if (c.name == "synat_programs_total") c.value = 0;
    std::string telem;
    codec::put_telemetry(telem, spans, delta);
    pipe.send(FrameType::Telemetry, telem);
    // Like telemetry, the Provenance and CacheDelta frames are only
    // trusted when a decodable Result follows; a send failure here
    // surfaces on the Result send.
    if (!prov.empty()) pipe.send(FrameType::Provenance, prov);
    if (!delta_frame.empty()) pipe.send(FrameType::CacheDelta, delta_frame);
  }
  if (rc == 0 && !pipe.send(FrameType::Result, result)) rc = 111;
  return rc;
}

}  // namespace

int worker_main(int in_fd, int out_fd, const std::vector<ProgramInput>& inputs,
                const DriverOptions& opts) {
  // The Request tells this one-shot worker which captured input to run.
  FrameReader reader;
  std::string payload;
  FrameType type{};
  while (true) {
    FrameReader::Next n = reader.next(type, payload);
    if (n == FrameReader::Next::Frame) break;
    if (n == FrameReader::Next::Corrupt) return 110;
    FrameReader::Fill f = reader.fill(in_fd);
    if (f == FrameReader::Fill::Eof || f == FrameReader::Fill::Failed)
      return 110;
  }
  codec::Reader req(payload);
  uint64_t index = 0, attempt = 0;
  if (type != FrameType::Request || !req.get_u64(index) ||
      !req.get_u64(attempt) || !req.at_end() || index >= inputs.size())
    return 110;
  return worker_body(out_fd, inputs[index], static_cast<unsigned>(attempt),
                     opts, nullptr, /*zero_program_counter=*/true);
}

// ---------------------------------------------------------------------------
// Supervisor

namespace {

struct Pending {
  size_t index = 0;
  unsigned attempt = 1;
  uint64_t ready_ms = 0;  ///< retry backoff: not dispatched before this
};

struct Slot {
  Child child;
  size_t index = 0;
  unsigned attempt = 1;
  FrameReader reader;
  uint64_t last_beat_ms = 0;
  bool live = false;
  /// Stashed Telemetry payload; merged only when a decodable Result
  /// follows, so a crashed or retried attempt never double-counts.
  std::string telemetry;
  /// Stashed Provenance payload; attached to the decoded Result the same
  /// way (and discarded with the slot on crash/retry).
  std::string provenance;
};

void close_slot(Slot& s) {
  if (s.child.to_child >= 0) ::close(s.child.to_child);
  if (s.child.from_child >= 0) ::close(s.child.from_child);
  s.child = Child{};
  s.reader = FrameReader{};
  s.live = false;
  s.telemetry.clear();
  s.provenance.clear();
}

/// Folds a worker's stashed telemetry into the supervisor's registry and
/// tracer. Lane = task index + 1 (lane 0 is the supervisor), which is
/// deterministic where a pid would not be.
void merge_telemetry(Slot& s, const std::vector<ProgramInput>& inputs) {
  if (s.telemetry.empty()) return;
  codec::Reader r(s.telemetry);
  std::vector<obs::SpanRecord> spans;
  obs::MetricsSnapshot delta;
  if (codec::get_telemetry(r, spans, delta) && r.at_end()) {
    obs::registry().merge(delta);
    if (!spans.empty()) {
      uint32_t lane = static_cast<uint32_t>(s.index) + 1;
      obs::Tracer::instance().inject(lane, spans);
      obs::Tracer::instance().set_lane_name(
          lane, "worker " + inputs[s.index].name);
    }
  }
  s.telemetry.clear();
}

}  // namespace

void run_supervised(const std::vector<ProgramInput>& inputs,
                    const std::vector<uint64_t>& keys,
                    const std::vector<bool>& done, const DriverOptions& opts,
                    unsigned jobs, ReportSink& sink, JournalWriter& journal) {
  // A worker can die between our poll and our write; EPIPE must come back
  // as an error code here, not kill the supervisor.
  struct sigaction ignore {};
  ignore.sa_handler = SIG_IGN;
  struct sigaction saved {};
  sigaction(SIGPIPE, &ignore, &saved);

  const uint64_t stall_ms = opts.deadline_ms > 0
                                ? opts.deadline_ms + kStallGraceMs
                                : kStallDefaultMs;
  support::ChildLimits limits;
  limits.max_rss_mb = opts.max_rss_mb;
  if (opts.deadline_ms > 0)
    limits.cpu_seconds = opts.deadline_ms * kCpuLimitFactor / 1000 + 1;

  std::deque<Pending> pending;
  for (size_t i = 0; i < inputs.size(); ++i)
    if (!done[i]) pending.push_back({i, 1, 0});
  std::vector<Slot> slots(std::max(1u, jobs));
  size_t live = 0;

  // A worker died (or was reaped) before delivering its Result: retry with
  // backoff while attempts remain, then contain it as a degraded program.
  auto worker_failed = [&](Slot& s, const std::string& reason) {
    static obs::Counter& crashes =
        obs::registry().counter("synat_worker_crashes_total");
    crashes.inc();
    if (s.attempt <= opts.retries) {
      static obs::Counter& retries =
          obs::registry().counter("synat_worker_retries_total");
      retries.inc();
      pending.push_back({s.index, s.attempt + 1,
                         now_ms() + (kBackoffBaseMs << (s.attempt - 1))});
    } else {
      sink.fail_program(s.index, inputs[s.index].name, ProgramStatus::Degraded,
                        {{"error", 0, 0, reason}});
    }
    close_slot(s);
    --live;
  };

  auto reap_failed = [&](Slot& s, const char* what) {
    int status = support::wait_child(s.child.pid);
    worker_failed(s, std::string(what) + ": " +
                         support::describe_wait_status(status));
  };

  while (live > 0 || !pending.empty()) {
    uint64_t now = now_ms();
    // Dispatch ready tasks into free slots.
    for (Slot& s : slots) {
      if (s.live || pending.empty()) continue;
      auto ready = pending.end();
      for (auto it = pending.begin(); it != pending.end(); ++it) {
        if (it->ready_ms <= now) {
          ready = it;
          break;
        }
      }
      if (ready == pending.end()) break;  // all remaining are backing off
      Pending task = *ready;
      pending.erase(ready);
      obs::SpanScope dispatch_span(obs::StageId::Dispatch);
      static obs::Counter& dispatches =
          obs::registry().counter("synat_worker_dispatches_total");
      dispatches.inc();
      s.index = task.index;
      s.attempt = task.attempt;
      s.child = support::spawn_child(
          [&inputs, &opts](int in, int out) {
            return worker_main(in, out, inputs, opts);
          },
          limits);
      s.last_beat_ms = now;
      s.live = true;
      ++live;
      if (!s.child.valid()) {
        worker_failed(s, "crashed: fork failed");
        continue;
      }
      std::string req;
      codec::put_u64(req, task.index);
      codec::put_u64(req, task.attempt);
      if (!support::write_frame(s.child.to_child, FrameType::Request, req)) {
        ::kill(s.child.pid, SIGKILL);
        reap_failed(s, "crashed");
      }
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
    std::vector<size_t> fd_slot;
    for (size_t si = 0; si < slots.size(); ++si) {
      if (!slots[si].live) continue;
      fds.push_back({slots[si].child.from_child, POLLIN, 0});
      fd_slot.push_back(si);
    }
    ::poll(fds.data(), fds.size(), static_cast<int>(kHeartbeatMs));
    now = now_ms();

    for (size_t fi = 0; fi < fds.size(); ++fi) {
      Slot& s = slots[fd_slot[fi]];
      if (!s.live) continue;
      if (fds[fi].revents != 0) {
        bool closed = false;
        for (;;) {
          FrameReader::Fill f = s.reader.fill(s.child.from_child);
          if (f == FrameReader::Fill::Blocked) break;
          if (f == FrameReader::Fill::Eof ||
              f == FrameReader::Fill::Failed) {
            closed = true;
            break;
          }
          s.last_beat_ms = now;
        }
        bool handled = false;
        for (;;) {
          FrameType type{};
          std::string payload;
          FrameReader::Next n = s.reader.next(type, payload);
          if (n == FrameReader::Next::Need) break;
          if (n == FrameReader::Next::Corrupt) {
            ::kill(s.child.pid, SIGKILL);
            support::wait_child(s.child.pid);
            worker_failed(s, "crashed: corrupt result frame");
            handled = true;
            break;
          }
          if (type == FrameType::Result) {
            codec::Reader r(payload);
            ProgramReport report;
            bool ok = codec::get_program_report(r, report) && r.at_end();
            if (ok && !s.provenance.empty()) {
              // A corrupt provenance section fails the whole attempt: a
              // report silently missing its derivation records would break
              // the explain byte-identity contract.
              codec::Reader pr(s.provenance);
              ok = codec::get_program_provenance(pr, report) && pr.at_end();
            }
            if (!ok) {
              ::kill(s.child.pid, SIGKILL);
              support::wait_child(s.child.pid);
              worker_failed(s, "crashed: undecodable result");
              handled = true;
              break;
            }
            if (journal.active() && journal_worthy(report))
              journal.append(keys[s.index], report);
            static obs::Counter& results =
                obs::registry().counter("synat_worker_results_total");
            results.inc();
            merge_telemetry(s, inputs);
            sink.set_program(s.index, std::move(report));
            support::wait_child(s.child.pid);
            close_slot(s);
            --live;
            handled = true;
            break;
          }
          if (type == FrameType::Telemetry) {
            s.telemetry = std::move(payload);
            continue;
          }
          if (type == FrameType::Provenance) {
            s.provenance = std::move(payload);
            continue;
          }
          // Heartbeat (or an unexpected type): liveness either way.
        }
        if (handled) continue;
        if (closed) {
          reap_failed(s, "crashed");
          continue;
        }
      }
      if (now - s.last_beat_ms > stall_ms) {
        ::kill(s.child.pid, SIGKILL);
        support::wait_child(s.child.pid);
        // Deterministic text (the limit, not the measured silence): degraded
        // reasons land in rendered documents.
        worker_failed(s, "crashed: stalled (no heartbeat within " +
                             std::to_string(stall_ms) + " ms)");
      }
    }
  }

  sigaction(SIGPIPE, &saved, nullptr);
}

// ---------------------------------------------------------------------------
// Single-request sandbox (serve --sandbox)

namespace {

/// Maps a reaped wait status onto the sandbox failure taxonomy. SIGXCPU is
/// the RLIMIT_CPU backstop firing (the in-process watchdog missed a spin);
/// exit 114 is worker_body's std::bad_alloc path; SIGABRT under an
/// RLIMIT_AS cap is glibc aborting on an allocation the limit refused
/// (raw mallocs bypass the bad_alloc path). Everything else is a crash.
SandboxOutcome::FailKind classify_death(int status,
                                        const DriverOptions& opts) {
  if (WIFSIGNALED(status)) {
    if (WTERMSIG(status) == SIGXCPU) return SandboxOutcome::FailKind::Timeout;
    if (WTERMSIG(status) == SIGABRT && opts.max_rss_mb > 0)
      return SandboxOutcome::FailKind::Oom;
    return SandboxOutcome::FailKind::Crash;
  }
  if (WIFEXITED(status) && WEXITSTATUS(status) == 114)
    return SandboxOutcome::FailKind::Oom;
  return SandboxOutcome::FailKind::Crash;
}

}  // namespace

SandboxOutcome run_sandboxed(const ProgramInput& input,
                             const DriverOptions& opts, ResultCache* cache,
                             uint32_t lane) {
  // The daemon's pool threads write into worker pipes; a worker can die
  // between our poll and our write, and unlike the server's sockets
  // (MSG_NOSIGNAL) a pipe write has no per-call opt-out, so SIGPIPE is
  // ignored process-wide once. The daemon never wants the default anyway.
  static std::once_flag sigpipe_once;
  std::call_once(sigpipe_once, [] {
    struct sigaction ignore {};
    ignore.sa_handler = SIG_IGN;
    sigaction(SIGPIPE, &ignore, nullptr);
  });

  const uint64_t stall_ms = opts.deadline_ms > 0
                                ? opts.deadline_ms + kStallGraceMs
                                : kStallDefaultMs;
  support::ChildLimits limits;
  limits.max_rss_mb = opts.max_rss_mb;
  if (opts.deadline_ms > 0)
    limits.cpu_seconds = opts.deadline_ms * kCpuLimitFactor / 1000 + 1;

  SandboxOutcome out;
  for (unsigned attempt = 1;; ++attempt) {
    Child child = support::spawn_child(
        [&input, attempt, &opts, cache](int, int out_fd) {
          return worker_body(out_fd, input, attempt, opts, cache,
                             /*zero_program_counter=*/false);
        },
        limits);

    auto kind = SandboxOutcome::FailKind::Crash;
    std::string reason;
    bool reaped = false;
    bool failed = false;
    std::string telemetry, provenance, cache_delta;

    if (!child.valid()) {
      reason = "crashed: fork failed";
      failed = true;
      reaped = true;  // nothing to reap
    } else {
      FrameReader reader;
      uint64_t last_beat = now_ms();
      while (!failed) {
        struct pollfd pfd = {child.from_child, POLLIN, 0};
        ::poll(&pfd, 1, static_cast<int>(kHeartbeatMs));
        uint64_t now = now_ms();
        bool closed = false;
        if (pfd.revents != 0) {
          for (;;) {
            FrameReader::Fill f = reader.fill(child.from_child);
            if (f == FrameReader::Fill::Blocked) break;
            if (f == FrameReader::Fill::Eof ||
                f == FrameReader::Fill::Failed) {
              closed = true;
              break;
            }
            last_beat = now;
          }
        }
        bool done = false;
        for (;;) {
          FrameType type{};
          std::string payload;
          FrameReader::Next n = reader.next(type, payload);
          if (n == FrameReader::Next::Need) break;
          if (n == FrameReader::Next::Corrupt) {
            ::kill(child.pid, SIGKILL);
            support::wait_child(child.pid);
            reaped = true;
            reason = "crashed: corrupt result frame";
            failed = true;
            break;
          }
          if (type == FrameType::Telemetry) {
            telemetry = std::move(payload);
            continue;
          }
          if (type == FrameType::Provenance) {
            provenance = std::move(payload);
            continue;
          }
          if (type == FrameType::CacheDelta) {
            cache_delta = std::move(payload);
            continue;
          }
          if (type != FrameType::Result) continue;  // heartbeat: liveness
          codec::Reader r(payload);
          ProgramReport report;
          bool ok = codec::get_program_report(r, report) && r.at_end();
          if (ok && !provenance.empty()) {
            codec::Reader pr(provenance);
            ok = codec::get_program_provenance(pr, report) && pr.at_end();
          }
          std::vector<codec::CacheDeltaEntry> entries;
          if (ok && !cache_delta.empty()) {
            codec::Reader dr(cache_delta);
            ok = codec::get_cache_delta(dr, out.cache_hits, out.cache_misses,
                                        entries) &&
                 dr.at_end();
          }
          if (!ok) {
            ::kill(child.pid, SIGKILL);
            support::wait_child(child.pid);
            reaped = true;
            reason = "crashed: undecodable result";
            failed = true;
            break;
          }
          // The child computed these entries against its copy-on-write
          // cache image; folding them into the live cache is what keeps
          // the next fork warm.
          if (cache != nullptr)
            for (codec::CacheDeltaEntry& e : entries)
              cache->insert(e.first, std::move(e.second));
          if (!telemetry.empty()) {
            codec::Reader tr(telemetry);
            std::vector<obs::SpanRecord> spans;
            obs::MetricsSnapshot delta;
            if (codec::get_telemetry(tr, spans, delta) && tr.at_end()) {
              obs::registry().merge(delta);
              if (!spans.empty() && lane != 0)
                obs::Tracer::instance().inject(lane, spans);
            }
          }
          support::wait_child(child.pid);
          out.ok = true;
          out.report = std::move(report);
          done = true;
          break;
        }
        if (done) {
          ::close(child.to_child);
          ::close(child.from_child);
          return out;
        }
        if (failed) break;
        if (closed) {
          int status = support::wait_child(child.pid);
          reaped = true;
          reason = "crashed: " + support::describe_wait_status(status);
          kind = classify_death(status, opts);
          failed = true;
          break;
        }
        if (now_ms() - last_beat > stall_ms) {
          ::kill(child.pid, SIGKILL);
          support::wait_child(child.pid);
          reaped = true;
          // Deterministic text (the limit, not the measured silence):
          // degraded reasons land in rendered documents.
          reason = "crashed: stalled (no heartbeat within " +
                   std::to_string(stall_ms) + " ms)";
          kind = SandboxOutcome::FailKind::Timeout;
          failed = true;
          break;
        }
      }
    }

    if (child.valid()) {
      if (!reaped) support::wait_child(child.pid);
      ::close(child.to_child);
      ::close(child.from_child);
    }
    switch (kind) {
      case SandboxOutcome::FailKind::Timeout: ++out.deaths_timeout; break;
      case SandboxOutcome::FailKind::Oom: ++out.deaths_oom; break;
      default: ++out.deaths_crash; break;
    }
    if (attempt <= opts.retries) {
      ++out.retries;
      std::this_thread::sleep_for(
          std::chrono::milliseconds(kBackoffBaseMs << (attempt - 1)));
      continue;
    }
    out.ok = false;
    out.kind = kind;
    out.reason = std::move(reason);
    return out;
  }
}

}  // namespace synat::driver
