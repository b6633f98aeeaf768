#!/usr/bin/env python3
"""Chaos harness for the `synat serve` daemon (DESIGN.md §3h).

Drives a sandboxed daemon through the failure modes it claims to survive
and asserts, after each storm, that the daemon is still the same process,
still answers, and still produces byte-identical reports:

  1.  Request storm: concurrent clients mixing healthy programs with
      SYNAT_FAULT victims (crash / hang / OOM, injected inside the forked
      worker) and malformed sources. Every request must get a well-formed
      reply — a report, or an -32003/-32004 error, or a degraded
      "kind":"crash" report. The daemon must never die.
  2.  Worker murder: a thread SIGKILLs sandbox workers (children of the
      daemon, via /proc) mid-storm. Same invariants.
  3.  Quarantine: K consecutive worker deaths for one program short-circuit
      to -32004 without forking; after --quarantine-ttl the program is
      given a fresh chance (it forks — and dies — again).
  4.  Crash-only recovery: the daemon takes periodic cache snapshots; the
      harness SIGKILLs it mid-service, restarts it on the same socket and
      cache file, and requires a warm answer (procedures_reanalyzed == 0).
  5.  Client reconnect: synat_client.Client transparently resends an
      idempotent call across a daemon restart.
  6.  Byte identity: after all of the above, serve reports are still
      byte-identical to `synat batch --format json`, and shutdown drains
      cleanly (daemon exit code 0).
  7.  Flight data: the daemon's --events-out log is schema-valid for every
      line (tools/validate_events.py), and the incident postmortems the
      worker deaths produced validate as synat-postmortem dumps.

Requires a binary built with -DSYNAT_FAULT_INJECTION=ON (the victim
programs are never harmed by a release binary, which the harness detects
and reports as a failure).

Usage:  chaos_serve.py --synat build/src/synat [--duration 10] [-v]
"""

import argparse
import json
import os
import random
import signal
import subprocess
import sys
import tempfile
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from synat_client import Client, RpcError  # noqa: E402
import validate_events  # noqa: E402

# One healthy program everyone agrees on (also the warm-restart probe).
HEALTHY = "proc P() { skip; }\n"
# Victim names wired to SYNAT_FAULT specs in launch_daemon().
VICTIMS = {
    "victim_crash": "crash",
    "victim_hang": "hang",
    "victim_oom": "oom",
}
FAULT_SPEC = ",".join(f"{mode}:{name}" for name, mode in VICTIMS.items())
MALFORMED = "proc Broken( { this is not synl\n"

# Per-request budgets for the daemon under test: small enough that hang
# victims are reaped quickly (stall kill fires at deadline + 500 ms), large
# enough that healthy example programs never trip it.
DEADLINE_MS = 1500
MAX_RSS_MB = 512


class Failure(Exception):
    pass


def log(args, msg):
    if args.verbose:
        print(f"chaos: {msg}", flush=True)


def launch_daemon(args, sock, cache_file=None, snapshot_interval_s=None,
                  quarantine_threshold=3, quarantine_ttl_s=2,
                  events_out=None, postmortem=None):
    cmd = [args.synat, "serve", "--listen", sock, "--jobs", "4",
           "--sandbox", "--deadline-ms", str(DEADLINE_MS),
           "--max-rss-mb", str(MAX_RSS_MB), "--retries", "1",
           "--quarantine-threshold", str(quarantine_threshold),
           "--quarantine-ttl", str(quarantine_ttl_s)]
    if cache_file:
        cmd += ["--cache-file", cache_file]
    if snapshot_interval_s:
        cmd += ["--snapshot-interval-s", str(snapshot_interval_s)]
    if events_out:
        cmd += ["--events-out", events_out]
    if postmortem:
        cmd += ["--postmortem", postmortem]
    env = dict(os.environ, SYNAT_FAULT=FAULT_SPEC)
    proc = subprocess.Popen(cmd, env=env)
    deadline = time.monotonic() + 10
    while not os.path.exists(sock):
        if proc.poll() is not None or time.monotonic() >= deadline:
            raise Failure(f"daemon did not come up on {sock}")
        time.sleep(0.05)
    return proc


def daemon_children(pid):
    """PIDs of the daemon's forked sandbox workers, via /proc."""
    kids = []
    task_dir = f"/proc/{pid}/task"
    try:
        for tid in os.listdir(task_dir):
            try:
                with open(f"{task_dir}/{tid}/children") as f:
                    kids += [int(p) for p in f.read().split()]
            except (OSError, ValueError):
                pass
    except OSError:
        pass
    return kids


def classify_reply(result):
    """Returns a bucket name for a successful analyze result object."""
    doc = json.loads(result["report"])
    statuses = {p.get("status") for p in doc.get("programs", [])}
    if "degraded" in statuses:
        return "degraded"
    return "ok"


class Stats:
    def __init__(self):
        self.lock = threading.Lock()
        self.buckets = {}
        self.failures = []

    def bump(self, bucket):
        with self.lock:
            self.buckets[bucket] = self.buckets.get(bucket, 0) + 1

    def fail(self, msg):
        with self.lock:
            self.failures.append(msg)


def storm_thread(args, sock, programs, stats, stop, seed):
    rng = random.Random(seed)
    try:
        client = Client(sock, timeout=60, max_retries=3)
    except OSError as e:
        stats.fail(f"storm client cannot connect: {e}")
        return
    with client:
        while not stop.is_set():
            name, source = rng.choice(programs)
            try:
                result = client.analyze(source, name=name)
                stats.bump(classify_reply(result))
            except RpcError as e:
                if e.code in (-32003, -32004):
                    stats.bump(str(e.code))
                elif e.code == -32002:
                    stats.bump("draining")  # shutdown raced the storm tail
                else:
                    stats.fail(f"unexpected RPC error for {name}: {e}")
            except Exception as e:  # noqa: BLE001 — anything else is a bug
                stats.fail(f"{type(e).__name__} for {name}: {e}")


def run_storm(args, sock, daemon, duration, kill_workers):
    """Concurrent mixed-traffic storm; returns the Stats. Asserts the
    daemon is the same live process afterwards."""
    examples = []
    synl_dir = os.path.join(args.repo, "examples", "synl")
    for fn in sorted(os.listdir(synl_dir)):
        if fn.endswith(".synl"):
            with open(os.path.join(synl_dir, fn)) as f:
                examples.append((fn, f.read()))
    programs = examples + [("healthy", HEALTHY), ("malformed", MALFORMED)]
    for name in VICTIMS:
        programs.append((name, f"// {name}\n" + HEALTHY.replace("P", "V")))

    stats = Stats()
    stop = threading.Event()
    threads = [threading.Thread(target=storm_thread,
                                args=(args, sock, programs, stats, stop, i))
               for i in range(6)]
    killer = None
    if kill_workers:
        def murder():
            while not stop.is_set():
                kids = daemon_children(daemon.pid)
                if kids:
                    victim = random.choice(kids)
                    try:
                        os.kill(victim, signal.SIGKILL)
                        stats.bump("workers_killed")
                    except OSError:
                        pass
                time.sleep(0.05)
        killer = threading.Thread(target=murder)
        killer.start()
    for t in threads:
        t.start()
    time.sleep(duration)
    stop.set()
    for t in threads:
        t.join()
    if killer:
        killer.join()

    if daemon.poll() is not None:
        raise Failure(f"daemon died during storm (exit {daemon.returncode})")
    if stats.failures:
        raise Failure("storm produced malformed replies:\n  " +
                      "\n  ".join(stats.failures[:10]))
    total = sum(stats.buckets.values())
    log(args, f"storm replies: {stats.buckets} ({total} total)")
    if stats.buckets.get("ok", 0) == 0:
        raise Failure("storm produced no successful replies")
    if kill_workers and stats.buckets.get("workers_killed", 0) == 0:
        raise Failure("worker-murder thread never found a worker to kill")
    # A fault build must actually degrade or quarantine victim requests.
    if (stats.buckets.get("degraded", 0) == 0 and
            stats.buckets.get("-32004", 0) == 0):
        raise Failure("no degraded/quarantined replies — is this a "
                      "-DSYNAT_FAULT_INJECTION=ON build?")
    return stats


def check_quarantine(args, sock, threshold, ttl_s):
    """K consecutive deaths trip -32004; the trip decays after the TTL."""
    source = "// quarantine probe\n" + HEALTHY
    with Client(sock, timeout=60) as client:
        deaths = 0
        for _ in range(threshold):
            try:
                result = client.analyze(source, name="victim_crash")
                if classify_reply(result) != "degraded":
                    raise Failure("fault build did not degrade the victim")
                deaths += 1
            except RpcError as e:
                raise Failure(f"victim analyze errored early: {e}")
        # Tripped: the next call must be refused fast, without forking.
        t0 = time.monotonic()
        try:
            client.analyze(source, name="victim_crash")
            raise Failure("expected -32004 after quarantine trip")
        except RpcError as e:
            if e.code != -32004:
                raise Failure(f"expected -32004, got {e}")
        fast_ms = (time.monotonic() - t0) * 1000
        # A forked+crashed+retried execution takes >= 2 fork round trips;
        # a quarantine short-circuit is pure map lookup. 250 ms is beyond
        # generous for the latter and well under the former under load.
        if fast_ms > 250:
            raise Failure(f"quarantined reply took {fast_ms:.0f} ms — "
                          "did the daemon fork anyway?")
        log(args, f"quarantine tripped after {deaths} deaths, "
                  f"refused in {fast_ms:.1f} ms")
        # After the TTL the program gets a fresh chance: it forks again
        # (and dies again), which reads as a degraded report, not -32004.
        time.sleep(ttl_s + 0.5)
        result = client.analyze(source, name="victim_crash")
        if classify_reply(result) != "degraded":
            raise Failure("post-TTL retry did not re-execute the victim")
        log(args, "quarantine TTL expired; victim re-executed")


def snapshot_count(sock):
    with Client(sock, timeout=60) as client:
        text = client.metrics()["prometheus"]
    for line in text.splitlines():
        if line.startswith("synat_serve_snapshots_total"):
            return float(line.split()[-1])
    return 0.0


def wait_for_snapshot(args, sock, after, timeout_s=15):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if snapshot_count(sock) > after:
            return
        time.sleep(0.3)
    raise Failure("daemon never took a cache snapshot")


def check_crash_recovery(args, sock, cache_file):
    """SIGKILL the daemon, restart on the same cache file, expect warm."""
    # A probe program no earlier phase has analyzed, so the first answer is
    # provably cold and only the snapshot can make the second one warm.
    probe = "proc WarmProbe() { skip; }\n"
    daemon = launch_daemon(args, sock, cache_file=cache_file,
                           snapshot_interval_s=1)
    try:
        with Client(sock, timeout=60) as client:
            first = client.analyze(probe, name="warm_probe")
            if first["procedures_reanalyzed"] == 0:
                raise Failure("cold analyze unexpectedly warm")
            report = first["report"]
            n0 = snapshot_count(sock)
        wait_for_snapshot(args, sock, n0)
    finally:
        daemon.send_signal(signal.SIGKILL)
        daemon.wait()
    log(args, "daemon SIGKILLed after snapshot; restarting")
    daemon = launch_daemon(args, sock, cache_file=cache_file,
                           snapshot_interval_s=1)
    try:
        with Client(sock, timeout=60) as client:
            warm = client.analyze(probe, name="warm_probe")
        if warm["procedures_reanalyzed"] != 0:
            raise Failure("restarted daemon was cold: reanalyzed "
                          f"{warm['procedures_reanalyzed']} procedures")
        if warm["report"] != report:
            raise Failure("warm report differs from pre-crash report")
        log(args, "restart served warm, identical report")
    finally:
        shutdown_clean(sock, daemon)


def check_client_reconnect(args, sock, cache_file):
    """A Client survives a daemon restart between (and during) calls."""
    daemon = launch_daemon(args, sock, cache_file=cache_file)
    client = Client(sock, timeout=60, max_retries=5)
    try:
        client.status()
        daemon.send_signal(signal.SIGKILL)
        daemon.wait()
        # Restart shortly after the client has begun retrying.
        def restart():
            time.sleep(0.3)
            launched.append(launch_daemon(args, sock, cache_file=cache_file))
        launched = []
        t = threading.Thread(target=restart)
        t.start()
        status = client.status()  # resent across the restart
        t.join()
        if "version" not in status:
            raise Failure("reconnected status reply malformed")
        result = client.analyze(HEALTHY, name="reconnect_probe")
        if classify_reply(result) != "ok":
            raise Failure("reconnected analyze degraded unexpectedly")
        log(args, "client resent idempotent calls across daemon restart")
    finally:
        client.close()
        shutdown_clean(sock, launched[0] if launched else daemon)


def check_flight_data(args, events_out, postmortem):
    """After the drain, the wide-event log and the incident postmortems
    must be schema-valid end to end."""
    schema = validate_events.load_schema()
    events, problems = validate_events.validate_file(events_out, schema,
                                                     postmortem=False)
    if problems:
        raise Failure("event log invalid:\n  " + "\n  ".join(problems[:5]))
    if events == 0:
        raise Failure("event log is empty after two storms")
    # Worker murder guarantees at least one incident dump was written.
    if not os.path.exists(postmortem):
        raise Failure("no postmortem dump despite worker deaths")
    frames, problems = validate_events.validate_file(postmortem, schema,
                                                     postmortem=True)
    if problems:
        raise Failure("postmortem invalid:\n  " + "\n  ".join(problems[:5]))
    log(args, f"flight data: {events} events, {frames} postmortem frames")


def check_byte_identity(args, sock):
    """Serve reports must match `synat batch --format json` byte for byte,
    even after the daemon survived a storm."""
    synl_dir = os.path.join(args.repo, "examples", "synl")
    with Client(sock, timeout=60) as client:
        for fn in sorted(os.listdir(synl_dir)):
            if not fn.endswith(".synl"):
                continue
            path = os.path.join(synl_dir, fn)
            with open(path) as f:
                source = f.read()
            served = client.analyze(source, name=path)["report"]
            batch = subprocess.run(
                [args.synat, "batch", "--format", "json", path],
                capture_output=True, text=True)
            if served != batch.stdout:
                raise Failure(f"{fn}: serve report differs from batch")
    log(args, "serve reports byte-identical to batch")


def shutdown_clean(sock, daemon):
    if daemon.poll() is not None:
        return daemon.returncode
    try:
        with Client(sock, timeout=60) as client:
            client.shutdown()
    except (OSError, EOFError, RpcError):
        pass
    try:
        rc = daemon.wait(timeout=30)
    except subprocess.TimeoutExpired:
        daemon.kill()
        raise Failure("daemon did not drain within 30 s of shutdown")
    return rc


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--synat", required=True, help="path to the synat binary "
                    "(built with -DSYNAT_FAULT_INJECTION=ON)")
    ap.add_argument("--repo", default=os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), help="repo root (for examples/synl)")
    ap.add_argument("--duration", type=float, default=8.0,
                    help="seconds per storm phase (default 8)")
    ap.add_argument("-v", "--verbose", action="store_true")
    args = ap.parse_args(argv)
    args.synat = os.path.abspath(args.synat)

    tmp = tempfile.mkdtemp(prefix="synat_chaos_")
    sock = os.path.join(tmp, "chaos.sock")
    cache_file = os.path.join(tmp, "chaos.cache")
    failures = 0

    def phase(name, fn):
        nonlocal failures
        print(f"chaos: === {name} ===", flush=True)
        try:
            fn()
            print(f"chaos: {name}: PASS", flush=True)
        except Failure as e:
            failures += 1
            print(f"chaos: {name}: FAIL: {e}", flush=True)

    # Phase 1+2: storm with fault victims, then with worker murder, against
    # one long-lived daemon; quarantine and byte identity are checked
    # against the same (post-chaos) daemon to prove it is still coherent.
    events_out = os.path.join(tmp, "events.jsonl")
    postmortem = os.path.join(tmp, "incident.pm")
    daemon = launch_daemon(args, sock, cache_file=cache_file,
                           snapshot_interval_s=1,
                           quarantine_threshold=3, quarantine_ttl_s=2,
                           events_out=events_out, postmortem=postmortem)
    try:
        phase("fault storm",
              lambda: run_storm(args, sock, daemon, args.duration, False))
        phase("worker-murder storm",
              lambda: run_storm(args, sock, daemon, args.duration, True))
        phase("quarantine", lambda: check_quarantine(args, sock, 3, 2))
        phase("byte identity", lambda: check_byte_identity(args, sock))
    finally:
        rc = shutdown_clean(sock, daemon)
        if rc != 0:
            failures += 1
            print(f"chaos: clean drain: FAIL: daemon exit {rc}", flush=True)
        else:
            print("chaos: clean drain: PASS", flush=True)
    phase("flight data",
          lambda: check_flight_data(args, events_out, postmortem))

    # Phases that manage their own daemon lifecycle.
    phase("crash recovery",
          lambda: check_crash_recovery(args, sock, cache_file))
    phase("client reconnect",
          lambda: check_client_reconnect(args, sock, cache_file))

    if failures:
        print(f"chaos: {failures} phase(s) FAILED", flush=True)
        return 1
    print("chaos: all phases passed", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
