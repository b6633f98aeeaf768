#!/usr/bin/env python3
"""Chaos harness for the `synat serve` daemon (DESIGN.md §3h).

Drives a sandboxed daemon through the failure modes it claims to survive
and asserts, after each storm, that the daemon is still the same process,
still answers, and still produces byte-identical reports:

  1.  Request storm: concurrent clients mixing healthy programs with
      SYNAT_FAULT victims (crash / hang / OOM, injected inside the forked
      worker) and malformed sources. Every request must get a well-formed
      reply — a report, an -32003 error, or a degraded "kind":"crash"
      report. The daemon must never die.
  2.  Worker murder: a thread SIGKILLs sandbox workers (children of the
      daemon, via /proc) mid-storm. Same invariants.
  3.  Byte identity: after both storms, serve reports are still
      byte-identical to `synat batch --format json`, and shutdown drains
      cleanly (daemon exit code 0).
  4.  Event log: the daemon's --events-out log is schema-valid for every
      line (tools/validate_events.py), and, as the incident record, holds
      at least one degraded request whose line counts its worker deaths.

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

# One healthy program everyone agrees on.
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


def launch_daemon(args, sock, cache_file, events_out):
    cmd = [args.synat, "serve", "--listen", sock, "--jobs", "4",
           "--sandbox", "--deadline-ms", str(DEADLINE_MS),
           "--max-rss-mb", str(MAX_RSS_MB), "--retries", "1",
           "--cache-file", cache_file, "--events-out", events_out]
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
        client = Client(sock, timeout=60)
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
                if e.code == -32003:
                    stats.bump("overloaded")
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
    # A fault build must actually degrade victim requests.
    if stats.buckets.get("degraded", 0) == 0:
        raise Failure("no degraded replies — is this a "
                      "-DSYNAT_FAULT_INJECTION=ON build?")
    return stats


def check_event_log(args, events_out):
    """After the drain, the wide-event log must be schema-valid end to end
    and record the worker deaths the storms caused."""
    schema = validate_events.load_schema()
    events, problems = validate_events.validate_file(events_out, schema)
    if problems:
        raise Failure("event log invalid:\n  " + "\n  ".join(problems[:5]))
    if events == 0:
        raise Failure("event log is empty after two storms")
    # Worker murder guarantees at least one request degraded by deaths.
    with open(events_out, encoding="utf-8") as f:
        incidents = sum(
            1 for e in map(json.loads, f)
            if e["status"] == "degraded" and
            e["deaths_crash"] + e["deaths_timeout"] + e["deaths_oom"] > 0)
    if incidents == 0:
        raise Failure("no degraded event line despite worker deaths")
    log(args, f"event log: {events} events, {incidents} worker-death "
              "incidents")


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

    # A storm with fault victims, then one with worker murder, against one
    # long-lived daemon; byte identity is checked against the same
    # (post-chaos) daemon to prove it is still coherent.
    events_out = os.path.join(tmp, "events.jsonl")
    daemon = launch_daemon(args, sock, cache_file, events_out)
    try:
        phase("fault storm",
              lambda: run_storm(args, sock, daemon, args.duration, False))
        phase("worker-murder storm",
              lambda: run_storm(args, sock, daemon, args.duration, True))
        phase("byte identity", lambda: check_byte_identity(args, sock))
    finally:
        rc = shutdown_clean(sock, daemon)
        if rc != 0:
            failures += 1
            print(f"chaos: clean drain: FAIL: daemon exit {rc}", flush=True)
        else:
            print("chaos: clean drain: PASS", flush=True)
    phase("event log", lambda: check_event_log(args, events_out))

    if failures:
        print(f"chaos: {failures} phase(s) FAILED", flush=True)
        return 1
    print("chaos: all phases passed", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
