#!/usr/bin/env python3
"""Reference client for the `synat serve` daemon.

The wire protocol is newline-delimited JSON-RPC 2.0 over a unix-domain
socket (see src/serve/include/synat/serve/service.h for the method
surface). This module is both a library (used by the tests and CI) and a
small CLI:

    synat_client.py --connect /tmp/synat.sock status
    synat_client.py --connect /tmp/synat.sock analyze prog.synl [--provenance]
    synat_client.py --connect /tmp/synat.sock analyze -        # stdin
    synat_client.py --connect /tmp/synat.sock explain prog.synl [PROC]
    synat_client.py --connect /tmp/synat.sock metrics
    synat_client.py --connect /tmp/synat.sock invalidate
    synat_client.py --connect /tmp/synat.sock shutdown
    synat_client.py tail events.jsonl [-n 20] [--follow] [--grep error]

`analyze` prints the batch-report JSON document (byte-identical to
`synat batch --format json` on the same input) to stdout and exits with
the analysis exit code; the other commands print their result object.
Each call is one round trip on one connection: a dropped connection
raises, and the caller decides whether to connect again.
"""

import argparse
import json
import os
import socket
import sys
import time


class RpcError(Exception):
    """A JSON-RPC error response. `code` follows the spec (-32700 parse,
    -32600 invalid request, ...) plus synat's server-defined codes
    (-32003 overloaded, -32002 shutting down)."""

    def __init__(self, code, message):
        super().__init__(f"RPC error {code}: {message}")
        self.code = code
        self.message = message


class Client:
    """One connection to a synat serve daemon. Not thread-safe; open one
    Client per thread (the daemon handles any number of connections)."""

    # A daemon that was just launched may not be accepting yet (its unix
    # socket path appears at bind(), a moment before listen()), so a
    # refused/absent endpoint is retried briefly before giving up.
    _CONNECT_RETRY_SECS = 2.0

    def __init__(self, address, timeout=None):
        self._next_id = 0
        deadline = time.monotonic() + self._CONNECT_RETRY_SECS
        while True:
            try:
                self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                self._sock.settimeout(timeout)
                self._sock.connect(address)
                break
            except (ConnectionRefusedError, FileNotFoundError):
                if time.monotonic() >= deadline:
                    raise
                time.sleep(0.05)
        self._file = self._sock.makefile("rw", encoding="utf-8", newline="\n")

    def close(self):
        self._file.close()
        self._sock.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def call(self, method, params=None):
        """One request/response round trip. Returns the result object;
        raises RpcError on an error response, and EOFError/OSError if the
        connection drops."""
        self._next_id += 1
        req = {"jsonrpc": "2.0", "id": self._next_id, "method": method}
        if params is not None:
            req["params"] = params
        self._file.write(json.dumps(req) + "\n")
        self._file.flush()
        line = self._file.readline()
        if not line:
            raise EOFError("daemon closed the connection")
        resp = json.loads(line)
        if "error" in resp:
            raise RpcError(resp["error"]["code"], resp["error"]["message"])
        return resp["result"]

    def notify(self, method, params=None):
        """Fire-and-forget notification (no id, no response)."""
        req = {"jsonrpc": "2.0", "method": method}
        if params is not None:
            req["params"] = params
        self._file.write(json.dumps(req) + "\n")
        self._file.flush()

    # Convenience wrappers for the method surface.

    def analyze(self, program, name=None, **options):
        params = {"program": program, **options}
        if name is not None:
            params["name"] = name
        return self.call("analyze", params)

    def explain(self, program, name=None, proc=None, **options):
        params = {"program": program, **options}
        if name is not None:
            params["name"] = name
        if proc is not None:
            params["proc"] = proc
        return self.call("explain", params)

    def status(self):
        return self.call("status")

    def metrics(self):
        return self.call("metrics")

    def invalidate(self):
        return self.call("invalidate")

    def shutdown(self):
        return self.call("shutdown")


def _format_event(ev):
    """One human-scannable line per wide event (see DESIGN.md §3i)."""
    parts = [f"#{ev.get('seq', '?')}",
             str(ev.get("name", "?")),
             f"status={ev.get('status', '?')}"]
    if not ev.get("atomic", True):
        parts.append("NOT-ATOMIC")
    if ev.get("exit_code", 0) != 0:
        parts.append(f"exit={ev['exit_code']}")
    dur = ev.get("dur_ns", 0)
    if dur:
        parts.append(f"dur={dur / 1e6:.2f}ms")
    hits, misses = ev.get("cache_hits", 0), ev.get("cache_misses", 0)
    if hits or misses:
        parts.append(f"cache={hits}h/{misses}m")
    for k in ("retries", "deaths_crash", "deaths_timeout", "deaths_oom"):
        if ev.get(k):
            parts.append(f"{k}={ev[k]}")
    if ev.get("error_kind"):
        parts.append(f"error={ev['error_kind']}({ev.get('error_code', 0)})")
    return "  ".join(parts)


def _tail_events(path, last_n, follow, grep):
    """Render a wide-event log (synat --events-out) as one line per event,
    optionally following appended lines like `tail -f`."""

    def emit(line):
        line = line.strip()
        if not line:
            return
        if grep and grep not in line:
            return
        try:
            ev = json.loads(line)
        except json.JSONDecodeError:
            print(f"?  {line}")
            return
        print(_format_event(ev), flush=True)

    try:
        with open(path, encoding="utf-8") as f:
            lines = f.readlines()
    except OSError as e:
        print(f"synat_client: {e}", file=sys.stderr)
        return 2
    for line in lines[-last_n:] if last_n >= 0 else lines:
        emit(line)
    if not follow:
        return 0

    with open(path, encoding="utf-8") as f:
        f.seek(0, os.SEEK_END)
        pending = ""  # a line still being written
        try:
            while True:
                pending += f.readline()
                if pending.endswith("\n"):
                    emit(pending)
                    pending = ""
                else:
                    time.sleep(0.2)
        except KeyboardInterrupt:
            return 0


def _read_program(spec):
    if spec == "-":
        return sys.stdin.read(), "<stdin>"
    with open(spec, "r", encoding="utf-8") as f:
        return f.read(), spec


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--connect",
                    help="unix socket path "
                         "(required for every command except tail)")
    ap.add_argument("--timeout", type=float, default=60.0)
    sub = ap.add_subparsers(dest="command", required=True)

    ana = sub.add_parser("analyze")
    ana.add_argument("program", help="SYNL file, or - for stdin")
    ana.add_argument("--provenance", action="store_true")
    ana.add_argument("--no-variants", action="store_true")
    ana.add_argument("--no-windows", action="store_true")
    ana.add_argument("--no-conds", action="store_true")
    ana.add_argument("--counted", action="append", default=[])

    exp = sub.add_parser("explain")
    exp.add_argument("program", help="SYNL file, or - for stdin")
    exp.add_argument("proc", nargs="?")

    for name in ("status", "metrics", "invalidate", "shutdown"):
        sub.add_parser(name)

    tail = sub.add_parser(
        "tail", help="render a --events-out wide-event log, one line each")
    tail.add_argument("file", help="events JSONL file")
    tail.add_argument("-n", "--lines", type=int, default=10,
                      help="show the last N events first (-1 for all)")
    tail.add_argument("-f", "--follow", action="store_true",
                      help="keep watching for appended events")
    tail.add_argument("--grep",
                      help="only raw JSON lines containing this substring "
                           "(e.g. '\"status\":\"degraded\"' or an error "
                           "kind)")

    args = ap.parse_args(argv)
    if args.command == "tail":
        return _tail_events(args.file, args.lines, args.follow, args.grep)
    if not args.connect:
        ap.error(f"--connect is required for '{args.command}'")
    try:
        client = Client(args.connect, timeout=args.timeout)
    except OSError as e:
        print(f"synat_client: cannot connect to {args.connect}: {e}",
              file=sys.stderr)
        return 2

    try:
        with client:
            if args.command == "analyze":
                source, name = _read_program(args.program)
                options = {}
                if args.provenance:
                    options["provenance"] = True
                if args.no_variants:
                    options["no_variants"] = True
                if args.no_windows:
                    options["no_windows"] = True
                if args.no_conds:
                    options["no_conds"] = True
                if args.counted:
                    options["counted"] = args.counted
                result = client.analyze(source, name=args.program
                                        if args.program != "-" else name,
                                        **options)
                sys.stdout.write(result["report"])
                return result["exit_code"]
            if args.command == "explain":
                source, _ = _read_program(args.program)
                result = client.explain(source, name=args.program,
                                        proc=args.proc)
                sys.stdout.write(result["explanation"])
                return result["exit_code"]
            if args.command == "metrics":
                sys.stdout.write(client.metrics()["prometheus"])
                return 0
            result = client.call(args.command)
            print(json.dumps(result, indent=2))
            return 0
    except RpcError as e:
        print(f"synat_client: {e}", file=sys.stderr)
        return 2
    except (EOFError, OSError) as e:
        print(f"synat_client: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
