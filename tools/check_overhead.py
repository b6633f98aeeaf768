#!/usr/bin/env python3
"""Gate on observability overhead using the E8/E9 driver-sweep bench.

Compares a freshly generated BENCH json (bench_analysis_perf with
SYNAT_BENCH_OUT set) against the checked-in baseline BENCH_driver.json:

  * serial_ms — the tracing- and provenance-DISABLED number
    (instrumentation compiled in, flags off) — must not regress more than
    --budget (default 5%) over the baseline; this is the "observability
    must cost nothing when off" gate;
  * obs_enabled_overhead from the fresh run — tracing+metrics ON vs off in
    the same process on the same machine — must also stay within budget;
  * events_overhead from the fresh run — the serial sweep with a wide-event
    log written to disk vs without — must stay within --budget;
  * the same serial_ms must additionally stay within --prov-budget
    (default 1%) of the baseline: provenance collection is branch-gated
    (InferOptions::provenance), so having it compiled in but disabled must
    be indistinguishable from not having it at all (DESIGN.md §3f). The
    fresh run must also record provenance_overhead (collection ON vs off,
    reported for trajectory, not gated — records are opt-in).

Wall-clock numbers only transfer between identical machines, so the
baseline comparison is skipped (exit 0, with a notice) when
hardware_concurrency differs between the two files; the machine-local
obs_enabled_overhead check still runs.

Usage: check_overhead.py FRESH.json BASELINE.json [--budget 0.05]
           [--prov-budget 0.01]
"""

import argparse
import json
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("fresh")
    ap.add_argument("baseline")
    ap.add_argument("--budget", type=float, default=0.05)
    ap.add_argument("--prov-budget", type=float, default=0.01)
    args = ap.parse_args()

    with open(args.fresh, encoding="utf-8") as f:
        fresh = json.load(f)
    with open(args.baseline, encoding="utf-8") as f:
        base = json.load(f)

    rc = 0

    on = fresh.get("obs_enabled_overhead")
    if on is None:
        print("check_overhead: fresh run lacks obs_enabled_overhead",
              file=sys.stderr)
        rc = 1
    elif on > args.budget:
        print(f"check_overhead: FAIL tracing-enabled overhead {on:.1%} "
              f"exceeds budget {args.budget:.0%}", file=sys.stderr)
        rc = 1
    else:
        print(f"check_overhead: tracing-enabled overhead {on:.1%} "
              f"within {args.budget:.0%}")

    ev = fresh.get("events_overhead")
    if ev is None:
        print("check_overhead: fresh run lacks events_overhead",
              file=sys.stderr)
        rc = 1
    elif ev > args.budget:
        print(f"check_overhead: FAIL wide-event log overhead {ev:.1%} "
              f"exceeds budget {args.budget:.0%}", file=sys.stderr)
        rc = 1
    else:
        print(f"check_overhead: wide-event log overhead {ev:.1%} "
              f"within {args.budget:.0%}")

    prov = fresh.get("provenance_overhead")
    if prov is None:
        print("check_overhead: fresh run lacks provenance_overhead",
              file=sys.stderr)
        rc = 1
    else:
        print(f"check_overhead: provenance-enabled overhead {prov:.1%} "
              "(trajectory only; collection is opt-in)")

    hw_fresh = fresh.get("hardware_concurrency")
    hw_base = base.get("hardware_concurrency")
    if hw_fresh != hw_base:
        print(f"check_overhead: SKIP baseline comparison "
              f"(hardware_concurrency {hw_fresh} != baseline {hw_base}; "
              f"wall-clock numbers do not transfer)")
        return rc

    serial_fresh = fresh.get("serial_ms", 0.0)
    serial_base = base.get("serial_ms", 0.0)
    if serial_base <= 0:
        print("check_overhead: baseline serial_ms missing/zero",
              file=sys.stderr)
        return 1
    ratio = serial_fresh / serial_base - 1.0
    if ratio > args.budget:
        print(f"check_overhead: FAIL tracing-disabled serial sweep "
              f"{serial_fresh:.3f}ms is {ratio:+.1%} vs baseline "
              f"{serial_base:.3f}ms (budget {args.budget:.0%})",
              file=sys.stderr)
        return 1
    print(f"check_overhead: tracing-disabled serial sweep {ratio:+.1%} "
          f"vs baseline, within {args.budget:.0%}")
    # The provenance-disabled gate is tighter: with collection branch-gated
    # off, the sweep must sit within --prov-budget of the baseline.
    if ratio > args.prov_budget:
        print(f"check_overhead: FAIL provenance-disabled serial sweep "
              f"{ratio:+.1%} vs baseline exceeds prov budget "
              f"{args.prov_budget:.0%}", file=sys.stderr)
        return 1
    print(f"check_overhead: provenance-disabled serial sweep {ratio:+.1%} "
          f"vs baseline, within {args.prov_budget:.0%}")
    return rc


if __name__ == "__main__":
    sys.exit(main())
