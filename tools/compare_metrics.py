#!/usr/bin/env python3
"""Compare two synat --metrics-out Prometheus dumps for the cross-mode
determinism contract: deterministic counters must be identical across
--jobs 1, --jobs N, and --isolate runs over the same inputs.

What is deliberately skipped, mirroring tests/driver/test_obs.cpp:

  * metrics whose HELP line carries "(nondeterministic)" — timing-dependent
    by design (heartbeats, watchdog trips, span drops);
  * synat_worker_* counters — the in-process driver never dispatches
    workers, so these legitimately differ between modes;
  * gauges (synat_jobs is the mode under test, not an invariant);
  * histogram _bucket and _sum series — wall-clock-dependent; only the
    synat_pipeline_*_duration_seconds_count totals are mode-invariant
    (driver stages like dispatch run only under --isolate).

A comparison that covers no synat_pipeline_*_duration_seconds_count series
fails: an exposition change that hid the stage counts would otherwise pass
vacuously.

Usage: compare_metrics.py A.prom B.prom
"""

import sys


def parse(path):
    nondet = set()
    values = {}
    types = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.rstrip("\n")
            if line.startswith("# HELP "):
                name = line.split(" ", 3)[2]
                if "(nondeterministic)" in line:
                    nondet.add(name)
            elif line.startswith("# TYPE "):
                _, _, name, kind = line.split(" ", 3)
                types[name] = kind
            elif line and not line.startswith("#"):
                series, value = line.rsplit(" ", 1)
                values[series] = value
    return nondet, types, values


def comparable(series, nondet, types):
    base = series.split("{", 1)[0]
    if base.startswith("synat_worker_"):
        return False
    for family, kind in types.items():
        if base == family or base.startswith(family + "_"):
            if kind == "gauge":
                return False
            if kind == "histogram":
                return base == family + "_count" and \
                    family.startswith("synat_pipeline_")
    for family in nondet:
        if base == family or base == family + "_total":
            return False
    return True


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    a_nondet, a_types, a_values = parse(sys.argv[1])
    b_nondet, b_types, b_values = parse(sys.argv[2])
    nondet = a_nondet | b_nondet
    types = {**a_types, **b_types}

    keys_a = {k for k in a_values if comparable(k, nondet, types)}
    keys_b = {k for k in b_values if comparable(k, nondet, types)}

    failures = []
    for k in sorted(keys_a | keys_b):
        va, vb = a_values.get(k), b_values.get(k)
        if va != vb:
            failures.append(f"{k}: {va} != {vb}")
    stage_counts = [k for k in keys_a | keys_b
                    if k.startswith("synat_pipeline_")
                    and k.endswith("_duration_seconds_count")]
    if not stage_counts:
        failures.append("no synat_pipeline_*_duration_seconds_count series "
                        "compared")
    if failures:
        for f in failures:
            print(f"compare_metrics: {f}", file=sys.stderr)
        print(f"compare_metrics: FAIL ({len(failures)} mismatch(es))",
              file=sys.stderr)
        return 1
    print(f"compare_metrics: OK ({len(keys_a | keys_b)} deterministic "
          f"series identical, {len(stage_counts)} pipeline stage counts)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
