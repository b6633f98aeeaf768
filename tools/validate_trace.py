#!/usr/bin/env python3
"""Validate a synat --trace-out document against tools/trace_schema.json.

Self-contained: implements exactly the JSON-Schema subset the checked-in
schema uses (type, required, properties, items, enum, minimum), so CI does
not need the third-party jsonschema package. On top of the structural
check it enforces the trace semantics the ISSUE pins down:

  * every "X" event carries name/cat/tid/ts/dur;
  * with --require-pipeline-stages, all nine pipeline stage spans
    (parse, cfg_liveness, dataflow, purity, variants, contexts, movers,
    infer, blocks) occur;
  * with --min-lanes N, at least N distinct pids (lanes) occur — the
    per-worker-lane check for --isolate runs.

It prints otherData.spans_dropped: a nonzero figure means a thread's span
ring wrapped and the trace lost its oldest spans.

Usage: validate_trace.py TRACE.json [--schema SCHEMA.json]
           [--require-pipeline-stages] [--min-lanes N]
"""

import argparse
import json
import os
import sys

PIPELINE_STAGES = {
    "parse", "cfg_liveness", "dataflow", "purity", "variants", "contexts",
    "movers", "infer", "blocks",
}

TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
}


def validate(value, schema, path, errors):
    """Check `value` against the supported JSON-Schema subset."""
    t = schema.get("type")
    if t is not None and not TYPE_CHECKS[t](value):
        errors.append(f"{path}: expected {t}, got {type(value).__name__}")
        return
    if "enum" in schema and value not in schema["enum"]:
        errors.append(f"{path}: {value!r} not in {schema['enum']}")
    if "minimum" in schema and isinstance(value, (int, float)):
        if value < schema["minimum"]:
            errors.append(f"{path}: {value} < minimum {schema['minimum']}")
    if isinstance(value, dict):
        for key in schema.get("required", []):
            if key not in value:
                errors.append(f"{path}: missing required key {key!r}")
        for key, sub in schema.get("properties", {}).items():
            if key in value:
                validate(value[key], sub, f"{path}.{key}", errors)
    if isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            validate(item, schema["items"], f"{path}[{i}]", errors)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("trace")
    ap.add_argument("--schema",
                    default=os.path.join(os.path.dirname(__file__),
                                         "trace_schema.json"))
    ap.add_argument("--require-pipeline-stages", action="store_true")
    ap.add_argument("--min-lanes", type=int, default=1)
    args = ap.parse_args()

    with open(args.trace, encoding="utf-8") as f:
        trace = json.load(f)
    with open(args.schema, encoding="utf-8") as f:
        schema = json.load(f)

    errors = []
    validate(trace, schema, "$", errors)

    events = trace.get("traceEvents", []) if isinstance(trace, dict) else []
    spans = [e for e in events if isinstance(e, dict) and e.get("ph") == "X"]
    for i, e in enumerate(spans):
        for key in ("name", "cat", "tid", "ts", "dur"):
            if key not in e:
                errors.append(f"X event {i}: missing {key!r}")

    stages = {e.get("name") for e in spans}
    lanes = {e.get("pid") for e in events if isinstance(e, dict)}

    if args.require_pipeline_stages:
        missing = PIPELINE_STAGES - stages
        if missing:
            errors.append(f"missing pipeline stage spans: {sorted(missing)}")
    if len(lanes) < args.min_lanes:
        errors.append(f"expected >= {args.min_lanes} lanes, got {len(lanes)}: "
                      f"{sorted(lanes)}")

    other = trace.get("otherData") if isinstance(trace, dict) else None
    dropped = other.get("spans_dropped", 0) if isinstance(other, dict) else 0
    if errors:
        for e in errors[:50]:
            print(f"validate_trace: {e}", file=sys.stderr)
        print(f"validate_trace: FAIL ({len(errors)} error(s), "
              f"{dropped} spans dropped) {args.trace}", file=sys.stderr)
        return 1
    print(f"validate_trace: OK {args.trace} "
          f"({len(spans)} spans, {len(lanes)} lane(s), "
          f"{len(stages & PIPELINE_STAGES)}/{len(PIPELINE_STAGES)} pipeline stages, "
          f"{dropped} spans dropped)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
