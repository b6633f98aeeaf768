#!/usr/bin/env python3
"""Validate a synat wide-event log (--events-out) against
tools/events_schema.json.

Every line must be a complete JSON object with exactly the schema's keys
in the schema's order (key order is part of the byte-identity contract;
see DESIGN.md §3i), with the right types and ranges. CI runs this over
the logs from every execution mode before comparing them byte-for-byte —
a canonical-but-wrong log should fail here, not in the diff.

    validate_events.py events.jsonl [more.jsonl ...]

Exit 0 when every line validates, 1 otherwise.
"""

import argparse
import json
import os
import sys

_SCHEMA_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "events_schema.json")


def load_schema():
    with open(_SCHEMA_PATH, encoding="utf-8") as f:
        return json.load(f)


def _type_ok(spec, value):
    if "const" in spec:
        return value == spec["const"]
    kind = spec.get("type")
    if kind == "integer":
        # bool is an int subclass in Python; a JSON true is not an integer.
        if isinstance(value, bool) or not isinstance(value, int):
            return False
        return value >= spec.get("minimum", value)
    if kind == "boolean":
        return isinstance(value, bool)
    if kind == "string":
        return isinstance(value, str)
    return True


def check_event(line, schema):
    """Returns a list of problems with one rendered event line (empty when
    it validates). Checks key order, not just key presence."""
    try:
        pairs = json.loads(line, object_pairs_hook=list)
    except json.JSONDecodeError as e:
        return [f"not valid JSON: {e}"]
    if not isinstance(pairs, list):
        return ["not a JSON object"]
    keys = [k for k, _ in pairs]
    expected = list(schema["properties"].keys())
    if keys != expected:
        if sorted(keys) == sorted(expected):
            return [f"keys out of canonical order: {keys}"]
        missing = [k for k in expected if k not in keys]
        extra = [k for k in keys if k not in expected]
        problems = []
        if missing:
            problems.append(f"missing keys: {missing}")
        if extra:
            problems.append(f"unexpected keys: {extra}")
        return problems or [f"duplicate keys: {keys}"]
    problems = []
    for key, value in pairs:
        if not _type_ok(schema["properties"][key], value):
            problems.append(f"bad value for {key!r}: {value!r}")
    return problems


def validate_file(path, schema):
    problems = []
    events = 0
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                problems.append(f"{path}:{lineno}: blank line")
                continue
            errs = check_event(line, schema)
            if errs:
                problems.extend(f"{path}:{lineno}: {e}" for e in errs)
            else:
                events += 1
    return events, problems


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("files", nargs="+", help="JSONL event logs to validate")
    args = ap.parse_args(argv)

    schema = load_schema()
    total, problems = 0, []
    for path in args.files:
        try:
            events, errs = validate_file(path, schema)
        except OSError as e:
            problems.append(f"{path}: {e}")
            continue
        total += events
        problems.extend(errs)

    for p in problems[:50]:
        print(f"validate_events: {p}", file=sys.stderr)
    if len(problems) > 50:
        print(f"validate_events: ... and {len(problems) - 50} more",
              file=sys.stderr)
    if problems:
        print(f"validate_events: FAIL ({len(problems)} problem(s))",
              file=sys.stderr)
        return 1
    print(f"validate_events: OK ({total} event(s) across "
          f"{len(args.files)} file(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main())
