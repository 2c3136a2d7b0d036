#!/usr/bin/env python3
"""Validate one gb-metrics-v1 benchmark JSON document.

Every bench binary and `genomicsbench run|serve` writes one JSON
document per run via --json=FILE (see docs/metrics.md). This script
checks that FILE is a well-formed gb-metrics-v1 document:

  validate_metrics.py FILE

Exit 0 when valid, 2 when not; each violation is printed to stderr
with the offending field named. Stdlib only.
"""

import json
import sys

SCHEMA = "gb-metrics-v1"
META_KEYS = {
    "experiment", "paper_ref", "git_sha", "size", "threads",
    "simd_level", "host_hw_threads",
}


def validate(doc):
    """Return a list of schema-violation messages (empty = valid)."""
    errors = []
    if not isinstance(doc, dict):
        return ["document is not a JSON object"]
    if doc.get("schema") != SCHEMA:
        errors.append(
            f"schema is {doc.get('schema')!r}, expected {SCHEMA!r}")
    meta = doc.get("meta")
    if not isinstance(meta, dict):
        errors.append("meta is missing or not an object")
    else:
        for key in sorted(META_KEYS - meta.keys()):
            errors.append(f"meta.{key} is missing")
        for key in ("experiment", "git_sha", "size", "simd_level"):
            if key in meta and not isinstance(meta[key], str):
                errors.append(f"meta.{key} is not a string")
        for key in ("threads", "host_hw_threads"):
            if key in meta and not isinstance(meta[key], int):
                errors.append(f"meta.{key} is not an integer")
    rows = doc.get("rows")
    if not isinstance(rows, list):
        errors.append("rows is missing or not an array")
        return errors
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            errors.append(f"rows[{i}] is not an object")
            continue
        if not isinstance(row.get("table"), str):
            errors.append(f"rows[{i}].table is missing or not a string")
        for key, value in row.items():
            if not isinstance(value,
                              (str, int, float, bool, type(None))):
                errors.append(
                    f"rows[{i}].{key} has non-scalar value "
                    f"{type(value).__name__}")
    return errors


def main():
    if len(sys.argv) != 2 or sys.argv[1].startswith("-"):
        print(__doc__, file=sys.stderr)
        return 2
    path = sys.argv[1]
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as err:
        print(f"error: {path}: {err}", file=sys.stderr)
        return 2
    errors = validate(doc)
    for message in errors:
        print(f"{path}: {message}", file=sys.stderr)
    if errors:
        return 2
    print(f"ok: {path}: {SCHEMA}, experiment "
          f"{doc['meta']['experiment']!r}, {len(doc['rows'])} row(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
