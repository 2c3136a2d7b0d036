#!/usr/bin/env python3
"""Summarize a gb::trace Chrome trace-event JSON file.

Reads a file written by `genomicsbench run|serve --trace=FILE` and
prints span/instant counts, per-category span totals, per-name span
totals (by total duration, descending) and the longest spans:

    python3 scripts/trace_inspect.py trace.json [--top N]

Exits 1 with `error: ...` on a missing, malformed or non-trace file.
"""
import argparse
import json
import sys


def load_events(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        sys.exit(f"error: cannot read trace {path}: {e}")
    events = doc.get("traceEvents") if isinstance(doc, dict) else None
    if not isinstance(events, list) or \
            not all(isinstance(e, dict) for e in events):
        sys.exit(f"error: {path} has no traceEvents array of objects")
    other = doc.get("otherData")
    return events, other if isinstance(other, dict) else {}


def table(title, header, rows):
    """Print like gb::Table: padded columns joined by ' | '."""
    widths = [max(len(r[c]) for r in [header] + rows)
              for c in range(len(header))]
    rule = "-" * (sum(widths) + 3 * (len(widths) - 1))
    def line(row):
        return " | ".join(c.ljust(w) for c, w in zip(row, widths))
    print(f"== {title} ==", rule, line(header), rule, sep="\n")
    for row in rows:
        print(line(row))
    print(rule)


def ms(us):
    return f"{us / 1000.0:.3f}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("trace")
    parser.add_argument("--top", type=int, default=10,
                        help="per-name rows and longest spans (default 10)")
    args = parser.parse_args()
    if args.top < 0:
        parser.error("--top expects a non-negative number")
    events, other = load_events(args.trace)

    spans = [e for e in events if e.get("ph") == "X"]
    instants = sum(1 for e in events if e.get("ph") == "i")
    by_cat, by_name = {}, {}
    for e in spans:
        dur = e.get("dur", 0)
        for key, groups in ((e.get("cat", ""), by_cat),
                            (e.get("name", ""), by_name)):
            g = groups.setdefault(key, {"count": 0, "total": 0.0,
                                        "max": 0.0})
            g["cat"] = e.get("cat", "")
            g["count"] += 1
            g["total"] += dur
            g["max"] = max(g["max"], dur)
    extent = (max(e.get("ts", 0) + e.get("dur", 0) for e in spans) -
              min(e.get("ts", 0) for e in spans)) if spans else 0.0

    print(f"file:     {args.trace}\n"
          f"events:   {len(spans)} spans, {instants} instants "
          f"({other.get('dropped_events', 0)} dropped at capture, "
          f"{other.get('rings', 0)} threads)\n"
          f"extent:   {ms(extent)} ms\n")
    table("Per-category span totals",
          ["category", "spans", "total ms", "max ms"],
          [[k, str(g["count"]), ms(g["total"]), ms(g["max"])]
           for k, g in sorted(by_cat.items())])
    names = sorted(sorted(by_name.items()), key=lambda kv: -kv[1]["total"])
    table("Per-name span totals",
          ["name", "category", "count", "total ms", "max ms"],
          [[k, g["cat"], str(g["count"]), ms(g["total"]), ms(g["max"])]
           for k, g in names[:args.top]])
    longest = sorted(spans, key=lambda e: -e.get("dur", 0))[:args.top]
    table(f"Top {len(longest)} longest spans",
          ["name", "category", "job", "thread", "start ms", "dur ms"],
          [[e.get("name", ""), e.get("cat", ""),
            str(int(e.get("args", {}).get("job", 0))),
            str(int(e.get("tid", 0))), ms(e.get("ts", 0)),
            ms(e.get("dur", 0))] for e in longest])


if __name__ == "__main__":
    main()
