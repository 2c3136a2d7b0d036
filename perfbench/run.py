#!/usr/bin/env python3
"""Build and run the suite benchmark; compare its run records.

Run one workload (the result is the last stdout line):

    python3 perfbench/run.py --workload small --seed 1 --seconds 40 --trace 0

Check the run-to-run spread of a set of records, or compare two sets:

    python3 perfbench/run.py spread DIR
    python3 perfbench/run.py compare BASE_DIR NEW_DIR

The binary is built from the checkout's src/ into $CARGO_TARGET_DIR
(default .bench_build) on first use. Each run writes a record with the
host fingerprint to <build>/records/; compare refuses records whose
fingerprints differ. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configure and build incrementally; return the binary."""
    out = os.path.join(build_dir(), "perfbench")
    subprocess.run(["cmake", "-S", BENCH_DIR, "-B", out,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "--target", "perfbench",
                    "-j", str(len(os.sched_getaffinity(0)))],
                   check=True, stdout=sys.stderr)
    return os.path.join(out, "perfbench")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_sha():
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, check=True)
        toplevel, sha = top.stdout.split()
        return sha if os.path.samefile(toplevel, ROOT) else "unknown"
    except (OSError, ValueError, subprocess.CalledProcessError):
        return "unknown"


def source_digest():
    """sha256 over src/, which identifies the code in a non-git tree."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def run(args):
    binary = build()
    records = os.path.join(build_dir(), "records")
    os.makedirs(records, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--cache-dir",
           os.path.join(build_dir(), f"serve-cache-{os.getpid()}")]
    if args.trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-file", os.path.join(traces, stem + ".json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: timed out after {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"perfbench: exit code {proc.returncode}")
    record = json.loads(lines[-1])
    record.update({
        "fingerprint": {"cpu_model": cpu_model(),
                        "nproc": record["nproc"],
                        "simd_level": record["simd_level"]},
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "seconds": args.seconds,
        "time": time.strftime("%Y-%m-%dT%H:%M:%S"),
    })
    with open(os.path.join(records, stem + ".json"), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    for line in lines[:-1]:
        print(line)
    metrics = record["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({"correct": record["correct"],
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": metrics}))


def load_records(path):
    files = [path] if os.path.isfile(path) else [
        os.path.join(path, n) for n in sorted(os.listdir(path))
        if n.endswith(".json")]
    out = []
    for name in files:
        with open(name) as f:
            rec = json.load(f)
        if rec.get("trace") == 0:
            out.append(rec)
    if not out:
        sys.exit(f"no untraced run records under {path}")
    return out


def bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"]}


def by_workload(records):
    groups = {}
    for rec in records:
        groups.setdefault(rec["workload"], []).append(rec)
    return groups


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(args):
    metrics = bounds()
    bad = 0
    for workload, recs in sorted(by_workload(load_records(args.dir)).items()):
        failed = sum(not r["correct"] for r in recs)
        print(f"{workload}: {len(recs)} runs, {failed} incorrect")
        bad += failed
        for name, m in sorted(metrics.items()):
            values = [r["end_to_end"][name]["value"] for r in recs]
            if len(values) < 2:
                continue
            q1, med, q3 = summary(values)
            share = (q3 - q1) / med if med else float("inf")
            flag = "" if share < m["bound"] / 3 else "  <-- over bound/3"
            if share >= m["bound"] and name != "setup_s":
                flag, bad = "  <-- OVER BOUND", bad + 1
            print(f"  {name:24s} median {med:14.6g}  spread {share:7.2%}"
                  f"  bound {m['bound']:.2f}{flag}")
    sys.exit(1 if bad else 0)


def compare(args):
    metrics = bounds()
    base, new = load_records(args.base), load_records(args.new)
    prints = {json.dumps(r["fingerprint"], sort_keys=True)
              for r in base + new}
    if len(prints) != 1:
        sys.exit("refusing to compare records from different hosts:\n  " +
                 "\n  ".join(sorted(prints)))
    worse = 0
    new_groups = by_workload(new)
    for workload, recs in sorted(by_workload(base).items()):
        if workload not in new_groups:
            print(f"{workload}: no records in {args.new}")
            continue
        print(f"{workload}: {len(recs)} base runs, "
              f"{len(new_groups[workload])} new runs")
        for name, m in sorted(metrics.items()):
            b = [r["end_to_end"][name]["value"] for r in recs]
            n = [r["end_to_end"][name]["value"] for r in new_groups[workload]]
            mb, mn = statistics.median(b), statistics.median(n)
            change = (mn - mb) / mb
            loss = change if m["better"] == "lower" else -change
            verdict = "worse beyond bound" if loss > m["bound"] else (
                "better" if loss < 0 else "within bound")
            worse += loss > m["bound"]
            print(f"  {name:24s} {mb:14.6g} -> {mn:14.6g} {change:+8.2%}"
                  f"  ({verdict}, bound {m['bound']:.2f})")
        # Single-kernel rates make up kernels.tasks_per_s; they have no
        # bound of their own, but show where a change in it comes from.
        for name in sorted(recs[0]["extras"]):
            if not name.endswith(".tasks_per_s"):
                continue
            mb = statistics.median(r["extras"][name]["value"] for r in recs)
            mn = statistics.median(r["extras"][name]["value"]
                                   for r in new_groups[workload])
            print(f"  {name:24s} {mb:14.6g} -> {mn:14.6g}"
                  f" {(mn - mb) / mb:+8.2%}  (no bound)")
    sys.exit(1 if worse else 0)


def main():
    if len(sys.argv) > 1 and sys.argv[1] in ("spread", "compare"):
        p = argparse.ArgumentParser(prog="run.py")
        sub = p.add_subparsers(dest="cmd", required=True)
        s = sub.add_parser("spread")
        s.add_argument("dir")
        c = sub.add_parser("compare")
        c.add_argument("base")
        c.add_argument("new")
        args = p.parse_args()
        (spread if args.cmd == "spread" else compare)(args)
        return
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["small", "tiny"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    try:
        run(p.parse_args())
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit(f"perfbench: {e}")


if __name__ == "__main__":
    main()
