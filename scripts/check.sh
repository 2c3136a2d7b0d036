#!/usr/bin/env bash
# Full pre-merge check: tier-1 build + tests, the SIMD, banded-SW
# engine, FM-index/SMEM, phmm, chain, poa, nn, grm and abea equivalence
# suites, the Fig. 3 bench's bandedSw-vs-scalar check and the phmm
# precision ablation's runPhmmTask-vs-template check
# at every dispatch level
# (GB_SIMD_LEVEL=scalar|sse4|avx2), the whole ctest suite in a Debug
# build, under ASan/UBSan (plus the dispatch-level suites at every
# level) and under TSan, a
# metrics smoke test (--json emission validated by
# scripts/validate_metrics.py, which must also reject malformed
# documents), a guard that the dispatched smems object counts with the
# popcnt instruction and never calls __popcountdi2, the fmi-occ and
# kmer-prefetch ablation benches (self-verifying), an end-to-end
# artifact-cache smoke test (store build -> store verify -> pinned
# sha256 of the tiny fmi, pileup, kmer-reads and nn-variant artifacts
# -> store inspect of the fmi artifact, its read sections' digests and
# of an empty file -> warm run + corruption check), a dispatch-level smoke (bsw, phmm, fmi, chain,
# spoa, nn-base, nn-variant, grm and abea report the same task counts
# under GB_SIMD_LEVEL=scalar and the default level, at 1 and 4 threads),
# the reference-guided example's phmm line and the nanopore example's
# abea line (each identical at GB_SIMD_LEVEL=scalar and the default
# level), a kmer-cnt thread smoke (the
# same task counts at 1, 3 and 4 threads), a gb::serve smoke test (8-job
# list through the scheduler, JSON validated, single-flight prepare
# asserted), a gb::net loopback
# smoke (`serve --listen` driven by the `client` subcommand over
# 127.0.0.1, priority dispatch order asserted from the JSON), and a
# gb::trace smoke riding on the net run: --trace must produce valid
# Perfetto JSON covering every instrumented layer with zero dropped
# events and fewer rings than jobs, submit->done coverage for all 8
# jobs, and non-zero latency
# percentile columns on the serve_summary row (docs/tracing.md), a
# scripts/trace_inspect.py fixture and bad-file check, and
# a `run` rows check (3 repeats -> 3 `run` rows, `run_best` = their
# minimum and carries the process peak RSS), and CLI error-handling checks (unknown flags with a
# did-you-mean, the removed --engine, flags a subcommand does not take,
# a mistyped
# GB_SIMD_LEVEL, malformed numeric, duration and empty path flags).
#
# Timing is not gated here: `perfbench/run.py compare BENCH_16 NEW`
# does that against the committed trajectory (BENCH_16/README.md).
#
# Usage: scripts/check.sh [--skip-sanitizers]
set -euo pipefail

cd "$(dirname "$0")/.."
ROOT=$PWD
JOBS=$(nproc 2>/dev/null || echo 4)
SKIP_SAN=0
[[ "${1:-}" == "--skip-sanitizers" ]] && SKIP_SAN=1

step() { printf '\n== %s ==\n' "$*"; }

# The test binaries whose engines dispatch on GB_SIMD_LEVEL; each runs
# at every level in the Release and the ASan/UBSan builds.
LEVEL_TESTS="test_simd test_align test_index test_phmm test_chain test_poa
test_nn test_grm test_abea"

# ----------------------------------------------------------------- tier 1
step "tier-1: configure + build"
cmake -B build -S . >/dev/null
cmake --build build -j"$JOBS"

step "tier-1: ctest"
(cd build && ctest --output-on-failure -j"$JOBS")

# ----------------------------------------------- fmi POPCNT instantiation
# smems(..., NullProbe&) runs FmIndex::smems from fm_index_popcnt.cc at
# the sse4/avx2 levels; its occ lookups must count with the POPCNT
# instruction, not call libgcc's __popcountdi2 (x86 builds only).
POPCNT_OBJ=build/src/index/CMakeFiles/gb_index.dir/fm_index_popcnt.cc.o
if [[ "$(uname -m)" == x86_64 ]]; then
    step "fmi: dispatched smems object uses popcnt, never __popcountdi2"
    [[ -f "$POPCNT_OBJ" ]] || {
        echo "FAIL: $POPCNT_OBJ was not built" >&2
        exit 1
    }
    objdump -dr "$POPCNT_OBJ" >/tmp/gb_popcnt.txt
    if grep -q "__popcountdi2" /tmp/gb_popcnt.txt; then
        echo "FAIL: $POPCNT_OBJ calls __popcountdi2" >&2
        exit 1
    fi
    grep -qw "popcnt" /tmp/gb_popcnt.txt || {
        echo "FAIL: $POPCNT_OBJ has no popcnt instruction" >&2
        exit 1
    }
    rm -f /tmp/gb_popcnt.txt
fi

# ------------------------------------------------- SIMD dispatch levels
# The equivalence property test re-runs under every GB_SIMD_LEVEL so a
# host with AVX2 still exercises the SSE4 and scalar dispatch paths
# (the env override clamps to what the CPU supports, so this is safe
# on any machine). The Fig. 3 bench aligns the bsw kernel's own pair
# mix (length-sorted, long spurious extensions) with bandedSw() and
# exits 1 if any result differs from bandedSwScalar(). The phmm
# precision ablation runs the dispatched runPhmmTask (double pass
# first after a fallback) over its contained and pipeline-window pairs
# and exits 1 if any likelihood differs from the float-first template.
step "gb::simd + bsw one-pair engine + FM-index SMEMs + phmm/chain/poa/nn/grm/abea: equivalence at every dispatch level"
for level in scalar sse4 avx2; do
    echo "-- GB_SIMD_LEVEL=$level"
    for test in $LEVEL_TESTS; do
        GB_SIMD_LEVEL=$level "./build/tests/$test" --gtest_brief=1
    done
    GB_SIMD_LEVEL=$level ./build/bench/bench_fig3_bsw_vectorization \
        --size=tiny >/dev/null
    GB_SIMD_LEVEL=$level ./build/bench/bench_ablation_phmm_precision \
        --size=tiny >/dev/null
done

# ------------------------------------------------------------ Debug build
# At -O0 nothing is inlined, so symbols that two ISA files define
# differently would reach the linker, which keeps one body for both:
# the SSE4 and AVX2 engines must still match their oracles here.
step "Debug: build + run the whole ctest suite"
cmake -B build-debug -S . -DCMAKE_BUILD_TYPE=Debug >/dev/null
cmake --build build-debug -j"$JOBS"
(cd build-debug && ctest --output-on-failure -j"$JOBS")

# An inline or template function of external linkage that an ISA file
# compiles is a weak symbol, and the linker keeps one copy of it for
# every caller: -mavx2 or -msse4.2 code there would run outside the
# dispatch gate on a CPU without that extension. In the Debug objects
# (nothing inlined), no weak symbol of isa_avx2.cc.o may hold a VEX
# instruction or a %ymm operand, and none of isa_sse4.cc.o an
# SSE4.1/4.2 instruction (x86 builds only).
isa_weak_code() { # OBJ MNEMONIC_REGEX -> "symbol: instruction" per hit
    nm --defined-only "$1" | awk '$2 == "W" { print $3 }' >/tmp/gb_weak.txt
    objdump -d --no-show-raw-insn "$1" | awk -v pat="$2" '
        FNR == NR { weak[$1] = 1; next }
        /^[0-9a-f]+ <.*>:$/ { sym = substr($2, 2, length($2) - 3); next }
        (sym in weak) && sub(/^ *[0-9a-f]+:\t/, "") {
            split($0, f, /[ \t]+/)
            if (f[1] ~ pat || /%ymm/) print sym ": " $0
        }' /tmp/gb_weak.txt -
    rm -f /tmp/gb_weak.txt
}
ISA_DIR=build-debug/src/simd/CMakeFiles/gb_simd.dir
if [[ -f "$ISA_DIR/isa_avx2.cc.o" ]]; then
    step "Debug: no AVX2/SSE4 code in the ISA objects' weak symbols"
    SSE4_ONLY='^(pmulld|pmuldq|pblendvb|pblendw|blendvp[sd]|blendp[sd]|ptest|pmin(sb|sd|uw|ud)|pmax(sb|sd|uw|ud)|round[sp][sd]|pmov[sz]x[bwd][wdq]|pcmpeqq|pcmpgtq|pinsr[bdq]|pextr[bdq]|extractps|insertps|packusdw|dpp[sd]|mpsadbw|phminposuw|movntdqa|pcmp[ei]str[im]|crc32[bwlq]?|popcnt[wlq]?)$'
    isa_weak_code "$ISA_DIR/isa_avx2.cc.o" '^v' >/tmp/gb_isa_weak.txt
    isa_weak_code "$ISA_DIR/isa_sse4.cc.o" "$SSE4_ONLY" >>/tmp/gb_isa_weak.txt
    if [[ -s /tmp/gb_isa_weak.txt ]]; then
        echo "FAIL: ISA code in weak symbols of $ISA_DIR:" >&2
        c++filt </tmp/gb_isa_weak.txt | head -20 >&2
        exit 1
    fi
    rm -f /tmp/gb_isa_weak.txt
fi

# ------------------------------------------------------- sanitizer build
if [[ $SKIP_SAN -eq 0 ]]; then
    step "ASan/UBSan: build + run the whole ctest suite"
    cmake -B build-asan -S . \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all" \
        >/dev/null
    cmake --build build-asan -j"$JOBS"
    (cd build-asan && ctest --output-on-failure -j"$JOBS")
    for level in scalar sse4 avx2; do
        for test in $LEVEL_TESTS; do
            GB_SIMD_LEVEL=$level "./build-asan/tests/$test" \
                --gtest_brief=1
        done
    done
fi

# ------------------------------------------------------- TSan build
# The scheduler telemetry writes per-rank slots from worker threads,
# the gb::serve scheduler admits and dispatches under one lock from
# submitters and finishing detached runner threads over a shared
# worker budget, the gb::net server multiplexes session threads, an
# accept loop and wake pipes over one scheduler, gb::trace records
# into per-thread rings (reused across exiting threads) from all of
# the above, and the kernels run on the pool; TSan runs the whole
# ctest suite over them.
if [[ $SKIP_SAN -eq 0 ]]; then
    step "TSan: build + run the whole ctest suite"
    TSAN_START=$SECONDS
    cmake -B build-tsan -S . \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCMAKE_CXX_FLAGS="-fsanitize=thread" \
        >/dev/null
    cmake --build build-tsan -j"$JOBS"
    # The randomized scheduler stress first (skewed and throwing
    # bodies — docs/threading.md), then the whole suite.
    ./build-tsan/tests/test_util \
        --gtest_filter='ThreadPool.SchedulerStress*'
    (cd build-tsan && ctest --output-on-failure -j"$JOBS")
    echo "TSan step: $((SECONDS - TSAN_START)) s"
fi

# ------------------------------------------------------- metrics smoke
# Every bench binary and `genomicsbench run` emit gb-metrics-v1 JSON
# via --json=FILE (docs/metrics.md). Emit from a table binary and from
# the CLI and validate both.
step "metrics: JSON emission -> validate_metrics.py"
MDIR=$(mktemp -d)
./build/bench/bench_fig4_task_imbalance --size=tiny --kernels=bsw \
    --json="$MDIR/fig4.json" >/dev/null
python3 scripts/validate_metrics.py "$MDIR/fig4.json"
./build/tools/genomicsbench run bsw --size=tiny --repeat=1 \
    --json="$MDIR/run.json" >/dev/null
python3 scripts/validate_metrics.py "$MDIR/run.json"

# The validator must fail on a broken document and name the field: one
# without meta.simd_level, one whose row holds an object and an array.
step "metrics: validate_metrics.py rejects malformed documents"
python3 - "$MDIR/run.json" "$MDIR" <<'EOF'
import json, subprocess, sys
good = json.load(open(sys.argv[1]))
no_level = json.loads(json.dumps(good))
del no_level["meta"]["simd_level"]
nested = json.loads(json.dumps(good))
nested["rows"][0]["seconds"] = {"value": 1}
nested["rows"][0]["tasks"] = [1, 2]
cases = [(no_level, ["meta.simd_level is missing"]),
         (nested, ["rows[0].seconds has non-scalar value dict",
                   "rows[0].tasks has non-scalar value list"])]
for i, (doc, expected) in enumerate(cases):
    path = f"{sys.argv[2]}/bad{i}.json"
    json.dump(doc, open(path, "w"))
    run = subprocess.run([sys.executable, "scripts/validate_metrics.py",
                          path], capture_output=True, text=True)
    assert run.returncode == 2, (path, run.returncode, run.stderr)
    for message in expected:
        assert message in run.stderr, (message, run.stderr)
    print(f"rejected as expected: {run.stderr.strip()}")
EOF
rm -rf "$MDIR"

# ------------------------------------------ memory-bound ablation smoke
# Both ablation benches verify their outputs against the scalar
# reference internally and exit non-zero on any mismatch, so a plain
# tiny-size invocation doubles as a correctness gate for the SMEM
# search at the active dispatch level and the prefetch-pipelined k-mer
# path.
step "ablations: occ-spacing + kmer-prefetch smoke (tiny)"
./build/bench/bench_ablation_fmi_occ --size=tiny
./build/bench/bench_ablation_kmer_prefetch --size=tiny

# --------------------------------------------- chain simd ablation smoke
# Sweeps anchor density (minimizer window) and times scalar vs simd
# chaining; the binary bit-compares the chains per density and exits
# non-zero on any divergence, so this is also a correctness gate.
step "chain ablation: anchor density x engine smoke (tiny)"
./build/bench/bench_ablation_chain_simd --size=tiny

# ------------------------------------------------------ cache smoke test
step "artifact cache: build -> verify -> warm run"
GB=./build/tools/genomicsbench
CACHE=$(mktemp -d)
trap 'rm -rf "$CACHE"' EXIT

"$GB" store build --cache-dir="$CACHE" --size=tiny
"$GB" store verify --cache-dir="$CACHE"

# The tiny fmi artifact (FM-index + reads) is pinned byte for byte, so
# a faster index build cannot silently change what the cache stores.
# A deliberate format change updates this hash together with the
# "fmi/v3" cache key in src/core/kernel_fmi.cc. The pileup, kmer-cnt
# and nn-variant artifacts are pinned too: their prepares keep only
# what their kernel reads from streamed simulated reads, which must
# leave the data they cache unchanged.
sha256sum -c - <<EOF || {
f524be5a56e15c58c5ed0fbdc0b3202436e3e33ae08def7008f7168d8b559dad  $CACHE/fmi-a9448229605baf84.gbs
2628e354caef810ade8ac3ea807332f01bc2017722845c047d8eda5201e613e3  $CACHE/pileup-f0a3b757fc0d4e60.gbs
9167f88ec6022ec2c4bcc3b5e8d8f69209f96e1cd5447e756de5c17dafd5632d  $CACHE/kmer-reads-8f5c1129673be899.gbs
aea80c3320e154d76a81213732b9ab52f4e694de2bc6a5bbffa7dcfab6a8f8fd  $CACHE/nn-variant-692491d363c6ac3e.gbs
EOF
    echo "FAIL: a pinned tiny store artifact changed bytes" >&2
    exit 1
}

# `store inspect` maps the container and lists its TOC: the fmi
# artifact holds the index and the encoded reads. The read sections
# keep the xxhash64 digests they had before the fmi/v3 index format
# (that change left the reads alone). An empty file has no header and
# must be reported as truncated with a non-zero exit.
"$GB" store inspect "$CACHE/fmi-a9448229605baf84.gbs" >/tmp/gb_inspect.txt
for section in fm.meta fm.occ fm.sa reads.blob reads.offsets; do
    grep -qwF "$section" /tmp/gb_inspect.txt || {
        echo "FAIL: store inspect does not list section $section" >&2
        exit 1
    }
done
for digest in "reads.blob .* 36770260590a94 " \
              "reads.offsets .* ff111747aa5f6d02"; do
    grep -q "^$digest" /tmp/gb_inspect.txt || {
        echo "FAIL: fmi read section digest changed: $digest" >&2
        exit 1
    }
done
: >"$CACHE/empty.gbs"
if "$GB" store inspect "$CACHE/empty.gbs" >/tmp/gb_inspect.txt 2>&1; then
    echo "FAIL: store inspect accepted an empty file" >&2
    exit 1
fi
grep -q "truncated" /tmp/gb_inspect.txt || {
    echo "FAIL: store inspect did not report the empty file as truncated" >&2
    exit 1
}
rm -f "$CACHE/empty.gbs" /tmp/gb_inspect.txt

# Warm run must hit the cache for every cached kernel.
"$GB" run fmi --size=tiny --cache-dir="$CACHE" | tee /tmp/gb_warm.txt
grep -q "1 hit" /tmp/gb_warm.txt || {
    echo "FAIL: warm run did not hit the artifact cache" >&2
    exit 1
}
# The families cached through the row codec: each warm run must hit
# and count the same tasks as a run that builds its inputs (no cache).
for kernel in pileup nn-variant chain bsw nn-base; do
    "$GB" run "$kernel" --size=tiny --cache-dir="$CACHE" >/tmp/gb_warm.txt
    grep -q "1 hit" /tmp/gb_warm.txt || {
        echo "FAIL: warm $kernel run did not hit the artifact cache" >&2
        exit 1
    }
    "$GB" run "$kernel" --size=tiny >/tmp/gb_cold.txt
    # "run N: T s, K tasks (R tasks/s)": the set of K over repeats.
    warm_tasks=$(sed -nE 's/^run [0-9]+: .* s, ([0-9]+) tasks .*/\1/p' \
        /tmp/gb_warm.txt | sort -u)
    cold_tasks=$(sed -nE 's/^run [0-9]+: .* s, ([0-9]+) tasks .*/\1/p' \
        /tmp/gb_cold.txt | sort -u)
    [ -n "$warm_tasks" ] && [ "$warm_tasks" = "$cold_tasks" ] || {
        echo "FAIL: warm $kernel run counts '$warm_tasks'," \
             "cold run '$cold_tasks'" >&2
        exit 1
    }
    echo "warm $kernel run: 1 hit, $warm_tasks tasks as cold"
done
rm -f /tmp/gb_cold.txt

# Dispatch-level equivalence: GB_SIMD_LEVEL is the one scalar/SIMD
# switch of bsw, phmm, fmi, chain, spoa, nn-base, nn-variant, grm and
# abea, so
# each must, at 1 and 4 threads, emit `run` rows under GB_SIMD_LEVEL=scalar and under the
# default (detected) level with exactly the same task counters, and
# meta.simd_level must name the level that ran.
step "simd level: bsw/phmm/fmi/chain/spoa/nn-base/nn-variant/grm/abea x 1,4 threads, default-level counters match scalar"
check_counters() { # kernel threads scalar.json other.json
    python3 - "$@" <<'EOF'
import json, sys
kernel, threads = sys.argv[1], int(sys.argv[2])
flags = []
for line in open("/proc/cpuinfo"):
    if line.startswith("flags"):
        flags = line.split()
        break
detected = ("avx2" if "avx2" in flags else
            "sse4" if "sse4_2" in flags else "scalar")
def tasks(path):
    doc = json.load(open(path))
    meta = doc["meta"]
    assert meta["threads"] == threads, meta
    rows = [r for r in doc["rows"]
            if r["table"] == "run" and r["kernel"] == kernel]
    assert rows, f"{path}: no {kernel} run rows"
    return meta, sorted(r["tasks"] for r in rows)
base_meta, base = tasks(sys.argv[3])
other_meta, other = tasks(sys.argv[4])
assert (base_meta["simd_level"], other_meta["simd_level"]) == \
    ("scalar", detected), (base_meta, other_meta, detected)
assert base == other, \
    f"{kernel} threads={threads}: task counters diverge: {base} vs {other}"
print(f"level smoke ok: {kernel} threads={threads} tasks {base} "
      f"at levels scalar and {detected}")
EOF
}
for kernel in bsw phmm fmi chain spoa nn-base nn-variant grm abea; do
    for threads in 1 4; do
        GB_SIMD_LEVEL=scalar "$GB" run "$kernel" --size=tiny \
            --repeat=2 --threads="$threads" \
            --json=/tmp/gb_lvl_scalar.json >/dev/null
        env -u GB_SIMD_LEVEL "$GB" run "$kernel" --size=tiny \
            --repeat=2 --threads="$threads" \
            --json=/tmp/gb_lvl_default.json >/dev/null
        check_counters "$kernel" "$threads" \
            /tmp/gb_lvl_scalar.json /tmp/gb_lvl_default.json
    done
done
rm -f /tmp/gb_lvl_scalar.json /tmp/gb_lvl_default.json

# The example extends every read with the one-pair bsw engine, then
# re-assembles one window, scores it with PairHMM and calls variants.
# Its re-assembly window keeps the reads that hang off its edges, so
# most of its PairHMM pairs underflow the float pass and take the
# double one. Between the scalar and the default level, these must be
# the same: the aligned-read count (timing stripped), the region line,
# the phmm line (pair count, cells, log10 sum at %.17g), the
# variant-calling line, and the bytes of calls.vcf.
step "reference-guided example: alignments, region, phmm, calls and calls.vcf identical at scalar and default level"
EX_DIR=$(mktemp -d)
mkdir "$EX_DIR/scalar" "$EX_DIR/default"
(cd "$EX_DIR/scalar" && GB_SIMD_LEVEL=scalar \
    "$ROOT/build/examples/example_reference_guided_pipeline" \
    >stdout.txt)
(cd "$EX_DIR/default" && env -u GB_SIMD_LEVEL \
    "$ROOT/build/examples/example_reference_guided_pipeline" \
    >stdout.txt)
example_lines() {
    grep -E '^(aligned |region |phmm: |variant calling: )' "$1" |
        sed -E 's/^(aligned [0-9]+\/[0-9]+ reads) in .*/\1/'
}
EX_SCALAR=$(example_lines "$EX_DIR/scalar/stdout.txt")
EX_DEFAULT=$(example_lines "$EX_DIR/default/stdout.txt")
echo "scalar:"; echo "$EX_SCALAR"
echo "default:"; echo "$EX_DEFAULT"
if [[ $(echo "$EX_SCALAR" | wc -l) -ne 4 ]]; then
    echo "FAIL: the example printed no aligned/region/phmm/calls line" >&2
    exit 1
fi
if [[ "$EX_SCALAR" != "$EX_DEFAULT" ]]; then
    echo "FAIL: the example's results differ between levels" >&2
    exit 1
fi
if ! cmp "$EX_DIR/scalar/calls.vcf" "$EX_DIR/default/calls.vcf"; then
    echo "FAIL: the example's calls.vcf differs between levels" >&2
    exit 1
fi
rm -rf "$EX_DIR"

# The nanopore example aligns one 3-kb segment's events with abea: the
# abea line (score at %.9g, assignments, band cells) must be the same
# digits at the scalar and the default level.
step "nanopore example: abea line identical at scalar and default level"
ABEA_SCALAR=$(GB_SIMD_LEVEL=scalar \
    ./build/examples/example_nanopore_signal_pipeline | grep '^abea:')
ABEA_DEFAULT=$(env -u GB_SIMD_LEVEL \
    ./build/examples/example_nanopore_signal_pipeline | grep '^abea:')
echo "scalar:  $ABEA_SCALAR"
echo "default: $ABEA_DEFAULT"
if [[ "$ABEA_SCALAR" != "$ABEA_DEFAULT" ]]; then
    echo "FAIL: the example's abea line differs between levels" >&2
    exit 1
fi

# kmer-cnt splits its table into one hash partition per pool thread,
# so its thread count changes the table layout; the task counters must
# not move. 3 threads covers a partition count that is not a power of
# two.
step "kmer-cnt: 1, 3 and 4 threads report identical task counters"
for threads in 1 3 4; do
    "$GB" run kmer-cnt --size=tiny --repeat=2 --threads="$threads" \
        --json=/tmp/gb_kmer_t"$threads".json >/dev/null
done
python3 - /tmp/gb_kmer_t1.json /tmp/gb_kmer_t3.json \
    /tmp/gb_kmer_t4.json <<'EOF'
import json, sys
counters = {}
for path in sys.argv[1:]:
    doc = json.load(open(path))
    rows = [r for r in doc["rows"]
            if r["table"] == "run" and r["kernel"] == "kmer-cnt"]
    assert rows, f"{path}: no kmer-cnt run rows"
    counters[doc["meta"]["threads"]] = sorted(r["tasks"] for r in rows)
assert sorted(counters) == [1, 3, 4], counters
assert len({tuple(c) for c in counters.values()}) == 1, \
    f"kmer-cnt task counters diverge across thread counts: {counters}"
print(f"kmer-cnt thread smoke ok: tasks {counters[1]} at 1, 3 and 4 "
      "threads")
EOF
rm -f /tmp/gb_kmer_t1.json /tmp/gb_kmer_t3.json /tmp/gb_kmer_t4.json

# A flipped byte must be caught by store verify (exit 1).
victim=$(ls "$CACHE"/fmi-*.gbs | head -1)
python3 - "$victim" <<'EOF'
import sys
path = sys.argv[1]
with open(path, "r+b") as f:
    f.seek(100)
    byte = f.read(1)
    f.seek(100)
    f.write(bytes([byte[0] ^ 0x40]))
EOF
if "$GB" store verify "$victim" >/dev/null 2>&1; then
    echo "FAIL: store verify accepted a corrupted file" >&2
    exit 1
fi
echo "corruption detected as expected"

# ------------------------------------------------------ serve smoke
# Run a small job list through the gb::serve scheduler against a fresh
# cache: every job must complete, the JSON must validate, and the
# single-flight cache must have collapsed the 8 concurrent fmi
# prepares into exactly one artifact build.
step "serve: 8-job list -> scheduler -> gb-metrics-v1 + dedup check"
SERVE_CACHE=$(mktemp -d)
SERVE_JOBS=$(mktemp)
for _ in 1 2 3 4 5 6 7 8; do
    echo "fmi size=tiny threads=1" >> "$SERVE_JOBS"
done
"$GB" serve --jobs="$SERVE_JOBS" --workers=4 \
    --cache-dir="$SERVE_CACHE" --json=/tmp/gb_serve.json
python3 scripts/validate_metrics.py /tmp/gb_serve.json
python3 - /tmp/gb_serve.json <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
rows = [r for r in doc["rows"] if r["table"] == "serve_summary"]
assert len(rows) == 1, f"expected 1 serve_summary row, got {len(rows)}"
summary = rows[0]
assert summary["completed"] == 8, summary
assert summary["cache_builds"] == 1, \
    f"single-flight violated: {summary['cache_builds']} builds"
jobs = [r for r in doc["rows"] if r["table"] == "serve_job"]
assert len(jobs) == 8 and all(j["status"] == "done" for j in jobs)
print("serve smoke ok: 8/8 jobs done, 1 artifact build")
EOF
rm -rf "$SERVE_CACHE" "$SERVE_JOBS"

# The same single-flight guard on a row-codec family: 8 concurrent
# pileup prepares against a fresh cache make exactly one build.
step "serve: 8 concurrent pileup jobs -> one artifact build"
SERVE_CACHE=$(mktemp -d)
SERVE_JOBS=$(mktemp)
for _ in 1 2 3 4 5 6 7 8; do
    echo "pileup size=tiny threads=1" >> "$SERVE_JOBS"
done
"$GB" serve --jobs="$SERVE_JOBS" --workers=8 \
    --cache-dir="$SERVE_CACHE" --json=/tmp/gb_serve.json
python3 scripts/validate_metrics.py /tmp/gb_serve.json
python3 - /tmp/gb_serve.json <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
summary = [r for r in doc["rows"] if r["table"] == "serve_summary"][0]
assert summary["completed"] == 8, summary
assert summary["cache_builds"] == 1, \
    f"single-flight violated: {summary['cache_builds']} builds"
assert summary["prepare_worker_seconds"] > 0, summary
assert summary["run_worker_seconds"] > 0, summary
print("pileup serve smoke ok: 8/8 jobs done, 1 artifact build")
EOF
rm -rf "$SERVE_CACHE" "$SERVE_JOBS"

# ------------------------------------------------ network serve smoke
# Start `serve --listen` on an ephemeral loopback port, drive a mixed-
# priority 8-job list through the `client` subcommand (DRAIN at the
# end shuts the server down), then assert from the server's JSON that
# (a) all jobs completed with one artifact build and (b) the dispatch
# order respected the priority classes: job 1 (high, repeats=40) pins
# the single worker while the other 7 queue, so every later dispatch
# must come out high -> normal -> batch regardless of submission
# order.
step "net: serve --listen + client over 127.0.0.1, priority order"
NET_CACHE=$(mktemp -d)
NET_JOBS=$(mktemp)
NET_LOG=$(mktemp)
{
    echo "fmi size=tiny threads=1 repeats=40 priority=high"
    echo "fmi size=tiny threads=1 priority=batch"
    echo "fmi size=tiny threads=1 priority=normal"
    echo "fmi size=tiny threads=1 priority=high"
    echo "fmi size=tiny threads=1 priority=batch"
    echo "fmi size=tiny threads=1 priority=normal"
    echo "fmi size=tiny threads=1 priority=high"
    echo "fmi size=tiny threads=1 priority=batch"
} > "$NET_JOBS"
"$GB" serve --listen=127.0.0.1:0 --workers=1 \
    --cache-dir="$NET_CACHE" --json=/tmp/gb_net_serve.json \
    --trace=/tmp/gb_trace.json \
    > "$NET_LOG" 2>&1 &
NET_PID=$!
NET_PORT=
for _ in $(seq 1 100); do
    NET_PORT=$(sed -n 's/^serving on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
        "$NET_LOG")
    [[ -n "$NET_PORT" ]] && break
    sleep 0.1
done
if [[ -z "$NET_PORT" ]]; then
    echo "FAIL: serve --listen did not come up" >&2
    cat "$NET_LOG" >&2
    kill "$NET_PID" 2>/dev/null || true
    exit 1
fi
"$GB" client --connect=127.0.0.1:"$NET_PORT" --jobs="$NET_JOBS" --drain
wait "$NET_PID"
python3 scripts/validate_metrics.py /tmp/gb_net_serve.json
python3 - /tmp/gb_net_serve.json <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
summary = [r for r in doc["rows"] if r["table"] == "serve_summary"][0]
assert summary["completed"] == 8, summary
assert summary["cache_builds"] == 1, \
    f"single-flight violated: {summary['cache_builds']} builds"
jobs = [r for r in doc["rows"] if r["table"] == "serve_job"]
assert len(jobs) == 8 and all(j["status"] == "done" for j in jobs)
seqs = sorted(j["dispatch_seq"] for j in jobs)
assert seqs == list(range(1, 9)), f"bad dispatch seqs: {seqs}"
# Strict class order for everything queued behind the first dispatch.
rank = {"high": 0, "normal": 1, "batch": 2}
ordered = sorted(jobs, key=lambda j: j["dispatch_seq"])[1:]
classes = [rank[j["priority"]] for j in ordered]
assert classes == sorted(classes), \
    f"priority order violated: {[j['priority'] for j in ordered]}"
print("net smoke ok: 8/8 jobs done over TCP, 1 build, "
      f"dispatch classes {classes}")
EOF
rm -rf "$NET_CACHE" "$NET_JOBS" "$NET_LOG"

# ------------------------------------------------------- trace smoke
# The net smoke above ran with --trace, so its timeline exercises every
# instrumented layer at once: scheduler lifecycle (serve), single-
# flight prepare (cache), TCP sessions (net), worker participation
# (pool) and kernel phases (kernel). Validate the Perfetto JSON
# end-to-end and assert the serve_summary latency percentiles are
# populated; scripts/trace_inspect.py must digest the same file.
step "trace: Perfetto JSON covers all layers, latency columns non-zero"
python3 - /tmp/gb_trace.json /tmp/gb_net_serve.json <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
events = doc["traceEvents"]
other = doc["otherData"]
assert other["dropped_events"] == 0, f"dropped events: {other}"
# Exiting threads hand their rings on, so the 8 jobs' runner threads
# (one worker: at most two alive at once) cannot leave a ring each.
assert other["rings"] < 8, f"a ring per job thread: {other}"
spans = [e for e in events if e.get("ph") == "X"]
instants = [e for e in events if e.get("ph") == "i"]
assert spans and instants, f"empty trace: {other}"
for e in spans:
    assert e["dur"] >= 0, f"negative span duration: {e}"
cats = {e["cat"] for e in spans} | {e["cat"] for e in instants}
for cat in ("serve", "cache", "net", "pool", "kernel"):
    assert cat in cats, f"no {cat} events in trace, got {sorted(cats)}"
# Every admitted job has submit -> terminal coverage.
def jobs_with(name):
    return {e["args"]["job"] for e in instants if e["name"] == name}
submits = jobs_with("job:submit")
dones = jobs_with("job:done")
assert submits == set(range(1, 9)), f"submit coverage: {sorted(submits)}"
assert dones == submits, \
    f"done coverage: {sorted(dones)} vs {sorted(submits)}"
summary = [r for r in json.load(open(sys.argv[2]))["rows"]
           if r["table"] == "serve_summary"][0]
for key in ("queue_wait_p50_ms", "queue_wait_p95_ms",
            "queue_wait_p99_ms", "e2e_p50_ms", "e2e_p95_ms",
            "e2e_p99_ms"):
    assert summary[key] > 0, f"{key} not populated: {summary.get(key)}"
print(f"trace smoke ok: {len(spans)} spans + {len(instants)} instants, "
      "0 dropped, all 5 layers covered, latency columns non-zero")
EOF
python3 scripts/trace_inspect.py /tmp/gb_trace.json --top 5
rm -f /tmp/gb_trace.json

# The summary's arithmetic on a hand-built four-event trace (two `a`
# kernel spans, one `b` serve span, one instant), and a truncated file
# rejected with an error instead of a traceback.
step "trace: trace_inspect.py aggregates a fixture, rejects bad JSON"
python3 - <<'EOF'
import json, subprocess, sys, tempfile
def span(name, cat, ts, dur):
    return {"name": name, "cat": cat, "ph": "X", "ts": ts, "dur": dur,
            "pid": 1, "tid": 0, "args": {"job": 0, "arg": 0, "rank": 0}}
doc = {"traceEvents": [span("a", "kernel", 0, 10),
                       span("a", "kernel", 50, 20),
                       span("b", "serve", 5, 5),
                       {"name": "tick", "cat": "net", "ph": "i", "ts": 1,
                        "s": "t", "pid": 1, "tid": 0}],
       "otherData": {"rings": 2, "recorded_events": 4,
                     "dropped_events": 0}}
def inspect(text, *flags):
    with tempfile.NamedTemporaryFile("w", suffix=".json") as f:
        f.write(text)
        f.flush()
        return subprocess.run([sys.executable, "scripts/trace_inspect.py",
                               f.name, *flags], capture_output=True,
                              text=True)
run = inspect(json.dumps(doc), "--top", "2")
assert run.returncode == 0, run.stderr
out = run.stdout
assert "3 spans, 1 instants" in out, out
assert "extent:   0.070 ms" in out, out
names = out.split("== Per-name span totals ==")[1].splitlines()
first = [c.strip() for c in names[4].split("|")]
assert first[0] == "a" and first[2] == "2" and first[3] == "0.030", first
longest = out.split("== Top 2 longest spans ==")[1].splitlines()[4:-1]
assert len(longest) == 2, longest
bad = inspect(json.dumps(doc)[:40])
assert bad.returncode != 0 and bad.stderr.startswith("error:"), bad
print("trace_inspect ok: fixture totals match, truncated file rejected")
EOF

# ------------------------------------------------------ run rows smoke
# `run` reports what core/measure recorded: one `run` row per repeat
# and one `run_best` row whose seconds is the minimum of those rows.
step "genomicsbench run: 3 repeats -> 3 run rows + run_best = min"
"$GB" run pileup --size=tiny --repeat=3 --json=/tmp/gb_run.json >/dev/null
python3 - /tmp/gb_run.json <<'EOF'
import json, sys
rows = json.load(open(sys.argv[1]))["rows"]
runs = [r for r in rows if r["table"] == "run"]
best = [r for r in rows if r["table"] == "run_best"]
assert len(runs) == 3, f"expected 3 run rows, got {len(runs)}"
assert len(best) == 1, f"expected 1 run_best row, got {len(best)}"
fastest = min(r["seconds"] for r in runs)
assert best[0]["seconds"] == fastest, \
    f"run_best {best[0]['seconds']} != min of run rows {fastest}"
rss = best[0].get("peak_rss_mb")
assert isinstance(rss, (int, float)) and rss > 0, \
    f"run_best peak_rss_mb is {rss!r}"
print(f"run rows ok: 3 repeats, best {fastest} s, peak RSS {rss:.1f} MiB")
EOF
rm -f /tmp/gb_run.json

# ------------------------------------------------- CLI error handling
# A near-miss flag exits 2 and names the flag it was probably meant
# to be, in the bench harness and in the genomicsbench CLI alike.
step "bench + genomicsbench CLI: unknown flags are rejected"
for cmd in "./build/bench/bench_table2_overview --thread=8" \
           "$GB run pileup --size=tiny --thread=2"; do
    set +e
    $cmd >/dev/null 2>/tmp/gb_flag.txt
    status=$?
    set -e
    if [[ $status -ne 2 ]] || \
       ! grep -q "did you mean --threads" /tmp/gb_flag.txt; then
        echo "FAIL: $cmd was not rejected with a suggestion" >&2
        cat /tmp/gb_flag.txt >&2
        exit 1
    fi
    echo "bad flag rejected with: $(head -1 /tmp/gb_flag.txt)"
done

# A misspelled --kernels name exits 2 with a suggestion instead of
# aborting the bench binary when it reaches that kernel.
set +e
./build/bench/bench_table2_overview --kernels=fmii >/dev/null \
    2>/tmp/gb_flag.txt
status=$?
set -e
if [[ $status -ne 2 ]] || ! grep -q "did you mean fmi?" /tmp/gb_flag.txt; then
    echo "FAIL: --kernels=fmii was not rejected with a suggestion" >&2
    cat /tmp/gb_flag.txt >&2
    exit 1
fi
echo "bad kernel rejected with: $(head -1 /tmp/gb_flag.txt)"

# --engine is not a flag (every kernel has one run path): it exits 2
# as an unknown option in the bench harness and the CLI alike.
for cmd in "./build/bench/bench_table2_overview --engine=simd" \
           "$GB run kmer-cnt --size=tiny --engine=simd"; do
    set +e
    $cmd >/dev/null 2>/tmp/gb_flag.txt
    status=$?
    set -e
    if [[ $status -ne 2 ]] || \
       ! grep -q "unknown option: --engine=simd" /tmp/gb_flag.txt; then
        echo "FAIL: $cmd was not rejected as an unknown option" >&2
        cat /tmp/gb_flag.txt >&2
        exit 1
    fi
    echo "unknown flag rejected with: $(head -1 /tmp/gb_flag.txt)"
done

# A known flag that the subcommand does not take exits 2 and names the
# subcommand, instead of being silently ignored.
for cmd in "characterize pileup --size=tiny --threads=4" \
           "run pileup --size=tiny --workers=3"; do
    set +e
    $GB $cmd >/dev/null 2>/tmp/gb_flag.txt
    status=$?
    set -e
    sub=${cmd%% *}
    if [[ $status -ne 2 ]] || \
       ! grep -q "error: $sub does not accept" /tmp/gb_flag.txt; then
        echo "FAIL: $cmd was not rejected for its subcommand" >&2
        cat /tmp/gb_flag.txt >&2
        exit 1
    fi
    echo "flag rejected with: $(head -1 /tmp/gb_flag.txt)"
done

# GB_SIMD_LEVEL is the scalar/SIMD switch: a mistyped level exits 2
# instead of silently running (and recording) the detected best level.
set +e
GB_SIMD_LEVEL=scaler "$GB" run pileup --size=tiny >/dev/null \
    2>/tmp/gb_flag.txt
status=$?
set -e
if [[ $status -ne 2 ]] || ! grep -q "scalar|sse4|avx2" /tmp/gb_flag.txt; then
    echo "FAIL: GB_SIMD_LEVEL=scaler was not rejected with exit 2" >&2
    cat /tmp/gb_flag.txt >&2
    exit 1
fi
echo "bad level rejected with: $(head -1 /tmp/gb_flag.txt)"

# Numeric flags parse whole strings within range: a zero repeat count,
# a negative or over-cap thread count and trailing garbage all exit
# non-zero with a message instead of wrapping or truncating. Path flags
# with an empty value are rejected instead of silently dropping the
# JSON or running uncached.
step "genomicsbench CLI: malformed numeric and empty path flags rejected"
for flag in "--repeat=0" "--threads=-1" "--threads=2x" \
            "--threads=100000" "--json=" "--cache-dir="; do
    set +e
    "$GB" run pileup --size=tiny "$flag" >/dev/null 2>/tmp/gb_flag.txt
    status=$?
    set -e
    if [[ $status -eq 0 ]] || ! grep -q "error:" /tmp/gb_flag.txt; then
        echo "FAIL: run pileup $flag was not rejected" >&2
        cat /tmp/gb_flag.txt >&2
        exit 1
    fi
    echo "$flag -> $(head -1 /tmp/gb_flag.txt)"
done

# Durations parse the whole string too: trailing garbage, nan/inf and
# negative values are rejected before any connection is attempted.
for flag in "--wait-timeout=5x" "--wait-timeout=nan" \
            "--wait-timeout=-1"; do
    set +e
    "$GB" client --connect=127.0.0.1:1 --jobs=/dev/null "$flag" \
        >/dev/null 2>/tmp/gb_flag.txt
    status=$?
    set -e
    if [[ $status -eq 0 ]] || ! grep -q "error:" /tmp/gb_flag.txt; then
        echo "FAIL: client $flag was not rejected" >&2
        cat /tmp/gb_flag.txt >&2
        exit 1
    fi
    echo "$flag -> $(head -1 /tmp/gb_flag.txt)"
done

step "all checks passed"
