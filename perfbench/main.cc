/**
 * @file
 * perfbench: the suite benchmark binary.
 *
 *   perfbench --workload small|tiny --seed N --seconds S --trace 0|1
 *             [--cache-dir DIR] [--trace-file FILE]
 *
 * One process runs one workload: set-up three times (setup_s is the
 * median), one warm-up call of each phase, then calls of the three
 * phases (a pass over the 12 kernels, a reference-guided pass, a serve
 * batch) until S seconds have passed, all on nproc threads. The
 * workload names the kernels' dataset size.
 *
 * With --trace 1 every other set-up and phase call records spans
 * around the layer calls; per-layer metrics come from those, and
 * trace_overhead compares traced with untraced calls. The last stdout
 * line is a JSON run record; run.py turns it into the benchmark's
 * result line.
 */
#include <sched.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <string>

#include "measure.h"
#include "phases.h"
#include "simd/simd.h"
#include "util/thread_pool.h"

namespace {

using namespace perfbench;

constexpr unsigned kSetupReps = 3;

struct Args
{
    std::string workload;
    u64 seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string cache_dir = ".bench_build/serve-cache";
    std::string trace_file;
};

[[noreturn]] void
usage(const std::string& error)
{
    std::cerr << "error: " << error
              << "\nusage: perfbench --workload small|tiny --seed N "
                 "--seconds S --trace 0|1 [--cache-dir DIR] "
                 "[--trace-file FILE]\n";
    std::exit(2);
}

Args
parseArgs(int argc, char** argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) usage("missing value for " + flag);
        const std::string value = argv[++i];
        try {
            if (flag == "--workload") {
                a.workload = value;
            } else if (flag == "--seed") {
                a.seed = std::stoull(value);
            } else if (flag == "--seconds") {
                a.seconds = std::stod(value);
            } else if (flag == "--trace") {
                if (value != "0" && value != "1") usage("--trace is 0 or 1");
                a.trace = value == "1";
            } else if (flag == "--cache-dir") {
                a.cache_dir = value;
            } else if (flag == "--trace-file") {
                a.trace_file = value;
            } else {
                usage("unknown flag " + flag);
            }
        } catch (const std::logic_error&) {
            usage("bad value for " + flag + ": " + value);
        }
    }
    if (a.workload != "small" && a.workload != "tiny") {
        usage("unknown workload '" + a.workload + "'");
    }
    if (!(a.seconds > 0.0)) usage("--seconds must be positive");
    return a;
}

/** CPUs this process may run on (what `nproc` prints). */
unsigned
affinityCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
    return std::max(1, CPU_COUNT(&set));
}

int
run(const Args& a)
{
    const unsigned nproc = affinityCpus();
    const unsigned threads = nproc;
    gb::ThreadPool pool(threads);
    KernelSuite suite(pool, gb::parseDatasetSize(a.workload), a.seed);
    RefGuided ref(pool, a.seed);
    ServeBatch serve(threads, nproc, a.seed, a.cache_dir);
    Checks checks;
    PeakRss rss;

    std::vector<double> setup_s;
    for (unsigned rep = 0; rep < kSetupReps; ++rep) {
        const bool traced = a.trace && rep % 2 == 1;
        spans::setEnabled(traced);
        const u64 t0 = nowNs();
        suite.setup();
        ref.setup(traced);
        serve.setup(rep);
        if (!traced) setup_s.push_back(secondsSince(t0));
        spans::setEnabled(false);
        spans::keep(spans::take());
    }

    suite.warmUp(checks);
    ref.warmUp(checks);
    serve.warmUp(checks);

    // Each phase gets a share of the timed budget, and the next call
    // goes to the phase furthest below its share: short calls repeat
    // often, and a 2-s pipeline pass does not crowd out the serve
    // batches. Traced runs alternate untraced and traced calls of each
    // phase and make at least one of each.
    struct Phase
    {
        const char* name;
        double share;
        std::function<void(bool)> call;
        double spent_s = 0.0;
        unsigned calls = 0;
        std::vector<double> wall_s[2]; ///< [traced]
    };
    Phase phases[] = {
        {"kernels", 0.4, [&](bool t) { suite.pass(checks, rss, t); }, 0.0, 0,
         {}},
        {"pipeline", 0.3, [&](bool t) { ref.pass(checks, t); }, 0.0, 0, {}},
        {"serve", 0.3, [&](bool t) { serve.batch(checks, t); }, 0.0, 0, {}},
    };
    const unsigned min_calls = a.trace ? 2 : 1;
    const u64 start = nowNs();
    for (;;) {
        Phase* next = nullptr;
        for (Phase& p : phases) {
            if (p.calls < min_calls) {
                next = &p;
                break;
            }
        }
        if (!next) {
            if (secondsSince(start) >= a.seconds) break;
            next = &*std::min_element(
                std::begin(phases), std::end(phases),
                [](const Phase& x, const Phase& y) {
                    return x.spent_s / x.share < y.spent_s / y.share;
                });
        }
        const bool traced = a.trace && next->calls % 2 == 1;
        spans::setEnabled(traced);
        const u64 t0 = nowNs();
        next->call(traced);
        const double dt = secondsSince(t0);
        spans::setEnabled(false);
        next->spent_s += dt;
        next->wall_s[traced].push_back(dt);
        ++next->calls;
    }

    Report e2e, layers, extras;
    suite.report(e2e, layers, extras);
    ref.report(e2e, layers);
    serve.report(e2e, layers);
    e2e.set("setup_s", median(setup_s), "s");
    e2e.set("peak_rss_mb", rss.processMb(), "MiB");
    double untraced_s = 0.0, traced_s = 0.0;
    for (const Phase& p : phases) {
        untraced_s += median(p.wall_s[0]);
        traced_s += median(p.wall_s[1]);
        extras.set(std::string("calls.") + p.name, p.calls, "count");
    }
    layers.set("trace_overhead",
               a.trace ? 100.0 * (traced_s / untraced_s - 1.0) : 0.0, "%");
    extras.set("timed_s", secondsSince(start), "s");
    if (a.trace && !a.trace_file.empty()) {
        spans::writeChromeTrace(a.trace_file);
    }

    const bool correct = checks.failed == 0 && checks.attempted > 0;
    std::cout << "workload " << a.workload << ", " << threads
              << " thread(s), seed " << a.seed << ", "
              << checks.attempted << " checked operations, "
              << checks.failed << " failed\n";
    std::cout << "{\"workload\": \"" << a.workload << "\", \"seed\": "
              << a.seed << ", \"trace\": " << (a.trace ? 1 : 0)
              << ", \"threads\": " << threads << ", \"nproc\": " << nproc
              << ", \"simd_level\": \""
              << gb::simd::simdLevelName(gb::simd::activeSimdLevel())
              << "\", \"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << checks.attempted
              << ", \"failed\": " << checks.failed
              << ", \"end_to_end\": " << e2e.json()
              << ", \"per_layer\": " << layers.json()
              << ", \"extras\": " << extras.json() << "}" << std::endl;
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    const Args args = parseArgs(argc, argv);
    try {
        return run(args);
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << e.what() << '\n';
        return 1;
    }
}
