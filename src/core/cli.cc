#include "core/cli.h"

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <sstream>

#include "simd/simd.h"
#include "store/cache.h"
#include "util/thread_pool.h"

namespace gb::cli {

namespace {

/**
 * One flag, named once with its value check: `apply` parses and stores
 * a value, `path` takes a path that may not be empty, `on` is a switch
 * spelled without a value.
 */
struct Flag
{
    std::string_view name;
    void (*apply)(Options&, const std::string&) = nullptr;
    std::string Options::*path = nullptr;
    bool Options::*on = nullptr;
};

const Flag kFlags[] = {
    {"--size", [](Options& o, const std::string& v) {
         o.size = parseDatasetSize(v);
     }},
    {"--threads", [](Options& o, const std::string& v) {
         o.threads = parseUnsigned("--threads", v, 0, kMaxThreads);
     }},
    {"--repeat", [](Options& o, const std::string& v) {
         o.repeat = parseUnsigned("--repeat", v, 1);
     }},
    {"--kernels", [](Options& o, const std::string& v) {
         const std::vector<std::string> known = kernelNames();
         std::istringstream list(v);
         for (std::string name; std::getline(list, name, ',');) {
             if (name.empty()) continue;
             requireKnownName("--kernels: unknown kernel", name, known);
             o.kernels.push_back(name);
         }
     }},
    {"--listen", [](Options& o, const std::string& v) {
         o.listen = parseHostPort(v);
     }},
    {"--connect", [](Options& o, const std::string& v) {
         o.connect = parseHostPort(v);
     }},
    {"--workers", [](Options& o, const std::string& v) {
         o.workers = parseUnsigned("--workers", v, 0, kMaxThreads);
     }},
    {"--queue-depth", [](Options& o, const std::string& v) {
         o.queue_depth = parseUnsigned("--queue-depth", v);
     }},
    {"--wait-timeout", [](Options& o, const std::string& v) {
         o.wait_timeout = parseSeconds("--wait-timeout", v, kMaxWaitSeconds);
     }},
    {.name = "--cache-dir", .path = &Options::cache_dir},
    {.name = "--json", .path = &Options::json_path},
    {.name = "--trace", .path = &Options::trace_path},
    {.name = "--jobs", .path = &Options::jobs_path},
    {.name = "--drain", .on = &Options::drain},
    {.name = "--help", .on = &Options::help},
};

constexpr const char* kBenchUsage =
    "usage: bench_* [options]\n"
    "  --size=tiny|small|large  dataset preset\n"
    "  --threads=N              worker threads for timed runs\n"
    "  --kernels=a,b,c          restrict to a kernel subset\n"
    "  --cache-dir=DIR          gb::store artifact cache\n"
    "  --json=FILE              write gb-metrics-v1 JSON "
    "(docs/metrics.md)\n"
    "  --help, -h               this text\n"
    "GB_SIMD_LEVEL=scalar|sse4|avx2 in the environment selects the\n"
    "dispatch level (docs/simd.md)\n";

const std::vector<Command> kCommands = {
    {"list", "", {}, "genomicsbench list"},
    {"info", "<kernel>", {}, "genomicsbench info <kernel>"},
    {"run", "<kernel>",
     {"--size", "--threads", "--repeat", "--cache-dir", "--json",
      "--trace"},
     "genomicsbench run <kernel> [--size=tiny|small|large] [--threads=N]"
     " [--repeat=R] [--cache-dir=DIR] [--json=FILE] [--trace=FILE]"},
    {"characterize", "<kernel>",
     {"--size", "--cache-dir", "--json"},
     "genomicsbench characterize <kernel> [--size=tiny|small|large]"
     " [--cache-dir=DIR] [--json=FILE]"},
    {"store build", "",
     {"--cache-dir", "--size", "--kernels"},
     "genomicsbench store build --cache-dir=DIR [--size=S]"
     " [--kernels=a,b,c]",
     [](const Options& o) {
         requireInput(!o.cache_dir.empty(),
                      "store build requires --cache-dir=DIR");
     }},
    {"store inspect", "<file.gbs>", {},
     "genomicsbench store inspect <file.gbs>"},
    {"store verify", "<file.gbs>...", {"--cache-dir"},
     "genomicsbench store verify <file.gbs>... | --cache-dir=DIR",
     [](const Options& o) {
         requireInput(!o.operands.empty() || !o.cache_dir.empty(),
                      "store verify needs <file.gbs>... or "
                      "--cache-dir=DIR");
     }},
    {"serve", "",
     {"--jobs", "--listen", "--workers", "--queue-depth", "--cache-dir",
      "--json", "--trace"},
     "genomicsbench serve --jobs=FILE | --listen=HOST:PORT [--workers=N]"
     " [--queue-depth=K] [--cache-dir=DIR] [--json=FILE] [--trace=FILE]",
     [](const Options& o) {
         requireInput(!o.jobs_path.empty() || !o.listen.host.empty(),
                      "serve requires --jobs=FILE or --listen=HOST:PORT");
         requireInput(o.jobs_path.empty() || o.listen.host.empty(),
                      "serve takes --jobs=FILE or --listen=HOST:PORT, "
                      "not both");
     }},
    {"client", "",
     {"--connect", "--jobs", "--wait-timeout", "--drain"},
     "genomicsbench client --connect=HOST:PORT --jobs=FILE"
     " [--wait-timeout=S] [--drain]",
     [](const Options& o) {
         requireInput(!o.connect.host.empty() && !o.jobs_path.empty(),
                      "client requires --connect=HOST:PORT and "
                      "--jobs=FILE");
     }},
    {"bench", "",
     {"--size", "--threads", "--kernels", "--cache-dir", "--json",
      "--help"},
     kBenchUsage},
};

/** A flag argument; everything else is an operand. */
bool
isFlag(const std::string& arg)
{
    return arg.rfind("--", 0) == 0 || arg == "-h";
}

/** The CLI's usage: one line per command. */
std::string
cliUsage()
{
    std::string text = "usage:\n";
    for (const Command& command : kCommands) {
        if (command.name != "bench") text += "  " + command.usage + '\n';
    }
    return text + "the scalar/SIMD switch of every kernel is"
                  " GB_SIMD_LEVEL=scalar|sse4|avx2\n";
}

/**
 * The command `front` runs. The CLI names it in args[0] (plus, for
 * store, the first later argument that is not a flag), which are
 * removed from `args`.
 */
const Command&
findCommand(FrontEnd front, std::vector<std::string>& args)
{
    std::string name = "bench";
    if (front == FrontEnd::kCli) {
        requireInput(!args.empty(), "no command given");
        name = args.front();
        args.erase(args.begin());
        if (name == "store") {
            const auto sub = std::find_if_not(args.begin(), args.end(),
                                              isFlag);
            requireInput(sub != args.end(),
                         "store expects build, inspect or verify");
            name += ' ' + *sub;
            args.erase(sub);
        }
    }
    std::vector<std::string> known;
    for (const Command& command : kCommands) {
        if ((command.name == "bench") == (front == FrontEnd::kBench)) {
            known.push_back(command.name);
        }
    }
    requireKnownName("unknown command", name, known);
    return *std::find_if(kCommands.begin(), kCommands.end(),
                         [&](const Command& c) { return c.name == name; });
}

} // namespace

const std::vector<Command>&
commands()
{
    return kCommands;
}

std::vector<std::string>
Options::kernelList() const
{
    return kernels.empty() ? kernelNames() : kernels;
}

Options
parse(FrontEnd front, int argc, char** argv, DatasetSize default_size)
{
    std::vector<std::string> args(argv + std::min(argc, 1), argv + argc);
    const Command& command = findCommand(front, args);
    Options opt;
    opt.command = command.name;
    opt.size = default_size;
    for (const std::string& arg : args) {
        if (!isFlag(arg)) {
            opt.operands.push_back(arg);
            continue;
        }
        const size_t eq = arg.find('=');
        const std::string name = arg == "-h" ? "--help" : arg.substr(0, eq);
        const auto* flag = std::find_if(
            std::begin(kFlags), std::end(kFlags),
            [&](const Flag& f) { return f.name == name; });
        if (flag == std::end(kFlags)) {
            throw InputError(unknownOption(arg, command.flags));
        }
        requireInput(std::find(command.flags.begin(), command.flags.end(),
                               name) != command.flags.end(),
                     command.name + " does not accept " + name);
        if (flag->on) {
            requireInput(eq == std::string::npos, name + " takes no value");
            opt.*flag->on = true;
            if (opt.help) return opt; // help wins over later arguments
            continue;
        }
        requireInput(eq != std::string::npos,
                     name + " expects " + name + "=VALUE");
        const std::string value = arg.substr(eq + 1);
        if (flag->path) {
            requireInput(!value.empty(), name + " expects a path");
            opt.*flag->path = value;
        } else {
            flag->apply(opt, value);
        }
    }

    // operand is "" (none), "<x>" (exactly one) or "<x>..." (any).
    const std::string& operand = command.operand;
    const size_t max = operand.empty()             ? 0
                       : operand.ends_with("...") ? opt.operands.size()
                                                   : 1;
    if (opt.operands.size() > max) {
        throw InputError("unexpected argument: " + opt.operands[max]);
    }
    requireInput(max != 1 || !opt.operands.empty(),
                 command.name + " expects " + operand);
    if (operand == "<kernel>") {
        requireKnownName("unknown kernel", opt.operands.front(),
                         kernelNames());
    }
    if (command.check) command.check(opt);
    return opt;
}

Options
parseOrExit(FrontEnd front, int argc, char** argv, DatasetSize default_size)
{
    try {
        Options opt = parse(front, argc, argv, default_size);
        if (opt.help) {
            std::cout << kBenchUsage;
            std::exit(0);
        }
        simd::activeSimdLevel(); // reject a mistyped GB_SIMD_LEVEL
        if (!opt.cache_dir.empty()) store::setCacheDir(opt.cache_dir);
        return opt;
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << '\n'
                  << (front == FrontEnd::kBench
                          ? "run with --help for usage\n"
                          : cliUsage());
        std::exit(2);
    }
}

metrics::MetricsSink&
metricsSink()
{
    static metrics::MetricsSink sink;
    return sink;
}

void
openMetrics(const Options& options, std::string experiment,
            std::string paper_ref)
{
    if (options.json_path.empty() || metricsSink().enabled()) return;
    metrics::RunMeta meta;
    meta.experiment = std::move(experiment);
    meta.paper_ref = std::move(paper_ref);
    meta.size = datasetSizeName(options.size);
    meta.threads = options.threads;
    meta.simd_level = simd::simdLevelName(simd::activeSimdLevel());
    metricsSink().open(options.json_path, std::move(meta));
}

void
report(const Table& table)
{
    table.print(std::cout);
    metrics::emitTable(metricsSink(), table);
}

} // namespace gb::cli
