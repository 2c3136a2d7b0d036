#include "measure.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>

namespace perfbench {

std::string
Report::json() const
{
    std::ostringstream out;
    out.precision(10);
    out << '{';
    bool first = true;
    for (const auto& [name, metric] : metrics_) {
        if (!first) out << ", ";
        first = false;
        // A metric that could not be measured is a number of 0, never
        // NaN or inf, which JSON cannot carry.
        const double v = std::isfinite(metric.value) ? metric.value : 0.0;
        out << '"' << name << "\": {\"value\": " << v << ", \"unit\": \""
            << metric.unit << "\"}";
    }
    out << '}';
    return out.str();
}

void
Checks::expect(bool ok, const std::string& what)
{
    ++attempted;
    if (ok) return;
    if (failed++ < 10) std::cerr << "check failed: " << what << '\n';
}

Usage
Usage::now()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    Usage u;
    u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
              1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                         ru.ru_stime.tv_usec);
    u.minflt = static_cast<u64>(ru.ru_minflt);
    u.nvcsw = static_cast<u64>(ru.ru_nvcsw);
    u.nivcsw = static_cast<u64>(ru.ru_nivcsw);
    return u;
}

namespace {

/** VmHWM from /proc/self/status in MiB; 0 when unreadable. */
double
readVmHwmMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::stod(line.substr(6)) / 1024.0; // kB
        }
    }
    return 0.0;
}

} // namespace

bool
PeakRss::reset()
{
    process_mb_ = std::max(process_mb_, readVmHwmMb());
    std::ofstream clear("/proc/self/clear_refs");
    clear << "5";
    clear.flush();
    return static_cast<bool>(clear);
}

double
PeakRss::sinceResetMb()
{
    const double mb = readVmHwmMb();
    process_mb_ = std::max(process_mb_, mb);
    return mb;
}

double
PeakRss::processMb()
{
    sinceResetMb();
    return process_mb_;
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (pos - static_cast<double>(lo)) *
                            (values[hi] - values[lo]);
}

u64
nowNs()
{
    return static_cast<u64>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

double
secondsSince(u64 start_ns)
{
    return 1e-9 * static_cast<double>(nowNs() - start_ns);
}

namespace spans {

namespace {

std::atomic<bool> g_enabled{false};

/**
 * One thread's spans. Only the owning thread appends; take() reads
 * while recorders are quiescent. `child_ns[d]` sums the durations of
 * finished spans at depth d whose parent is still open.
 */
struct ThreadLog
{
    unsigned thread = 0;
    unsigned depth = 0;
    std::vector<u64> child_ns;
    std::vector<Record> records;
};

struct Registry
{
    std::mutex mutex;
    std::vector<std::unique_ptr<ThreadLog>> logs;
    std::vector<Record> kept; ///< for the Chrome trace file
};

Registry&
registry()
{
    static Registry r;
    return r;
}

ThreadLog&
threadLog()
{
    thread_local ThreadLog* log = [] {
        Registry& r = registry();
        std::lock_guard<std::mutex> lock(r.mutex);
        r.logs.push_back(std::make_unique<ThreadLog>());
        r.logs.back()->thread = static_cast<unsigned>(r.logs.size());
        return r.logs.back().get();
    }();
    return *log;
}

} // namespace

void
setEnabled(bool on)
{
    g_enabled.store(on, std::memory_order_relaxed);
}

bool
enabled()
{
    return g_enabled.load(std::memory_order_relaxed);
}

Scope::Scope(const char* name)
{
    if (!enabled()) return;
    ThreadLog& log = threadLog();
    if (log.child_ns.size() < log.depth + 2) {
        log.child_ns.resize(log.depth + 2, 0);
    }
    ++log.depth;
    name_ = name;
    begin_ns_ = nowNs();
}

Scope::~Scope()
{
    if (!name_) return;
    const u64 end_ns = nowNs();
    ThreadLog& log = threadLog();
    const unsigned depth = --log.depth;
    const u64 dur = end_ns - begin_ns_;
    const u64 nested = log.child_ns[depth + 1];
    log.child_ns[depth + 1] = 0;
    log.child_ns[depth] += dur;
    log.records.push_back({name_, begin_ns_, end_ns,
                           dur > nested ? dur - nested : 0, log.thread,
                           depth});
}

std::vector<Record>
take()
{
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    std::vector<Record> out;
    for (auto& log : r.logs) {
        out.insert(out.end(), log->records.begin(), log->records.end());
        log->records.clear();
    }
    return out;
}

std::map<std::string, double>
selfSecondsByName(const std::vector<Record>& records)
{
    std::map<std::string, double> out;
    for (const Record& rec : records) {
        out[rec.name] += 1e-9 * static_cast<double>(rec.self_ns);
    }
    return out;
}

void
keep(std::vector<Record> records)
{
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    r.kept.insert(r.kept.end(), records.begin(), records.end());
}

void
writeChromeTrace(const std::string& path)
{
    const std::vector<Record>& records = registry().kept;
    std::ofstream out(path);
    out << "{\"traceEvents\": [\n";
    u64 epoch = ~u64{0};
    for (const Record& rec : records) epoch = std::min(epoch, rec.begin_ns);
    char buf[256];
    for (size_t i = 0; i < records.size(); ++i) {
        const Record& rec = records[i];
        std::snprintf(buf, sizeof buf,
                      "{\"name\": \"%s\", \"cat\": \"perfbench\", "
                      "\"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
                      "\"ts\": %.3f, \"dur\": %.3f}%s\n",
                      rec.name, rec.thread,
                      1e-3 * static_cast<double>(rec.begin_ns - epoch),
                      1e-3 * static_cast<double>(rec.end_ns - rec.begin_ns),
                      i + 1 < records.size() ? "," : "");
        out << buf;
    }
    out << "]}\n";
    if (!out) std::cerr << "warning: could not write " << path << '\n';
}

} // namespace spans

} // namespace perfbench
