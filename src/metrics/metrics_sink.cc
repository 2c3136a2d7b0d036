#include "metrics/metrics_sink.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>
#include <utility>

#include "util/json.h"

namespace gb::metrics {

namespace {

/** Render one rendered-field list as a JSON object. */
void
appendObject(std::string& out,
             const std::vector<std::pair<std::string, std::string>>& fields)
{
    out += '{';
    bool first = true;
    for (const auto& [key, value] : fields) {
        if (!first) out += ',';
        first = false;
        out += '"';
        out += jsonEscape(key);
        out += "\":";
        out += value;
    }
    out += '}';
}

std::string
quoted(std::string_view text)
{
    std::string out;
    out += '"';
    out += jsonEscape(text);
    out += '"';
    return out;
}

} // namespace

std::string
buildGitSha()
{
#ifdef GB_GIT_SHA
    return GB_GIT_SHA;
#else
    return "unknown";
#endif
}

std::string
jsonNumber(double value)
{
    if (!std::isfinite(value)) return "null";
    // Shortest decimal that round-trips: try increasing precision.
    for (const int precision : {6, 9, 12, 17}) {
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.*g", precision, value);
        if (std::strtod(buf, nullptr) == value) return buf;
    }
    return "null"; // unreachable: %.17g always round-trips
}

MetricsSink::Row&
MetricsSink::Row::raw(std::string_view key, std::string json_value)
{
    if (sink_) {
        sink_->rows_[index_].fields.push_back(
            {std::string(key), std::move(json_value)});
    }
    return *this;
}

MetricsSink::Row&
MetricsSink::Row::str(std::string_view key, std::string_view value)
{
    return raw(key, quoted(value));
}

MetricsSink::Row&
MetricsSink::Row::num(std::string_view key, double value)
{
    return raw(key, jsonNumber(value));
}

MetricsSink::Row&
MetricsSink::Row::count(std::string_view key, u64 value)
{
    return raw(key, std::to_string(value));
}

MetricsSink::Row&
MetricsSink::Row::flag(std::string_view key, bool value)
{
    return raw(key, value ? "true" : "false");
}

MetricsSink::~MetricsSink()
{
    try {
        close();
    } catch (...) {
        // Destructor must not throw; the run's stdout output survives.
    }
}

void
MetricsSink::open(const std::string& path, RunMeta meta)
{
    requireInput(!path.empty(), "metrics: empty output path");
    begin(std::move(meta));
    path_ = path;
}

void
MetricsSink::begin(RunMeta meta)
{
    meta_ = std::move(meta);
    if (meta_.git_sha.empty()) meta_.git_sha = buildGitSha();
    active_ = true;
    closed_ = false;
    rows_.clear();
}

MetricsSink::Row
MetricsSink::newRow(std::string_view table)
{
    if (!active_) return Row(nullptr, 0);
    rows_.emplace_back();
    Row row(this, rows_.size() - 1);
    row.str("table", table);
    return row;
}

std::string
MetricsSink::json() const
{
    std::string out = "{\n  \"schema\": ";
    out += quoted(kSchemaName);
    out += ",\n  \"meta\": ";
    appendObject(out,
                 {{"experiment", quoted(meta_.experiment)},
                  {"paper_ref", quoted(meta_.paper_ref)},
                  {"git_sha", quoted(meta_.git_sha)},
                  {"size", quoted(meta_.size)},
                  {"threads", std::to_string(meta_.threads)},
                  {"simd_level", quoted(meta_.simd_level)},
                  {"host_hw_threads",
                   std::to_string(std::thread::hardware_concurrency())}});
    out += ",\n  \"rows\": [";
    for (size_t i = 0; i < rows_.size(); ++i) {
        out += i ? ",\n    " : "\n    ";
        std::vector<std::pair<std::string, std::string>> fields;
        fields.reserve(rows_[i].fields.size());
        for (const auto& f : rows_[i].fields) {
            fields.emplace_back(f.key, f.json_value);
        }
        appendObject(out, fields);
    }
    out += rows_.empty() ? "]\n}\n" : "\n  ]\n}\n";
    return out;
}

void
MetricsSink::close()
{
    if (!active_ || closed_ || path_.empty()) {
        closed_ = true;
        return;
    }
    closed_ = true;
    std::ofstream out(path_, std::ios::trunc);
    requireInput(out.good(), "cannot write metrics JSON: " + path_);
    out << json();
    out.flush();
    requireInput(out.good(), "short write to metrics JSON: " + path_);
}

void
emitTable(MetricsSink& sink, const Table& table)
{
    if (!sink.enabled()) return;
    const auto& header = table.header();
    for (const auto& cells : table.rows()) {
        auto row = sink.newRow(table.title());
        const size_t n = std::min(header.size(), cells.size());
        for (size_t i = 0; i < n; ++i) {
            // Numeric-looking cells (thousands separators stripped)
            // become JSON numbers so consumers can do arithmetic on them.
            std::string text = cells[i];
            text.erase(std::remove(text.begin(), text.end(), ','),
                       text.end());
            double value = 0.0;
            const auto [ptr, ec] = std::from_chars(
                text.data(), text.data() + text.size(), value);
            if (!text.empty() && ec == std::errc() &&
                ptr == text.data() + text.size()) {
                row.num(header[i], value);
            } else {
                row.str(header[i], cells[i]);
            }
        }
    }
}

} // namespace gb::metrics
