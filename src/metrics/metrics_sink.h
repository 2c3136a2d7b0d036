/**
 * @file
 * Machine-readable metrics emission for the benchmark harness.
 *
 * Every bench binary can be pointed at a JSON file with --json=FILE;
 * the harness then mirrors each printed table row into a MetricsSink,
 * which writes one schema-stable JSON document per run:
 *
 *   {
 *     "schema": "gb-metrics-v1",
 *     "meta":   { experiment, paper_ref, git_sha, size, threads,
 *                 simd_level, host_hw_threads },
 *     "rows":   [ { "table": "...", "<column>": <value>, ... }, ... ]
 *   }
 *
 * scripts/validate_metrics.py checks a document against this schema.
 * See docs/metrics.md for the full schema and stability rules.
 */
#ifndef GB_METRICS_METRICS_SINK_H
#define GB_METRICS_METRICS_SINK_H

#include <string>
#include <string_view>
#include <vector>

#include "util/common.h"
#include "util/table.h"

namespace gb::metrics {

/** Schema identifier embedded in every emitted document. */
inline constexpr const char* kSchemaName = "gb-metrics-v1";

/** Run-level metadata embedded once per JSON document. */
struct RunMeta
{
    std::string experiment; ///< e.g. "Fig. 6" or "run:fmi"
    std::string paper_ref;  ///< one-line description of the experiment
    std::string git_sha;    ///< empty = use buildGitSha()
    std::string size;       ///< dataset preset name
    std::string simd_level; ///< active gb::simd dispatch level
    unsigned threads = 0;   ///< requested worker threads (0 = auto)
};

/** Git short sha captured at configure time ("unknown" outside git). */
std::string buildGitSha();

/**
 * Shortest round-trip decimal for a double; NaN/Inf become "null"
 * (JSON has no representation for them).
 */
std::string jsonNumber(double value);

/**
 * Collects rows and writes them as one JSON document.
 *
 * A default-constructed sink is disabled: newRow() returns a row whose
 * setters are no-ops, so callers can emit unconditionally. open()
 * arms the sink; the document is written by close() (or the
 * destructor). begin() arms an in-memory sink for tests.
 */
class MetricsSink
{
  public:
    /** Builder handle for one row; no-op when the sink is disabled. */
    class Row
    {
      public:
        /** Append a string field. */
        Row& str(std::string_view key, std::string_view value);
        /** Append a numeric field (NaN/Inf emitted as null). */
        Row& num(std::string_view key, double value);
        /** Append an exact integer count field. */
        Row& count(std::string_view key, u64 value);
        /** Append a boolean field. */
        Row& flag(std::string_view key, bool value);

      private:
        friend class MetricsSink;
        Row(MetricsSink* sink, size_t index)
            : sink_(sink), index_(index) {}
        Row& raw(std::string_view key, std::string json_value);
        MetricsSink* sink_ = nullptr; ///< null = disabled
        size_t index_ = 0;
    };

    MetricsSink() = default;
    ~MetricsSink();

    MetricsSink(const MetricsSink&) = delete;
    MetricsSink& operator=(const MetricsSink&) = delete;

    /** Arm the sink; the document is written to `path` on close(). */
    void open(const std::string& path, RunMeta meta);

    /** Arm the sink in-memory only (tests; json() reads it back). */
    void begin(RunMeta meta);

    bool enabled() const { return active_; }

    /** Start a new row tagged with the table/series name. */
    Row newRow(std::string_view table);

    /** Render the current document (meta + rows collected so far). */
    std::string json() const;

    /**
     * Write the document to the open()ed path, if any; idempotent.
     * Throws InputError if the file cannot be written.
     */
    void close();

  private:
    struct Field
    {
        std::string key;
        std::string json_value; ///< pre-rendered JSON literal
    };
    struct RowData
    {
        std::vector<Field> fields;
    };

    bool active_ = false;
    bool closed_ = false;
    std::string path_; ///< empty = in-memory only
    RunMeta meta_;
    std::vector<RowData> rows_;
};

/**
 * Mirror every row of a printed Table into `sink`: one JSON object per
 * row, keyed by the table's column headers. Cells that parse fully as
 * numbers (thousands separators stripped) are emitted as JSON numbers;
 * everything else as strings. No-op when the sink is disabled.
 */
void emitTable(MetricsSink& sink, const Table& table);

} // namespace gb::metrics

#endif // GB_METRICS_METRICS_SINK_H
