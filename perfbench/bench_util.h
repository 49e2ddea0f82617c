/**
 * @file
 * Shared plumbing of the repository benchmark: the clock, in-memory
 * spans recorded around calls into each slapo layer, order statistics,
 * and the result record every workload fills in.
 *
 * Spans live in the benchmark, not in the library: a SpanLog is only
 * installed during the traced pass, so the untraced pass pays one
 * pointer test per span site.
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Linear-interpolated quantile (q in [0, 1]) of unsorted samples. */
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

inline double
mean(const std::vector<double>& values)
{
    double sum = 0;
    for (const double v : values) {
        sum += v;
    }
    return values.empty() ? 0 : sum / static_cast<double>(values.size());
}

/** One closed span: name, [start, end) and the span open around it. */
struct SpanRecord
{
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1; ///< index into SpanLog::spans(), -1 = top level
};

/** Spans of the traced pass, kept in memory and written out at the end.
 * Single-threaded: spans are only opened from the benchmark's thread. */
class SpanLog
{
  public:
    int open(const std::string& name);
    void close(int index);
    /** Add a span measured from timestamps, under the open span. */
    void record(const std::string& name, int64_t start_ns, int64_t end_ns);

    const std::vector<SpanRecord>& spans() const { return spans_; }

    /** Durations (ms) of every span called `name`. */
    std::vector<double> durationsMs(const std::string& name) const;
    /** Median duration (ms) of `name`, 0 if never recorded. */
    double medianMs(const std::string& name) const;

    /** Chrome-trace JSON ("X" events on one track). */
    bool writeChromeTrace(const std::string& path) const;

  private:
    std::vector<SpanRecord> spans_;
    int current_ = -1;
};

/** The installed span log (nullptr outside the traced pass). */
SpanLog* spanLog();
void setSpanLog(SpanLog* log);

/** RAII span around one call into a layer; free when no log is set. */
class Span
{
  public:
    explicit Span(const char* name)
        : log_(spanLog()), index_(log_ != nullptr ? log_->open(name) : -1)
    {
    }
    ~Span()
    {
        if (log_ != nullptr) {
            log_->close(index_);
        }
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

  private:
    SpanLog* log_;
    int index_;
};

/** Options parsed from the command line. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string workdir; ///< scratch space for checkpoints and logs
};

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** Everything a workload reports. */
struct Report
{
    int64_t attempted = 0; ///< ops (steps or trials) plus checks run
    int64_t failed = 0;    ///< ops that threw or produced a wrong result
    std::vector<Metric> metrics;
    /** Free-form (key, JSON value) pairs stamped into the context line. */
    std::vector<std::pair<std::string, std::string>> context;

    void add(std::string name, double value, std::string unit)
    {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }
    void note(std::string key, std::string json_value)
    {
        context.emplace_back(std::move(key), std::move(json_value));
    }
    /** Record one checked operation. */
    void check(bool ok)
    {
        ++attempted;
        failed += ok ? 0 : 1;
    }
};

/** JSON string literal. */
std::string jsonString(const std::string& text);
/** JSON number with full precision (non-finite values become null). */
std::string jsonNumber(double value);

/** Peak resident set size of this process so far, in MB. */
double peakRssMb();

} // namespace perfbench
