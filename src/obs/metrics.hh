/**
 * @file
 * Unified metrics registry for both simulation tiers.
 *
 * Components register a metric once (get-or-create by hierarchical
 * dot-separated name, e.g. "core0.intr.kbtimer.e2e") and keep the
 * returned pointer/reference; bumping it afterwards is one null
 * check plus an integer add — the same zero-cost-when-detached
 * convention as the core's probe seam. Three metric kinds cover the
 * repo's needs:
 *
 *  - Counter: monotonically increasing event count;
 *  - Gauge: last-written value (utilizations, fractions, config);
 *  - LatencyRecorder: Histogram-backed latency distribution with
 *    percentile queries.
 *
 * A registry snapshot renders to an aligned table (TablePrinter),
 * CSV (CsvWriter), or JSON — the `--metrics-json` bench output.
 * Iteration is in sorted name order, so every rendering is
 * deterministic.
 */

#ifndef XUI_OBS_METRICS_HH
#define XUI_OBS_METRICS_HH

#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "stats/csv.hh"
#include "stats/histogram.hh"

namespace xui
{

/** Monotonic event counter. */
class Counter
{
  public:
    void inc(std::uint64_t n = 1) { value_ += n; }
    std::uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

  private:
    std::uint64_t value_ = 0;
};

/** Last-written value (set wins; no aggregation). */
class Gauge
{
  public:
    void set(double v) { value_ = v; }
    double value() const { return value_; }

  private:
    double value_ = 0.0;
};

/** Histogram-backed latency distribution. */
class LatencyRecorder
{
  public:
    explicit LatencyRecorder(unsigned sub_bucket_bits = 7)
        : hist_(sub_bucket_bits)
    {}

    void record(std::int64_t v) { hist_.record(v); }
    void record(std::int64_t v, std::uint64_t n)
    {
        hist_.record(v, n);
    }

    /** Merge an externally collected histogram. */
    void merge(const Histogram &h) { hist_.merge(h); }

    const Histogram &hist() const { return hist_; }

  private:
    Histogram hist_;
};

/**
 * Stable integer handle to an interned metric (see
 * MetricsRegistry::internCounter and friends). Ids are dense,
 * per-kind, and never invalidated, so hot paths can resolve a
 * metric with one array index instead of a string hash/compare.
 */
using MetricId = std::uint32_t;

/**
 * Owns every registered metric; returned references stay valid for
 * the registry's lifetime (metrics are never removed).
 */
class MetricsRegistry
{
  public:
    MetricsRegistry() = default;

    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /** Get-or-create by name. */
    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    LatencyRecorder &latency(const std::string &name,
                             unsigned sub_bucket_bits = 7);

    /**
     * Intern a metric name into a dense per-kind id (get-or-create,
     * same registry entry the string API returns). Pay the string
     * lookup once at setup; use the ...At() accessors on the hot
     * path.
     */
    MetricId internCounter(const std::string &name);
    MetricId internGauge(const std::string &name);
    MetricId internLatency(const std::string &name,
                           unsigned sub_bucket_bits = 7);

    /** O(1) handle-to-metric resolution (id must be interned). */
    Counter &counterAt(MetricId id) { return *counterSlots_[id]; }
    Gauge &gaugeAt(MetricId id) { return *gaugeSlots_[id]; }
    LatencyRecorder &latencyAt(MetricId id)
    {
        return *latencySlots_[id];
    }

    /**
     * Fold another registry into this one, get-or-creating each
     * metric by name: counters add, gauges take the other side's
     * value (last merge wins), latency histograms merge exactly
     * (Histogram::merge re-buckets on config mismatch). Iteration
     * is in sorted name order, so merging per-job registries in
     * job-index order — the exec::sweep reduction — produces a
     * snapshot that is bit-identical for every thread count.
     */
    void merge(const MetricsRegistry &other);

    /** Lookup without creating (nullptr when absent). */
    const Counter *findCounter(const std::string &name) const;
    const Gauge *findGauge(const std::string &name) const;
    const LatencyRecorder *
    findLatency(const std::string &name) const;

    std::size_t size() const
    {
        return counters_.size() + gauges_.size() + latencies_.size();
    }

    /** Render all metrics as an aligned table. */
    void writeTable(std::ostream &os,
                    const std::string &title = "Metrics") const;

    /**
     * Write one CSV row per metric (kind, name, stats columns).
     * The first row is a header; names containing commas, quotes,
     * or newlines are RFC-4180-quoted by CsvWriter, so a snapshot
     * always round-trips through spreadsheet tooling.
     */
    void writeCsv(CsvWriter &csv) const;

    /**
     * Write the CSV rendering (header row + escaped names) to a
     * file.
     * @return false when the file cannot be written.
     */
    bool writeCsvFile(const std::string &path) const;

    /** Serialize every metric as a JSON object. */
    void writeJson(std::ostream &os) const;

    /**
     * Write the JSON rendering to a file.
     * @return false when the file cannot be written.
     */
    bool writeJsonFile(const std::string &path) const;

  private:
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<LatencyRecorder>>
        latencies_;

    // Interning side tables: name -> id, id -> metric. Slots point
    // into the maps above (never removed, so always valid).
    std::map<std::string, MetricId> counterIds_;
    std::map<std::string, MetricId> gaugeIds_;
    std::map<std::string, MetricId> latencyIds_;
    std::vector<Counter *> counterSlots_;
    std::vector<Gauge *> gaugeSlots_;
    std::vector<LatencyRecorder *> latencySlots_;
};

} // namespace xui

#endif // XUI_OBS_METRICS_HH
