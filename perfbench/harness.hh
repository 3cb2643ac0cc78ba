/**
 * @file
 * The benchmark's data model: cells, passes, workloads, the
 * committed reference table, and the metrics derived from a run.
 *
 * A workload is a fixed list of cells. A cell is one simulation with
 * its own fresh state (cores, caches, queues), so modelled caches
 * always start empty. One pass runs every cell of a workload once
 * and reports, per cell, the simulated quantities that pin it
 * ("pins", compared as exact strings) and any violated invariant.
 * A run repeats passes for the requested number of seconds and
 * reports medians over passes.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "spans.hh"

namespace xui
{
class OooCore;
class MetricsRegistry;
} // namespace xui

namespace perfbench
{

/** One simulated quantity pinned per cell, rendered exactly. */
struct Pin
{
    std::string key;
    std::string value;
};

struct CellResult
{
    std::string id;
    std::vector<Pin> pins;
    /** Violated invariants and restore mismatches (empty = ok). */
    std::vector<std::string> violations;

    void pin(const std::string &key, std::uint64_t v);
    void pinHex(const std::string &key, std::uint64_t v);
    void pinReal(const std::string &key, double v);
    void check(bool ok, const std::string &what);
};

/** Everything one pass over a workload's cells produced. */
struct PassResult
{
    /** Host wall / process CPU time simulating, set-up excluded. */
    double wallS = 0.0;
    double cpuS = 0.0;
    /** Host time building cell state before the first cycle. */
    double setupS = 0.0;
    std::vector<CellResult> cells;
    /**
     * Exact simulated counts summed over cells. They must repeat
     * across passes, traced or not.
     */
    std::map<std::string, double> counts;
    /** Exact counts only the traced passes collect (kernel.*). */
    std::map<std::string, double> tracedCounts;
    /** Host-side measurements of the traced passes (ns, bytes). */
    std::map<std::string, double> host;
    /** Raise -> handler-start latency (cycles) of each delivery. */
    std::vector<double> intrLatency;
    /** The workload's headline simulated value (NaN if none). */
    double headline = std::numeric_limits<double>::quiet_NaN();
    /** verify_sweep: order-sensitive fold of every cell digest. */
    std::uint64_t combinedDigest = 0;

    void add(const std::string &key, double v) { counts[key] += v; }
    void addHost(const std::string &key, double v) { host[key] += v; }
    void maxCount(const std::string &key, double v);
};

/** What a workload's pass function receives. */
struct PassContext
{
    std::uint64_t seed = 1;
    SpanLog *spans = nullptr;
    bool traced = false;
    /** Worker threads for the sweep workload. */
    unsigned workers = 2;
};

struct Workload
{
    const char *name;
    const char *why;
    PassResult (*run)(const PassContext &);
    /** Accuracy line: what the headline is and the paper's value. */
    const char *headlineWhat;
    double paperValue;
    double repoValue;
    const char *headlineUnit;
};

/**
 * Seed of cell `cell` under run seed `seed`: distinct per cell, and
 * the only way --seed reaches a simulation.
 */
std::uint64_t cellSeed(std::uint64_t seed, std::size_t cell);

const std::vector<Workload> &workloads();
const Workload *findWorkload(const std::string &name);

PassResult runCycleStall(const PassContext &ctx);
PassResult runCycleBusy(const PassContext &ctx);
PassResult runDesServer(const PassContext &ctx);
PassResult runVerifySweep(const PassContext &ctx);

/**
 * Charge host time spent in benchmark-owned callbacks while inside a
 * module call. Off (untraced) it only runs the callback.
 */
class CallbackClock
{
  public:
    explicit CallbackClock(bool on) : on_(on) {}

    template <typename F>
    void run(F &&f)
    {
        if (!on_) {
            f();
            return;
        }
        const std::int64_t t0 = nowNs();
        f();
        ns_ += nowNs() - t0;
    }

    std::int64_t ns() const { return ns_; }

  private:
    bool on_;
    std::int64_t ns_ = 0;
};

/**
 * Pin and count one core's statistics: final cycle, committed uops,
 * a digest of every interrupt record's raise/accept/deliver cycles,
 * and the interrupt-conservation invariant.
 */
void collectCore(xui::OooCore &core, const std::string &prefix,
                 CellResult &cell, PassResult &pass);

/** Add the "kernel.*" counters a traced cell collected. */
void collectKernelCounters(const xui::MetricsRegistry &reg,
                           PassResult &pass);

/** Committed per-cell reference pins, keyed by seed then cell. */
class Reference
{
  public:
    bool load(const std::string &path, std::string &error);
    /** Parse reference JSON text (same format as the file). */
    bool parse(const std::string &text, std::string &error);
    bool hasSeed(std::uint64_t seed) const;
    /** Mismatches of `cell` against its reference (empty = match). */
    std::vector<std::string> compare(std::uint64_t seed,
                                     const CellResult &cell) const;

  private:
    std::map<std::uint64_t,
             std::map<std::string, std::map<std::string, std::string>>>
        pins_;
};

/** JSON object {"<seed>": {"<cell>": {"<pin>": "<value>"}}}. */
std::string pinsJson(std::uint64_t seed, const PassResult &pass);

/** One reported metric. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** The end-to-end metric names with their units, in report order. */
const std::vector<std::pair<std::string, std::string>> &endToEndMetrics();

/** Every per-layer metric name with its unit, in report order. */
const std::vector<std::pair<std::string, std::string>> &perLayerMetrics();

/**
 * Per-layer metrics from the traced passes. Host times are medians
 * over traced passes; exact counts come from the first pass.
 * @param overhead_pct traced vs untraced median wall time
 */
std::vector<Metric> layerMetrics(const std::vector<PassResult> &traced,
                                 double overhead_pct);

/** Render a double with every digit (round-trip exact). */
std::string fullDigits(double v);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
