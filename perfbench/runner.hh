/**
 * @file
 * One benchmark run: repeat passes of a workload for the requested
 * time, check every cell, cross-check passes against each other, and
 * reduce to end-to-end or per-layer metrics.
 */

#ifndef PERFBENCH_RUNNER_HH
#define PERFBENCH_RUNNER_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness.hh"

namespace perfbench
{

struct RunOptions
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Where to write the Perfetto trace of a traced run ("" = none). */
    std::string traceOut;
    /** Content digest of the simulator sources, for provenance. */
    std::string sourceDigest;
};

/** Outcome of checking every cell of every pass. */
struct Evaluation
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;
};

/**
 * Check each cell against its invariants and, when the seed has
 * reference pins, against them; then require every pass to repeat
 * the first pass's pins and exact counts. A cell that fails any
 * check counts once.
 */
Evaluation evaluate(const std::vector<PassResult> &passes,
                    const Reference &ref, std::uint64_t seed);

struct RunReport
{
    Evaluation eval;
    /** wall_s, cpu_s, setup_s, peak_rss_mb (untraced passes). */
    std::vector<Metric> endToEnd;
    /** Per-layer metrics (traced runs only). */
    std::vector<Metric> perLayer;
    std::map<std::string, std::string> provenance;
    double headline = 0.0;
    std::size_t untracedPasses = 0;
    std::size_t tracedPasses = 0;
    /** wall_s of each untraced pass, in run order. */
    std::vector<double> passWalls;

    bool correct() const { return eval.failed == 0; }
    double failFrac() const
    {
        return eval.attempted
            ? static_cast<double>(eval.failed) /
                  static_cast<double>(eval.attempted)
            : 1.0;
    }
};

/** Build provenance: commit, build type, compiler, host, seed, load. */
std::map<std::string, std::string> provenance(const RunOptions &opt);

RunReport runBenchmark(const Workload &wl, const RunOptions &opt,
                       const Reference &ref);

/**
 * The result line: {"correct", "attempted", "failed", "metrics"},
 * metrics keyed by name with {"value", "unit"}.
 */
std::string resultJson(const RunReport &r, const std::vector<Metric> &metrics);

} // namespace perfbench

#endif // PERFBENCH_RUNNER_HH
