/**
 * @file
 * Observability-overhead smoke: pins the "zero cost when idle" claim
 * for the pipeline-pressure profiler (src/obs/sampler.hh) on the
 * core's probe seam (src/uarch/probe.hh).
 *
 * Runs the same deterministic ScenarioRun twice per trial,
 * in-process and interleaved to cancel host drift:
 *
 *   A  detached  — the scenario's digest alone in the core's
 *                  ProbeTee (the shipping verify configuration);
 *   B  attached  — a profiler probe added to that tee with sampling
 *                  AND tax off. The probe takes no pipeline events,
 *                  so the per-event path is unchanged; its gate
 *                  (liveSpans / nextSampleAt) never opens, so no
 *                  end-of-tick virtual call fires; only the tee's
 *                  per-lifecycle-stage forwarding grows by one sink.
 *
 * The gate fails (exit 1) when the median attached slowdown exceeds
 * 2% — the budget CI grants the whole observation layer.
 *
 * A malformed or zero --trials exits 2 with usage.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "exec/flags.hh"
#include "obs/sampler.hh"
#include "verify/scenario_run.hh"

namespace
{

constexpr double kBudgetPct = 2.0;

double
runOnce(const xui::ScenarioConfig &cfg, bool attached)
{
    using clock = std::chrono::steady_clock;
    // Sampling off (stride 0) + tax off: the probe is attached but
    // its onCycle() never fires — we time the dead branch itself.
    xui::ProfileConfig pc;
    xui::PipelinePressureProfiler prof(pc, nullptr, nullptr);
    auto t0 = clock::now();
    xui::ScenarioRun run(cfg);
    if (attached)
        run.addProbe(prof.makeProbe(run.core()));
    run.runToEnd();
    xui::ScenarioResult r = run.finish();
    auto t1 = clock::now();
    if (!r.ok()) {
        std::fprintf(stderr,
                     "bench_obs_overhead: scenario violation: %s\n",
                     r.violations.front().c_str());
        std::exit(2);
    }
    return std::chrono::duration<double>(t1 - t0).count();
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    std::uint64_t trials = 5;
    xui::exec::FlagSet flags;
    flags.flag("--quick", "shorter scenario (the CI smoke size)", quick)
        .uint("--trials", "N", "interleaved A/B trials (default 5)",
              trials, 1);
    flags.parse(argc, argv);

    xui::ScenarioConfig cfg;
    cfg.programSeed = 7;
    cfg.systemSeed = 7 * 1000003 + 17;
    cfg.timerPeriod = 600;
    cfg.targetInsts = quick ? 20000 : 100000;
    cfg.extraCycles = 4000;

    // Warm-up run (page in code + allocator state) then interleaved
    // A/B trials; medians cancel one-off host noise.
    runOnce(cfg, false);
    std::vector<double> detached, attached;
    for (std::uint64_t t = 0; t < trials; ++t) {
        detached.push_back(runOnce(cfg, false));
        attached.push_back(runOnce(cfg, true));
    }

    double d = median(detached);
    double a = median(attached);
    double pct = (a - d) / d * 100.0;
    std::printf("bench_obs_overhead: detached %.6fs, attached "
                "(sampling off) %.6fs, delta %+.2f%% (budget "
                "%.1f%%, %llu trials)\n",
                d, a, pct, kBudgetPct,
                static_cast<unsigned long long>(trials));
    if (pct > kBudgetPct) {
        std::printf("FAIL: profiling hook costs more than %.1f%% "
                    "with sampling off\n",
                    kBudgetPct);
        return 1;
    }
    std::printf("PASS\n");
    return 0;
}
