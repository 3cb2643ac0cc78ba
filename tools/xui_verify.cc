/**
 * @file
 * xui_verify — the standalone verification driver.
 *
 * Fuzzes N random programs across K system seeds and, for every
 * (program, seed) pair:
 *
 *  - runs the double-run determinism check (identical full timing
 *    digests from identical seeds);
 *  - runs the three-way delivery-mode differential (flush / drain /
 *    tracked must retire identical main-code commit streams, lose
 *    no interrupts, and respect the Fig. 2 latency ordering);
 *  - checks cross-seed architectural equivalence (different system
 *    seeds perturb timing, never the committed program).
 *
 * Exit status is 0 iff every check passed, so the driver doubles as
 * the regression backstop for performance PRs: any change that
 * perturbs architectural behaviour, loses an interrupt, or breaks
 * determinism fails the run.
 *
 * Golden traces: --record FILE writes the binary trace of one
 * scenario; --replay FILE re-runs the same scenario and reports the
 * first divergence from the recorded stream.
 *
 * Observability: --metrics-json FILE / --trace-json FILE export one
 * instrumented scenario's metrics snapshot and Chrome trace (load at
 * https://ui.perfetto.dev) alongside whatever else the run does.
 *
 * Parallelism: --jobs N fans the (program, seed) grid out across N
 * worker threads (src/exec sweep engine; 0/unset = one per hardware
 * thread, 1 = the legacy serial path). Every job owns its own
 * simulated system, so the summary — counts, latency means, failure
 * list and its order — is bit-identical for every N.
 *
 * Checkpoint round-trip: --roundtrip sweeps the 96-row golden
 * corpus (32 seeds x 3 delivery strategies) proving that each row,
 * interrupted at its half-way cycle and resumed from a snapshot, is
 * bit-identical to the uninterrupted run; --snapshot-dir DIR
 * additionally drives every row's checkpoint through the on-disk
 * crash-consistent snapshot engine. --version prints the build
 * provenance stamped into snapshot headers.
 *
 * A malformed numeric value (sign, non-digit, trailing junk, or 0
 * for --programs/--seeds/--insts) exits 2 with usage; `--help`
 * lists every flag.
 */

#include <cstdint>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "exec/flags.hh"
#include "obs/session.hh"
#include "verify/corpus.hh"
#include "verify/roundtrip.hh"
#include "verify/scenario_run.hh"
#include "verify/trace_log.hh"

using namespace xui;

namespace
{

struct Options
{
    std::uint64_t programs = 20;
    std::uint64_t seeds = 2;
    std::uint64_t insts = 20000;
    double timerUs = 2.0;
    bool safepoints = false;
    bool quiet = false;
    std::string recordPath;
    std::string replayPath;
    std::uint64_t recordSeed = 1;
    std::string metricsJson;
    std::string traceJson;
    /** Sweep worker threads (0 = one per hardware thread). */
    unsigned jobs = 0;
    /** `--roundtrip`: golden-corpus checkpoint round-trip sweep. */
    bool roundtrip = false;
    /** `--snapshot-dir DIR`: on-disk snapshots for --roundtrip. */
    std::string snapshotDir;
};

ScenarioConfig
goldenScenario(const Options &opt)
{
    ScenarioConfig cfg;
    cfg.programSeed = opt.recordSeed;
    cfg.systemSeed = opt.recordSeed;
    cfg.strategy = DeliveryStrategy::Tracked;
    cfg.program.deterministicControl = true;
    cfg.timerPeriod = usToCycles(opt.timerUs);
    cfg.targetInsts = opt.insts;
    return cfg;
}

int
recordGolden(const Options &opt)
{
    TraceLog log;
    LogTracer logger(log);
    ScenarioResult r = runScenario(goldenScenario(opt), &logger);
    if (!log.saveFile(opt.recordPath)) {
        std::cerr << "failed to write " << opt.recordPath << '\n';
        return 1;
    }
    std::cout << "recorded " << log.size() << " events, digest 0x"
              << std::hex << log.digest() << std::dec << " ("
              << r.committedInsts << " insts, " << r.delivered
              << " deliveries) to " << opt.recordPath << '\n';
    return 0;
}

int
replayGolden(const Options &opt)
{
    TraceLog golden;
    if (!golden.loadFile(opt.replayPath)) {
        std::cerr << "failed to load " << opt.replayPath << '\n';
        return 1;
    }
    ReplayTracer replay(golden);
    runScenario(goldenScenario(opt), &replay);
    if (!replay.ok()) {
        std::cerr << "REPLAY FAIL: " << replay.message() << '\n';
        return 1;
    }
    std::cout << "replay OK: " << replay.received()
              << " events matched the golden trace\n";
    return 0;
}

/** Golden-corpus checkpoint round-trip sweep (--roundtrip). */
int
runRoundTripMode(const Options &opt)
{
    if (!opt.snapshotDir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(opt.snapshotDir, ec);
        if (ec) {
            std::cerr << "cannot create " << opt.snapshotDir << ": "
                      << ec.message() << '\n';
            return 2;
        }
    }
    CorpusRoundTripOptions ro;
    ro.jobs = opt.jobs;
    ro.snapshotDir = opt.snapshotDir;
    CorpusRoundTripSummary sum = runCorpusRoundTrip(ro);
    if (!opt.quiet) {
        std::cout << "checkpoint round-trip: " << sum.rows
                  << " corpus rows, " << sum.passed
                  << " bit-identical ("
                  << (opt.snapshotDir.empty()
                          ? "in-memory codec"
                          : "on-disk snapshot engine")
                  << ")\n";
    }
    for (const auto &f : sum.failures)
        std::cout << "FAIL " << f << '\n';
    return sum.ok() ? 0 : 1;
}

/**
 * Run one instrumented golden scenario and write the requested
 * metrics / trace exports. No-op (exit 0) when neither flag is set.
 */
int
exportObservability(const Options &opt)
{
    ObsSession obs(opt.metricsJson, opt.traceJson);
    if (!obs.enabled())
        return 0;
    ScenarioRun run(goldenScenario(opt));
    run.addProbe(obs.probeFor(run.core()));
    run.runToEnd();
    return obs.finish();
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    exec::FlagSet flags;
    flags.uint("--programs", "N", "random programs to fuzz",
               opt.programs, 1)
        .uint("--seeds", "K", "system seeds per program", opt.seeds, 1)
        .uint("--insts", "M", "target instructions per scenario",
              opt.insts, 1)
        .positive("--timer-us", "U", "KB timer period in us",
                  opt.timerUs)
        .flag("--safepoints",
              "fuzz safepointed programs under safepoint delivery",
              opt.safepoints)
        .flag("--quiet", "terse summary, uncapped failure list",
              opt.quiet)
        .jobs(opt.jobs)
        .file("--record", "record one golden scenario's trace",
              opt.recordPath)
        .file("--replay", "replay a recorded golden trace",
              opt.replayPath)
        .uint("--record-seed", "S", "the golden scenario's seed",
              opt.recordSeed)
        .flag("--roundtrip",
              "golden-corpus checkpoint round-trip sweep",
              opt.roundtrip)
        .text("--snapshot-dir", "DIR",
              "drive --roundtrip through on-disk snapshots",
              opt.snapshotDir)
        .file("--metrics-json", "write a metrics snapshot",
              opt.metricsJson)
        .file("--trace-json", "write a Perfetto-loadable Chrome trace",
              opt.traceJson);
    flags.parse(argc, argv);

    if (!opt.recordPath.empty())
        return recordGolden(opt);
    if (!opt.replayPath.empty())
        return replayGolden(opt);
    if (opt.roundtrip)
        return runRoundTripMode(opt);

    const int obs_rc = exportObservability(opt);

    CorpusOptions copt;
    copt.programs = opt.programs;
    copt.seeds = opt.seeds;
    copt.insts = opt.insts;
    copt.timerUs = opt.timerUs;
    copt.safepoints = opt.safepoints;
    copt.jobs = opt.jobs;

    CorpusSummary sum = runVerifyCorpus(copt);
    std::cout << renderCorpusSummary(copt, sum, opt.quiet);
    if (!sum.ok())
        return 1;
    return obs_rc;
}
