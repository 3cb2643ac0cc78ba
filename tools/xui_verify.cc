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
 * for --programs/--seeds/--insts) exits 2 with usage.
 *
 * Usage:
 *   xui_verify [--programs N] [--seeds K] [--insts M]
 *              [--timer-us U] [--safepoints] [--quiet] [--jobs N]
 *              [--record FILE | --replay FILE]
 *              [--record-seed S]
 *              [--roundtrip] [--snapshot-dir DIR]
 *              [--metrics-json FILE] [--trace-json FILE]
 *              [--version]
 */

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "ckpt/build_info.hh"
#include "ckpt/snapshot.hh"
#include "exec/sweep.hh"
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

void
usage(const char *argv0)
{
    std::cerr
        << "usage: " << argv0
        << " [--programs N] [--seeds K] [--insts M] [--timer-us U]\n"
        << "       [--safepoints] [--quiet] [--jobs N]\n"
        << "       [--record FILE | --replay FILE] "
        << "[--record-seed S]\n"
        << "       [--roundtrip] [--snapshot-dir DIR]\n"
        << "       [--metrics-json FILE] [--trace-json FILE]\n"
        << "       [--version]\n";
}

/**
 * Strict numeric flag value: digits only and at least `min` (1 where
 * zero would mean an empty run). Reports and returns false on
 * anything else.
 */
bool
countFlag(const char *flag, const char *v, std::uint64_t &out,
          std::uint64_t min)
{
    std::uint64_t x = 0;
    if (!exec::parseU64Strict(v, x) || x < min) {
        std::cerr << flag << " needs an integer >= " << min
                  << ", got '" << v << "'\n";
        return false;
    }
    out = x;
    return true;
}

bool
parseArgs(int argc, char **argv, Options &opt)
{
    for (int i = 1; i < argc; ++i) {
        auto need = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::cerr << flag << " needs a value\n";
                return nullptr;
            }
            return argv[++i];
        };
        if (std::strcmp(argv[i], "--programs") == 0) {
            const char *v = need("--programs");
            if (!v || !countFlag("--programs", v, opt.programs, 1))
                return false;
        } else if (std::strcmp(argv[i], "--seeds") == 0) {
            const char *v = need("--seeds");
            if (!v || !countFlag("--seeds", v, opt.seeds, 1))
                return false;
        } else if (std::strcmp(argv[i], "--insts") == 0) {
            const char *v = need("--insts");
            if (!v || !countFlag("--insts", v, opt.insts, 1))
                return false;
        } else if (std::strcmp(argv[i], "--timer-us") == 0) {
            const char *v = need("--timer-us");
            if (!v)
                return false;
            if (!exec::parsePositiveDouble(v, opt.timerUs)) {
                std::cerr << "--timer-us needs a positive number, got '"
                          << v << "'\n";
                return false;
            }
        } else if (std::strcmp(argv[i], "--safepoints") == 0) {
            opt.safepoints = true;
        } else if (std::strcmp(argv[i], "--quiet") == 0) {
            opt.quiet = true;
        } else if (std::strcmp(argv[i], "--record") == 0) {
            const char *v = need("--record");
            if (!v)
                return false;
            opt.recordPath = v;
        } else if (std::strcmp(argv[i], "--replay") == 0) {
            const char *v = need("--replay");
            if (!v)
                return false;
            opt.replayPath = v;
        } else if (std::strcmp(argv[i], "--record-seed") == 0) {
            const char *v = need("--record-seed");
            if (!v || !countFlag("--record-seed", v, opt.recordSeed, 0))
                return false;
        } else if (std::strcmp(argv[i], "--metrics-json") == 0) {
            const char *v = need("--metrics-json");
            if (!v)
                return false;
            opt.metricsJson = v;
        } else if (std::strcmp(argv[i], "--trace-json") == 0) {
            const char *v = need("--trace-json");
            if (!v)
                return false;
            opt.traceJson = v;
        } else if (std::strcmp(argv[i], "--roundtrip") == 0) {
            opt.roundtrip = true;
        } else if (std::strcmp(argv[i], "--snapshot-dir") == 0) {
            const char *v = need("--snapshot-dir");
            if (!v)
                return false;
            opt.snapshotDir = v;
        } else if (std::strcmp(argv[i], "--version") == 0) {
            std::cout << "xui_verify " << ckpt::kBuildGitSha << " ("
                      << ckpt::kBuildType << "), snapshot format "
                      << ckpt::kFormatVersion << '\n';
            std::exit(0);
        } else if (std::strcmp(argv[i], "--jobs") == 0) {
            const char *v = need("--jobs");
            if (!v)
                return false;
            if (!exec::parseJobs(v, opt.jobs)) {
                std::cerr << "--jobs needs an integer >= 1, got '"
                          << v << "'\n";
                return false;
            }
        } else if (std::strcmp(argv[i], "--help") == 0 ||
                   std::strcmp(argv[i], "-h") == 0) {
            usage(argv[0]);
            std::exit(0);
        } else {
            std::cerr << "unknown flag: " << argv[i] << '\n';
            return false;
        }
    }
    return true;
}

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
    if (!parseArgs(argc, argv, opt)) {
        usage(argv[0]);
        return 2;
    }

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
