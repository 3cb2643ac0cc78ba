/**
 * @file
 * xui_chaos — the deterministic chaos sweep driver.
 *
 * Fans a (scenario x fault-seed) grid across worker threads. Each
 * cell builds its own simulated system, generates a fault schedule
 * from its seed, runs the scenario under a watchdog with the
 * delivery ledger attached, and checks the delivery invariants
 * (src/fault/invariants.hh). Failing cells are shrunk greedily to a
 * 1-minimal directive list and reported with a ready-to-paste replay
 * command; --out-dir additionally writes one .repro file per
 * failure (the CI artifact).
 *
 * Every cell is a pure function of (scenario, seed, schedule,
 * flags), so the grid summary and the failure list are bit-identical
 * for every --jobs value, and any reported failure replays exactly:
 *
 *   xui_chaos --replay --scenario kbtimer_periodic --seed 7 \
 *             --schedule "kbtimer_fire:3:drop:0"
 *
 * --no-recovery disables the kernel's graceful-degradation paths
 * (UPID rescan with backoff) and the final resume-drain, modelling a
 * receiver that never comes back: the way to demonstrate that the
 * invariants catch unrecovered loss (expect failures; pair with
 * --out-dir to collect the shrunk reproducers).
 *
 * Checkpoint/restore wiring (DESIGN.md §14): --checkpoint-every N
 * snapshots each cell every N fired events; with --ckpt-dir the
 * snapshots are crash-consistent on-disk generation sets that
 * --restore FILE resumes from (provenance-strict — a snapshot from a
 * different binary is refused, see --version). --crash-at K
 * simulates an in-process kill after K events; recovery restores the
 * newest valid generation and the resumed run must match the
 * crash-free one bit for bit.
 *
 * Usage:
 *   xui_chaos [--scenario NAME|all] [--seeds N] [--seed-base S]
 *             [--jobs N] [--directives N] [--horizon CYCLES]
 *             [--budget EVENTS] [--no-recovery] [--no-shrink]
 *             [--checkpoint-every N] [--ckpt-dir DIR]
 *             [--out-dir DIR] [--quiet] [--list] [--version]
 *   xui_chaos --replay --scenario NAME --seed S --schedule TEXT
 *             [--checkpoint-every N] [--crash-at K]
 *             [--ckpt-dir DIR] [--restore FILE]
 *
 * A malformed numeric value (sign, non-digit, trailing junk, or 0
 * for a count where zero means an empty run) exits 2 with usage.
 */

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "ckpt/build_info.hh"
#include "ckpt/snapshot.hh"
#include "exec/sweep.hh"
#include "fault/chaos.hh"
#include "fault/fault.hh"

using namespace xui;

namespace
{

struct Options
{
    std::string scenario = "all";
    unsigned seeds = 40;
    std::uint64_t seedBase = 1;
    unsigned jobs = 1;
    unsigned directives = 8;
    Cycles horizon = 200000;
    std::uint64_t budget = 2000000;
    bool recovery = true;
    bool shrinkFailures = true;
    bool quiet = false;
    bool list = false;
    bool replay = false;
    std::uint64_t seed = 1;
    std::string schedule;
    std::string outDir;
    std::uint64_t checkpointEvery = 0;
    std::uint64_t crashAt = 0;
    std::string ckptDir;
    std::string restorePath;
};

void
usage(const char *argv0)
{
    std::cerr
        << "usage: " << argv0
        << " [--scenario NAME|all] [--seeds N] [--seed-base S]\n"
        << "       [--jobs N] [--directives N] [--horizon CYCLES]\n"
        << "       [--budget EVENTS] [--no-recovery] [--no-shrink]\n"
        << "       [--checkpoint-every N] [--ckpt-dir DIR]\n"
        << "       [--out-dir DIR] [--quiet] [--list] [--version]\n"
        << "       " << argv0
        << " --replay --scenario NAME --seed S --schedule TEXT\n"
        << "       [--checkpoint-every N] [--crash-at K]\n"
        << "       [--ckpt-dir DIR] [--restore FILE]\n";
}

/**
 * Strict numeric flag value: digits only, fits `out`, and at least
 * `min` (1 where zero would mean an empty run). Reports and returns
 * false on anything else.
 */
template <typename T>
bool
numericFlag(const char *flag, const char *v, T &out, std::uint64_t min)
{
    std::uint64_t x = 0;
    if (!exec::parseU64Strict(v, x) || x < min ||
        x > std::numeric_limits<T>::max()) {
        std::cerr << flag << " needs an integer >= " << min
                  << ", got '" << v << "'\n";
        return false;
    }
    out = static_cast<T>(x);
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
        if (std::strcmp(argv[i], "--scenario") == 0) {
            const char *v = need("--scenario");
            if (!v)
                return false;
            opt.scenario = v;
        } else if (std::strcmp(argv[i], "--seeds") == 0) {
            const char *v = need("--seeds");
            if (!v || !numericFlag("--seeds", v, opt.seeds, 1))
                return false;
        } else if (std::strcmp(argv[i], "--seed-base") == 0) {
            const char *v = need("--seed-base");
            if (!v || !numericFlag("--seed-base", v, opt.seedBase, 0))
                return false;
        } else if (std::strcmp(argv[i], "--seed") == 0) {
            const char *v = need("--seed");
            if (!v || !numericFlag("--seed", v, opt.seed, 0))
                return false;
        } else if (std::strcmp(argv[i], "--jobs") == 0) {
            const char *v = need("--jobs");
            if (!v)
                return false;
            if (!exec::parseJobs(v, opt.jobs)) {
                std::cerr << "--jobs needs an integer >= 1, got '"
                          << v << "'\n";
                return false;
            }
        } else if (std::strcmp(argv[i], "--directives") == 0) {
            const char *v = need("--directives");
            if (!v || !numericFlag("--directives", v, opt.directives, 0))
                return false;
        } else if (std::strcmp(argv[i], "--horizon") == 0) {
            const char *v = need("--horizon");
            if (!v || !numericFlag("--horizon", v, opt.horizon, 1))
                return false;
        } else if (std::strcmp(argv[i], "--budget") == 0) {
            const char *v = need("--budget");
            if (!v || !numericFlag("--budget", v, opt.budget, 1))
                return false;
        } else if (std::strcmp(argv[i], "--no-recovery") == 0) {
            opt.recovery = false;
        } else if (std::strcmp(argv[i], "--no-shrink") == 0) {
            opt.shrinkFailures = false;
        } else if (std::strcmp(argv[i], "--schedule") == 0) {
            const char *v = need("--schedule");
            if (!v)
                return false;
            opt.schedule = v;
        } else if (std::strcmp(argv[i], "--out-dir") == 0) {
            const char *v = need("--out-dir");
            if (!v)
                return false;
            opt.outDir = v;
        } else if (std::strcmp(argv[i], "--checkpoint-every") == 0) {
            const char *v = need("--checkpoint-every");
            if (!v || !numericFlag("--checkpoint-every", v,
                                   opt.checkpointEvery, 1))
                return false;
        } else if (std::strcmp(argv[i], "--crash-at") == 0) {
            const char *v = need("--crash-at");
            if (!v || !numericFlag("--crash-at", v, opt.crashAt, 1))
                return false;
        } else if (std::strcmp(argv[i], "--ckpt-dir") == 0) {
            const char *v = need("--ckpt-dir");
            if (!v)
                return false;
            opt.ckptDir = v;
        } else if (std::strcmp(argv[i], "--restore") == 0) {
            const char *v = need("--restore");
            if (!v)
                return false;
            opt.restorePath = v;
        } else if (std::strcmp(argv[i], "--version") == 0) {
            std::cout << "xui_chaos " << ckpt::kBuildGitSha << " ("
                      << ckpt::kBuildType << "), snapshot format "
                      << ckpt::kFormatVersion << '\n';
            std::exit(0);
        } else if (std::strcmp(argv[i], "--replay") == 0) {
            opt.replay = true;
        } else if (std::strcmp(argv[i], "--quiet") == 0) {
            opt.quiet = true;
        } else if (std::strcmp(argv[i], "--list") == 0) {
            opt.list = true;
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

std::string
replayCommand(const chaos::CellReport &rep, const Options &opt)
{
    std::string cmd = "xui_chaos --replay --scenario ";
    cmd += chaos::scenarioName(rep.kind);
    cmd += " --seed " + std::to_string(rep.seed);
    cmd += " --schedule \"" + rep.shrunk.encode() + "\"";
    if (!opt.recovery)
        cmd += " --no-recovery";
    if (opt.horizon != 200000)
        cmd += " --horizon " + std::to_string(opt.horizon);
    return cmd;
}

void
printCell(const chaos::CellResult &r)
{
    std::cout << "  posted " << r.posted << ", delivered "
              << r.delivered << ", abandoned " << r.abandoned
              << ", injected " << r.injected << ", handler runs "
              << r.handlerRuns << "\n  recovery: rescan "
              << r.recoveredRescan << ", timer-late "
              << r.recoveredTimerLate << ", fwd-parked "
              << r.recoveredFwdParked << ", spurious-scans "
              << r.spuriousScans;
    if (r.senderRetries != 0 || r.senderFallbacks != 0)
        std::cout << ", sender retries " << r.senderRetries
                  << " fallbacks " << r.senderFallbacks;
    if (r.modFlushes != 0 || r.modCoalesced != 0 ||
        r.modFlushDropped != 0 || r.modFlushDelayed != 0)
        std::cout << "\n  moderation: coalesced " << r.modCoalesced
                  << ", flushes " << r.modFlushes
                  << " (dropped " << r.modFlushDropped
                  << ", delayed " << r.modFlushDelayed
                  << "), coalesced-satisfied "
                  << r.coalescedSatisfied;
    if (r.ckptSnapshots != 0 || r.rollbackRetries != 0 ||
        r.crashRecovered)
        std::cout << "\n  checkpoint: snapshots " << r.ckptSnapshots
                  << ", corrupt-detected " << r.ckptCorruptDetected
                  << ", fallbacks " << r.ckptFallbacks
                  << ", rollback retries " << r.rollbackRetries
                  << " (replayed " << r.rollbackEventsReplayed
                  << " events)"
                  << (r.crashRecovered ? ", crash recovered" : "");
    std::cout << '\n';
}

int
runReplay(const Options &opt)
{
    chaos::CellConfig cc;
    if (!chaos::parseScenario(opt.scenario, cc.kind)) {
        std::cerr << "--replay needs a concrete --scenario name\n";
        return 2;
    }
    if (!fault::Schedule::decode(opt.schedule, cc.schedule)) {
        std::cerr << "malformed --schedule '" << opt.schedule
                  << "'\n";
        return 2;
    }
    cc.seed = opt.seed;
    cc.recovery = opt.recovery;
    cc.finalDrain = opt.recovery;
    cc.horizon = opt.horizon;
    cc.eventBudget = opt.budget;
    cc.ckptEvery = opt.checkpointEvery;
    cc.crashAtEvent = opt.crashAt;
    cc.restoreFrom = opt.restorePath;
    if (!opt.ckptDir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(opt.ckptDir, ec);
        if (ec) {
            std::cerr << "cannot create " << opt.ckptDir << ": "
                      << ec.message() << '\n';
            return 2;
        }
        cc.ckptPathBase = opt.ckptDir + "/replay_" +
                          std::string(chaos::scenarioName(cc.kind)) +
                          "_" + std::to_string(cc.seed) + ".ckpt";
        // Snapshots written on explicit request are the product:
        // keep them so a later --restore can resume from them.
        cc.ckptKeepFiles = true;
    }

    chaos::CellResult r = chaos::runCell(cc);
    std::cout << "replay " << chaos::scenarioName(cc.kind)
              << " seed " << cc.seed << " schedule \""
              << cc.schedule.encode() << "\": "
              << (r.passed ? "PASS" : "FAIL") << '\n';
    printCell(r);
    for (const auto &v : r.violations)
        std::cout << "  violation: " << v << '\n';
    return r.passed ? 0 : 2;
}

int
runGridMain(const Options &opt)
{
    chaos::GridConfig gc;
    if (opt.scenario != "all") {
        chaos::ScenarioKind k;
        if (!chaos::parseScenario(opt.scenario, k)) {
            std::cerr << "unknown scenario '" << opt.scenario
                      << "' (try --list)\n";
            return 2;
        }
        gc.kinds.push_back(k);
    }
    gc.seeds = opt.seeds;
    gc.seedBase = opt.seedBase;
    gc.jobs = opt.jobs;
    gc.schedule.directives = opt.directives;
    gc.recovery = opt.recovery;
    gc.finalDrain = opt.recovery;
    gc.shrinkFailures = opt.shrinkFailures;
    gc.horizon = opt.horizon;
    gc.eventBudget = opt.budget;
    gc.ckptDir = opt.ckptDir;
    gc.ckptEvery = opt.checkpointEvery;
    if (!opt.ckptDir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(opt.ckptDir, ec);
        if (ec) {
            std::cerr << "cannot create " << opt.ckptDir << ": "
                      << ec.message() << '\n';
            return 2;
        }
    }

    chaos::GridOutcome out = chaos::runGrid(gc);

    if (!opt.quiet) {
        std::cout << "chaos grid: " << out.cells << " cells, "
                  << out.injected << " faults injected, "
                  << out.posted << " posted / " << out.delivered
                  << " delivered / " << out.abandoned
                  << " abandoned\n";
    }
    if (!opt.outDir.empty() && !out.failures.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(opt.outDir, ec);
        if (ec)
            std::cerr << "cannot create " << opt.outDir << ": "
                      << ec.message() << '\n';
    }
    for (const auto &rep : out.failures) {
        std::cout << "FAIL " << chaos::scenarioName(rep.kind)
                  << " seed " << rep.seed << "\n  schedule:  "
                  << rep.schedule.encode() << "\n  shrunk to: "
                  << rep.shrunk.encode() << "\n  replay:    "
                  << replayCommand(rep, opt) << '\n';
        for (const auto &v : rep.result.violations)
            std::cout << "  violation: " << v << '\n';
        if (!opt.outDir.empty()) {
            std::string path =
                opt.outDir + "/" +
                std::string(chaos::scenarioName(rep.kind)) + "-" +
                std::to_string(rep.seed) + ".repro";
            std::ofstream f(path);
            // Provenance stamp: replaying a .repro against a
            // different binary is the classic silent-divergence
            // trap, so record the producer (cf. --version).
            f << "# built-by: " << ckpt::kBuildGitSha << " ("
              << ckpt::kBuildType << "), snapshot format "
              << ckpt::kFormatVersion << '\n';
            f << replayCommand(rep, opt) << '\n';
            for (const auto &v : rep.result.violations)
                f << "# " << v << '\n';
        }
    }
    if (!opt.quiet) {
        std::cout << (out.failed == 0 ? "all cells passed"
                                      : "FAILED cells: ")
                  << (out.failed == 0 ? std::string()
                                      : std::to_string(out.failed))
                  << '\n';
    }
    return out.failed == 0 ? 0 : 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    // Usage errors exit 2, matching the bench convention, so CI can
    // tell "bad invocation" apart from "cells failed" (also 2 — both
    // mean the run produced no trustworthy result).
    if (!parseArgs(argc, argv, opt)) {
        usage(argv[0]);
        return 2;
    }
    if (!opt.restorePath.empty() && !opt.replay) {
        std::cerr << "--restore is a --replay flag (a snapshot "
                     "resumes one cell, not a grid)\n";
        return 2;
    }
    if (opt.crashAt != 0 && !opt.replay) {
        std::cerr << "--crash-at is a --replay flag (grid cells "
                     "pick seed-determined crash points)\n";
        return 2;
    }
    if (opt.list) {
        for (std::size_t i = 0; i < chaos::kNumScenarios; ++i)
            std::cout << chaos::scenarioName(
                             static_cast<chaos::ScenarioKind>(i))
                      << '\n';
        return 0;
    }
    if (opt.replay)
        return runReplay(opt);
    return runGridMain(opt);
}
