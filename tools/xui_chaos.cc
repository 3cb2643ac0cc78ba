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
 * Grid mode runs by default; `--replay --scenario NAME --seed S
 * --schedule TEXT` replays one cell (`--crash-at` and `--restore`
 * are replay-only). A malformed numeric value (sign, non-digit,
 * trailing junk, or 0 for a count where zero means an empty run)
 * exits 2 with usage; `--help` lists every flag.
 */

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "ckpt/build_info.hh"
#include "ckpt/snapshot.hh"
#include "exec/flags.hh"
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
    bool noRecovery = false;
    bool noShrink = false;
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

std::string
replayCommand(const chaos::CellReport &rep, const Options &opt)
{
    std::string cmd = "xui_chaos --replay --scenario ";
    cmd += chaos::scenarioName(rep.kind);
    cmd += " --seed " + std::to_string(rep.seed);
    cmd += " --schedule \"" + rep.shrunk.encode() + "\"";
    if (opt.noRecovery)
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
    cc.recovery = !opt.noRecovery;
    cc.finalDrain = !opt.noRecovery;
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
    gc.recovery = !opt.noRecovery;
    gc.finalDrain = !opt.noRecovery;
    gc.shrinkFailures = !opt.noShrink;
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
    exec::FlagSet flags;
    flags.text("--scenario", "NAME|all", "scenario to run (see --list)",
               opt.scenario)
        .uint("--seeds", "N", "fault seeds per scenario", opt.seeds, 1)
        .uint("--seed-base", "S", "first fault seed", opt.seedBase)
        .jobs(opt.jobs)
        .uint("--directives", "N", "fault directives per schedule",
              opt.directives)
        .uint("--horizon", "CYCLES", "simulated horizon per cell",
              opt.horizon, 1)
        .uint("--budget", "EVENTS", "watchdog event budget per cell",
              opt.budget, 1)
        .flag("--no-recovery",
              "disable graceful degradation and the final drain",
              opt.noRecovery)
        .flag("--no-shrink", "report failing schedules unshrunk",
              opt.noShrink)
        .uint("--checkpoint-every", "N",
              "snapshot each cell every N fired events",
              opt.checkpointEvery, 1)
        .text("--ckpt-dir", "DIR", "keep snapshots on disk in DIR",
              opt.ckptDir)
        .text("--out-dir", "DIR", "write one .repro file per failure",
              opt.outDir)
        .flag("--quiet", "print only failures", opt.quiet)
        .flag("--list", "list the scenario names and exit", opt.list)
        .flag("--replay", "replay one cell instead of the grid",
              opt.replay)
        .uint("--seed", "S", "replay: the cell's fault seed", opt.seed)
        .text("--schedule", "TEXT", "replay: the fault schedule",
              opt.schedule)
        .uint("--crash-at", "K", "replay: simulate a kill after K events",
              opt.crashAt, 1)
        .file("--restore", "replay: resume from a snapshot",
              opt.restorePath);
    flags.parse(argc, argv);
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
