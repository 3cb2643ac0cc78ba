/**
 * @file
 * verify_sweep: golden-corpus-style fuzz scenarios run through
 * ScenarioRun with the DigestTracer attached and a 2 us KB timer,
 * programs x the three delivery strategies, fanned out by
 * exec::sweepReduce. Every fourth cell is checkpointed in memory at
 * half its instruction target, restored into a fresh run and
 * finished; the original run also finishes, and the two must agree
 * bit for bit.
 *
 * Cells, and the fresh runs the checkpointed ones restore into, are
 * built serially in batches (set-up), then each batch is simulated by
 * the worker pool, so set-up stays out of wall_s while at most one
 * batch of cores is alive at a time.
 */

#include <memory>
#include <string>

#include "ckpt/codec.hh"
#include "exec/sweep.hh"
#include "harness.hh"
#include "stats/digest.hh"
#include "verify/scenario_run.hh"

namespace perfbench
{

using xui::Cycles;
using xui::DeliveryStrategy;

namespace
{

constexpr unsigned kPrograms = 8;
constexpr std::uint64_t kTargetInsts = 100'000;
constexpr std::size_t kBatch = 8;
/** Chunk used to stop near the half-way point of a checkpointed cell. */
constexpr Cycles kChunk = 2000;

struct SweepCell
{
    std::string id;
    xui::ScenarioConfig cfg;
    bool checkpoint = false;
};

std::vector<SweepCell>
sweepCells(std::uint64_t seed)
{
    constexpr DeliveryStrategy modes[] = {DeliveryStrategy::Flush,
                                          DeliveryStrategy::Drain,
                                          DeliveryStrategy::Tracked};
    constexpr const char *names[] = {"flush", "drain", "tracked"};
    std::vector<SweepCell> cells;
    for (unsigned p = 0; p < kPrograms; ++p)
        for (unsigned m = 0; m < 3; ++m) {
            SweepCell c;
            // Fixed program shapes, as in the golden corpus; the
            // seed varies the system RNG streams.
            c.cfg.programSeed = 1000 + p;
            c.cfg.systemSeed = cellSeed(seed, cells.size());
            c.cfg.program.deterministicControl = true;
            c.cfg.strategy = modes[m];
            c.cfg.timerPeriod = xui::usToCycles(2.0);
            c.cfg.targetInsts = kTargetInsts;
            c.checkpoint = cells.size() % 4 == 3;
            c.id = "prog" + std::to_string(1000 + p) + "-" + names[m] +
                   (c.checkpoint ? "-ckpt" : "");
            cells.push_back(std::move(c));
        }
    return cells;
}

/** What one sweep job hands back to the in-order reduction. */
struct JobOut
{
    xui::ScenarioResult result;
    std::unique_ptr<xui::ScenarioRun> run;
    std::vector<std::string> violations;
    std::uint64_t eventsProcessed = 0;
    std::uint64_t snapshotBytes = 0;
    std::int64_t jobNs = 0;
};

JobOut
runJob(const PassContext &ctx, const SweepCell &c, int ci, int parent,
       std::unique_ptr<xui::ScenarioRun> run,
       std::unique_ptr<xui::ScenarioRun> restored)
{
    SpanLog &log = *ctx.spans;
    const std::int64_t t0 = nowNs();
    JobOut out;
    SpanLog::Scope job(log, "exec", "job", ci, parent);
    if (!c.checkpoint) {
        SpanLog::Scope s(log, "verify", "simulate", ci);
        run->runToEnd();
        out.result = run->finish();
        out.eventsProcessed = out.result.eventCount;
    } else {
        std::uint64_t events_at_save = 0;
        {
            SpanLog::Scope s(log, "verify", "simulate", ci);
            while (run->committedInsts() < kTargetInsts / 2 &&
                   run->advance(kChunk)) {
            }
            events_at_save = run->digest().eventCount();
        }
        xui::ckpt::Writer w;
        {
            SpanLog::Scope s(log, "ckpt", "save", ci);
            run->saveState(w);
        }
        out.snapshotBytes = w.size();
        bool loaded = false;
        {
            SpanLog::Scope s(log, "ckpt", "load", ci);
            xui::ckpt::Reader r(w.data().data(), w.size());
            loaded = restored->loadState(r);
        }
        if (!loaded) {
            out.violations.push_back(c.id + ": snapshot failed to load");
            restored = std::make_unique<xui::ScenarioRun>(c.cfg);
        }
        xui::ScenarioResult original;
        {
            SpanLog::Scope s(log, "verify", "simulate", ci);
            run->runToEnd();
            restored->runToEnd();
            original = run->finish();
            out.result = restored->finish();
        }
        out.eventsProcessed =
            original.eventCount + out.result.eventCount - events_at_save;
        if (original.fullDigest != out.result.fullDigest ||
            original.eventCount != out.result.eventCount ||
            original.cycles != out.result.cycles)
            out.violations.push_back(c.id +
                                     ": restored run diverged from the "
                                     "uninterrupted run");
        run = std::move(restored);
    }
    out.run = std::move(run);
    out.jobNs = nowNs() - t0;
    return out;
}

} // namespace

PassResult
runVerifySweep(const PassContext &ctx)
{
    SpanLog &log = *ctx.spans;
    PassResult pass;
    const std::vector<SweepCell> cells = sweepCells(ctx.seed);
    xui::Fnv1a combined;
    for (std::size_t base = 0; base < cells.size(); base += kBatch) {
        const std::size_t n = std::min(kBatch, cells.size() - base);
        // A checkpointed cell also gets the fresh run it restores into.
        std::vector<std::unique_ptr<xui::ScenarioRun>> runs(n);
        std::vector<std::unique_ptr<xui::ScenarioRun>> targets(n);
        Stopwatch setup;
        for (std::size_t k = 0; k < n; ++k) {
            const SweepCell &c = cells[base + k];
            SpanLog::Scope s(log, "verify", "setup",
                             static_cast<int>(base + k));
            runs[k] = std::make_unique<xui::ScenarioRun>(c.cfg);
            if (c.checkpoint)
                targets[k] = std::make_unique<xui::ScenarioRun>(c.cfg);
        }
        pass.setupS += setup.wallS();

        Stopwatch sim;
        std::vector<JobOut> outs(n);
        {
            SpanLog::Scope sweep(log, "exec", "sweepReduce", -1);
            const int parent = sweep.index();
            xui::exec::sweepReduce(
                n, ctx.workers,
                [&](std::size_t k) {
                    return runJob(ctx, cells[base + k],
                                  static_cast<int>(base + k), parent,
                                  std::move(runs[k]), std::move(targets[k]));
                },
                [&](std::size_t k, JobOut &&o) { outs[k] = std::move(o); });
        }
        const double sweep_wall = sim.wallS();
        pass.wallS += sweep_wall;
        pass.cpuS += sim.cpuS();
        pass.addHost("exec.capacity_ns", sweep_wall * 1e9 * ctx.workers);

        for (std::size_t k = 0; k < n; ++k) {
            JobOut &o = outs[k];
            const SweepCell &c = cells[base + k];
            CellResult cell;
            cell.id = c.id;
            cell.pinHex("full_digest", o.result.fullDigest);
            cell.pinHex("arch_digest", o.result.archDigest);
            cell.pin("trace_events", o.result.eventCount);
            collectCore(o.run->core(), "", cell, pass);
            for (const std::string &v : o.result.violations)
                cell.violations.push_back(c.id + ": " + v);
            for (const std::string &v : o.violations)
                cell.violations.push_back(v);
            combined.update(o.result.fullDigest);
            pass.add("verify.trace_events",
                     static_cast<double>(o.result.eventCount));
            pass.add("verify.events_processed",
                     static_cast<double>(o.eventsProcessed));
            pass.add("exec.jobs", 1.0);
            if (c.checkpoint) {
                pass.add("ckpt.snapshots", 1.0);
                pass.add("ckpt.snapshot_bytes",
                         static_cast<double>(o.snapshotBytes));
            }
            pass.addHost("exec.job_ns", static_cast<double>(o.jobNs));
            pass.cells.push_back(std::move(cell));
        }
    }
    pass.combinedDigest = combined.value();
    return pass;
}

} // namespace perfbench
