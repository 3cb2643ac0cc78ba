/**
 * @file
 * des_server: the DES tier alone.
 *
 *  - runKvServer (Fig. 7) with no preemption, UIPI timer-core
 *    preemption and xUI KB-timer preemption, at offered loads below,
 *    near and past the 1 ms GET-p99 knee (~250k rps);
 *  - L3Fwd (Fig. 8) polling vs xUI-forwarded RX at the Fig. 8 point
 *    (40% load, 1 NIC) and at 70% load with 4 NICs;
 *  - an 8-core Kernel with interval timers (fire-only events), and
 *    the same plus per-core watchdogs that cancel and re-arm a
 *    timeout on every heartbeat (schedule-and-cancel churn), driven
 *    through Simulation::runUntil.
 *
 * Loads are open loop: arrivals follow the seeded schedule whatever
 * the server does.
 */

#include <memory>
#include <string>

#include "des/simulation.hh"
#include "harness.hh"
#include "kv/server.hh"
#include "net/l3fwd.hh"
#include "obs/metrics.hh"
#include "os/kernel.hh"

namespace perfbench
{

using xui::Cycles;

namespace
{

const char *
preemptName(xui::PreemptMode m)
{
    switch (m) {
      case xui::PreemptMode::None:
        return "none";
      case xui::PreemptMode::UipiSwTimer:
        return "uipi";
      case xui::PreemptMode::XuiKbTimer:
        return "xui";
    }
    return "?";
}

constexpr Cycles kKvDuration = 80 * xui::kCyclesPerMs;
constexpr Cycles kL3FwdDuration = 60 * xui::kCyclesPerMs;
constexpr Cycles kKernelDuration = 8 * xui::kCyclesPerMs;
constexpr unsigned kKernelCores = 8;

/**
 * Per-core watchdog: every heartbeat cancels the pending timeout and
 * schedules a new one, so almost every timeout is cancelled before
 * it fires.
 */
struct Watchdog
{
    xui::EventQueue &q;
    xui::Rng rng;
    CallbackClock &clock;
    xui::EventId timeout = xui::kInvalidEventId;
    std::uint64_t heartbeats = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t cancelled = 0;

    Watchdog(xui::EventQueue &queue, std::uint64_t seed, CallbackClock &c)
        : q(queue), rng(seed), clock(c)
    {
    }

    void arm()
    {
        if (timeout != xui::kInvalidEventId && q.cancel(timeout))
            ++cancelled;
        timeout = q.scheduleAfter(500 + rng.nextBounded(1000), [this] {
            clock.run([this] { ++timeouts; });
        });
        q.scheduleAfter(50 + rng.nextBounded(100), [this] {
            clock.run([this] {
                ++heartbeats;
                arm();
            });
        });
    }
};

void
runKvCell(const PassContext &ctx, std::size_t ci, xui::PreemptMode mode,
          double rps, bool headline, PassResult &pass)
{
    SpanLog &log = *ctx.spans;
    CellResult cell;
    cell.id = std::string("kv-") + preemptName(mode) + "-" +
              std::to_string(static_cast<int>(rps / 1000)) + "k";
    SpanLog::Scope cell_span(log, "bench", "cell", static_cast<int>(ci));

    xui::KvServerConfig cfg;
    cfg.mode = mode;
    cfg.offeredLoadRps = rps;
    cfg.duration = kKvDuration;
    cfg.seed = cellSeed(ctx.seed, ci);
    xui::MetricsRegistry reg;
    if (ctx.traced)
        cfg.metrics = &reg;

    // runKvServer builds and runs in one call: its set-up (store
    // preload, runtime) is counted as simulation time.
    Stopwatch sim;
    xui::KvServerResult r;
    {
        SpanLog::Scope s(log, "kv", "runKvServer", static_cast<int>(ci));
        r = xui::runKvServer(cfg);
    }
    pass.wallS += sim.wallS();
    pass.cpuS += sim.cpuS();

    const std::int64_t get_p99 = r.getLatency.p99();
    cell.pin("offered", r.offered);
    cell.pin("completed", r.completed);
    cell.pin("get_p99_cycles", static_cast<std::uint64_t>(get_p99));
    cell.pin("scan_p99_cycles",
             static_cast<std::uint64_t>(r.scanLatency.p99()));
    cell.check(r.offered > 0, "no request was offered");
    cell.check(r.completed <= r.offered, "completed more than offered");
    pass.add("kv.offered", static_cast<double>(r.offered));
    pass.add("kv.completed", static_cast<double>(r.completed));
    if (headline)
        pass.add("kv.get_p99_us", xui::cyclesToUs(static_cast<Cycles>(get_p99)));
    if (ctx.traced)
        collectKernelCounters(reg, pass);
    pass.cells.push_back(std::move(cell));
}

void
runL3FwdCell(const PassContext &ctx, std::size_t ci, xui::RxMode mode,
             double load, unsigned nics, PassResult &pass)
{
    SpanLog &log = *ctx.spans;
    CellResult cell;
    const bool polling = mode == xui::RxMode::Polling;
    cell.id = std::string("l3fwd-") + (polling ? "poll" : "xui") + "-" +
              std::to_string(static_cast<int>(load * 100 + 0.5)) + "pct-" +
              std::to_string(nics) + "nic";
    SpanLog::Scope cell_span(log, "bench", "cell", static_cast<int>(ci));

    xui::L3FwdConfig cfg;
    cfg.mode = mode;
    cfg.numNics = nics;
    cfg.load = load;
    cfg.duration = kL3FwdDuration;
    cfg.seed = cellSeed(ctx.seed, ci);
    xui::MetricsRegistry reg;
    if (ctx.traced)
        cfg.metrics = &reg;

    // The constructor builds the 16k-route DIR-24-8 table.
    Stopwatch setup;
    std::unique_ptr<xui::L3Fwd> app;
    {
        SpanLog::Scope s(log, "net", "setup", static_cast<int>(ci));
        app = std::make_unique<xui::L3Fwd>(cfg);
    }
    pass.setupS += setup.wallS();

    Stopwatch sim;
    xui::L3FwdResult r;
    {
        SpanLog::Scope s(log, "net", "run", static_cast<int>(ci));
        r = app->run();
    }
    pass.wallS += sim.wallS();
    pass.cpuS += sim.cpuS();

    cell.pin("offered", r.offered);
    cell.pin("forwarded", r.forwarded);
    cell.pin("dropped", r.dropped);
    cell.pin("interrupts", r.interrupts);
    cell.pin("latency_p99_cycles", static_cast<std::uint64_t>(r.latency.p99()));
    cell.pinReal("free_frac", r.freeFrac);
    cell.check(r.offered > 0, "no packet was offered");
    cell.check(r.forwarded + r.dropped <= r.offered,
               "forwarded + dropped exceeds offered");
    cell.check(polling || r.interrupts > 0, "xUI mode raised no interrupt");
    pass.add("net.offered", static_cast<double>(r.offered));
    pass.add("net.forwarded", static_cast<double>(r.forwarded));
    pass.add("net.interrupts", static_cast<double>(r.interrupts));
    if (!polling && nics == 1)
        pass.headline = 100.0 * r.freeFrac;
    if (ctx.traced)
        collectKernelCounters(reg, pass);
    pass.cells.push_back(std::move(cell));
}

void
runKernelCell(const PassContext &ctx, std::size_t ci, bool churn,
              PassResult &pass)
{
    SpanLog &log = *ctx.spans;
    CellResult cell;
    cell.id = churn ? "kernel-timers-watchdog" : "kernel-timers";
    SpanLog::Scope cell_span(log, "bench", "cell", static_cast<int>(ci));

    // Pure bookkeeping in benchmark callbacks is charged to the
    // benchmark; callbacks that call into the Kernel are OS work.
    CallbackClock clock(ctx.traced);
    std::uint64_t handled = 0;
    Stopwatch setup;
    std::unique_ptr<xui::Simulation> sim;
    std::unique_ptr<xui::Kernel> kernel;
    std::vector<std::unique_ptr<Watchdog>> dogs;
    std::vector<std::unique_ptr<xui::PeriodicEvent>> traffic;
    std::vector<xui::ThreadId> threads;
    std::vector<int> routes;
    std::vector<int> fwd_vectors;
    xui::ThreadId spare = 0;
    xui::MetricsRegistry reg;
    xui::Rng rng(cellSeed(ctx.seed, ci) + 7);
    {
        SpanLog::Scope s(log, "os", "setup", static_cast<int>(ci));
        sim = std::make_unique<xui::Simulation>(cellSeed(ctx.seed, ci));
        kernel = std::make_unique<xui::Kernel>(*sim, xui::CostModel{},
                                               kKernelCores);
        if (ctx.traced)
            kernel->attachMetrics(reg);
        auto handler = [&clock, &handled](unsigned) {
            clock.run([&handled] { ++handled; });
        };
        for (unsigned c = 0; c <= kKernelCores; ++c) {
            xui::ThreadId t = kernel->createThread();
            kernel->registerHandler(t, handler);
            kernel->enableKbTimer(t, 0x22);
            threads.push_back(t);
        }
        spare = threads.back();
        for (unsigned c = 0; c < kKernelCores; ++c) {
            const xui::ThreadId t = threads[c];
            kernel->scheduleOn(t, c);
            // Seeded periods of 2-4 us keep the event rate fixed.
            kernel->setInterval(t, xui::usToCycles(2) +
                                       rng.nextBounded(xui::usToCycles(2)));
            kernel->setTimer(t, xui::usToCycles(5), xui::KbTimerMode::Periodic);
            routes.push_back(kernel->registerSender(t, 1));
            fwd_vectors.push_back(kernel->registerForwarding(t, c));
        }
        xui::Kernel &k = *kernel;
        xui::Simulation &sm = *sim;
        // KB-timer expiry polls, senduipi to a random thread, device
        // interrupts on a random core, and a thread rotation that
        // swaps the spare thread in (context switches, deferred and
        // slow-path deliveries while a thread is out).
        traffic.push_back(std::make_unique<xui::PeriodicEvent>(
            sm.queue(), xui::usToCycles(1), [&k, &sm] {
                for (unsigned c = 0; c < kKernelCores; ++c)
                    k.pollKbTimer(c, sm.now());
                return true;
            }));
        traffic.push_back(std::make_unique<xui::PeriodicEvent>(
            sm.queue(), xui::usToCycles(3), [&k, &rng, &routes] {
                k.senduipi(routes[rng.nextBounded(routes.size())]);
                return true;
            }));
        traffic.push_back(std::make_unique<xui::PeriodicEvent>(
            sm.queue(), xui::usToCycles(4), [&k, &rng, &fwd_vectors] {
                const unsigned c = static_cast<unsigned>(
                    rng.nextBounded(kKernelCores));
                k.deviceInterrupt(c, static_cast<unsigned>(fwd_vectors[c]));
                return true;
            }));
        traffic.push_back(std::make_unique<xui::PeriodicEvent>(
            sm.queue(), xui::usToCycles(50), [&k, &rng, &spare] {
                const unsigned c = static_cast<unsigned>(
                    rng.nextBounded(kKernelCores));
                const xui::ThreadId out = k.runningOn(c);
                k.scheduleOn(spare, c);
                spare = out;
                return true;
            }));
        for (auto &d : traffic)
            d->startAfterPeriod();
        if (churn)
            for (unsigned c = 0; c < kKernelCores; ++c) {
                dogs.push_back(std::make_unique<Watchdog>(
                    sim->queue(), cellSeed(ctx.seed, ci) * 31 + c, clock));
                dogs.back()->arm();
            }
    }
    pass.setupS += setup.wallS();

    Stopwatch wall;
    {
        SpanLog::Scope s(log, "des", "runUntil", static_cast<int>(ci));
        sim->runUntil(kKernelDuration);
        s.exclude(clock.ns());
    }
    pass.wallS += wall.wallS();
    pass.cpuS += wall.cpuS();
    for (auto &d : traffic)
        d->stop();

    const std::uint64_t fired = sim->queue().firedCount();
    std::uint64_t heartbeats = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t cancelled = 0;
    for (const auto &d : dogs) {
        heartbeats += d->heartbeats;
        timeouts += d->timeouts;
        cancelled += d->cancelled;
    }
    cell.pin("events", fired);
    cell.pin("signals", kernel->signalsDelivered());
    cell.pin("handled", handled);
    cell.pin("heartbeats", heartbeats);
    cell.pin("timeouts", timeouts);
    cell.pin("pool_size", sim->queue().poolSize());
    cell.check(kernel->signalsDelivered() > 0, "no timer signal delivered");
    cell.check(handled >= kernel->signalsDelivered(),
               "fewer handler calls than signals delivered");
    // Each arm (one per dog, then one per heartbeat) sets a timeout
    // that is later cancelled, fires, or is still pending (at most
    // one per dog).
    const std::uint64_t arms = heartbeats + kKernelCores;
    cell.check(!churn || (timeouts + cancelled <= arms &&
                          timeouts + cancelled + kKernelCores >= arms),
               "watchdog timeouts neither fired, cancelled nor pending");
    // Cancel reclaims its slot: the pool stays at the peak number of
    // simultaneously pending events, not the number ever scheduled.
    cell.check(sim->queue().poolSize() < 64 * kKernelCores,
               "event pool grew with cancellations");
    pass.add("des.events", static_cast<double>(fired));
    pass.add("des.run_until_events", static_cast<double>(fired));
    pass.maxCount("des.pool_size",
                  static_cast<double>(sim->queue().poolSize()));
    if (ctx.traced)
        collectKernelCounters(reg, pass);
    pass.cells.push_back(std::move(cell));
}

} // namespace

PassResult
runDesServer(const PassContext &ctx)
{
    PassResult pass;
    std::size_t ci = 0;
    for (xui::PreemptMode m :
         {xui::PreemptMode::None, xui::PreemptMode::UipiSwTimer,
          xui::PreemptMode::XuiKbTimer})
        for (double rps : {150e3, 250e3, 320e3}) {
            const bool headline =
                m == xui::PreemptMode::XuiKbTimer && rps == 250e3;
            runKvCell(ctx, ci++, m, rps, headline, pass);
        }
    for (xui::RxMode m : {xui::RxMode::Polling, xui::RxMode::XuiForwarded}) {
        runL3FwdCell(ctx, ci++, m, 0.4, 1, pass);
        runL3FwdCell(ctx, ci++, m, 0.7, 4, pass);
    }
    runKernelCell(ctx, ci++, false, pass);
    runKernelCell(ctx, ci++, true, pass);
    return pass;
}

} // namespace perfbench
