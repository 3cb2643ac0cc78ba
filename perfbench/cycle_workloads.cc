/**
 * @file
 * The two cycle-tier workloads.
 *
 * cycle_stall: single cores running pointer chases of dependent
 * cache-missing loads (the paper's §6.1 sweep shape) under a periodic
 * 20 us KB timer, across chain lengths, SP feeding, working sets from
 * L1-sized to beyond the LLC, and the three delivery strategies.
 *
 * cycle_busy: high-IPC and store-heavy kernels receiving
 * DES-scheduled device interrupts through runCoSim, plus two-core
 * senduipi pairs, in all three delivery strategies.
 *
 * Every cell builds a fresh UarchSystem, so its modelled caches
 * start empty; --seed reaches the cells only through the system and
 * DES seeds, never through cell sizes.
 */

#include <functional>
#include <memory>
#include <string>

#include "des/simulation.hh"
#include "harness.hh"
#include "uarch/cosim.hh"
#include "uarch/uarch_system.hh"
#include "workloads/kernels.hh"

namespace perfbench
{

using xui::Cycles;
using xui::DeliveryStrategy;

namespace
{

constexpr DeliveryStrategy kModes[] = {
    DeliveryStrategy::Flush, DeliveryStrategy::Drain,
    DeliveryStrategy::Tracked};

const char *
modeName(DeliveryStrategy m)
{
    switch (m) {
      case DeliveryStrategy::Flush:
        return "flush";
      case DeliveryStrategy::Drain:
        return "drain";
      case DeliveryStrategy::Tracked:
        return "tracked";
    }
    return "?";
}

// ----- cycle_stall ----------------------------------------------------

struct StallCell
{
    unsigned chain;
    bool feedSp;
    std::uint64_t workingSet;
    const char *level;
    DeliveryStrategy mode;
    Cycles cycles;
};

std::vector<StallCell>
stallCells()
{
    // One chain shape per working-set level, each in all three
    // strategies; the LLC row is the §6.1 pathological case. Caches
    // start empty and a serial chain of misses touches only ~3k lines
    // in 600k cycles, so only sets that warm within the cell hit
    // their level: the L1 (16 KiB) and L2 (64 KiB) rows do; the
    // LLC-sized and larger rows stay memory-bound (the pinned
    // per-cell miss counts show it). The cache-resident rows commit
    // more work per cycle and run fewer cycles, keeping the rows'
    // host time comparable: high-IPC host code is also the most
    // sensitive to co-tenant load on the host core.
    struct Row
    {
        unsigned chain;
        bool feedSp;
        std::uint64_t ws;
        const char *level;
        Cycles cycles;
    };
    const Row rows[] = {
        {10, true, 16ull << 10, "l1", 200'000},
        {20, false, 64ull << 10, "l2", 400'000},
        {50, true, 16ull << 20, "llc", 600'000},
        {30, false, 128ull << 20, "dram", 600'000},
    };
    std::vector<StallCell> cells;
    for (const Row &r : rows)
        for (DeliveryStrategy m : kModes)
            cells.push_back({r.chain, r.feedSp, r.ws, r.level, m, r.cycles});
    return cells;
}

std::string
stallId(const StallCell &c)
{
    return "chase" + std::to_string(c.chain) + (c.feedSp ? "sp" : "") +
           "-" + c.level + "-" + modeName(c.mode);
}

} // namespace

PassResult
runCycleStall(const PassContext &ctx)
{
    SpanLog &log = *ctx.spans;
    PassResult pass;
    const std::vector<StallCell> cells = stallCells();
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const StallCell &c = cells[i];
        const int ci = static_cast<int>(i);
        CellResult cell;
        cell.id = stallId(c);
        SpanLog::Scope cell_span(log, "bench", "cell", ci);

        Stopwatch setup;
        std::unique_ptr<xui::Program> prog;
        {
            SpanLog::Scope s(log, "workloads", "build", ci);
            prog = std::make_unique<xui::Program>(
                xui::makePointerChase(c.chain, c.workingSet, c.feedSp));
        }
        std::unique_ptr<xui::UarchSystem> sys;
        xui::OooCore *core = nullptr;
        {
            SpanLog::Scope s(log, "uarch", "setup", ci);
            xui::CoreParams params;
            params.strategy = c.mode;
            sys = std::make_unique<xui::UarchSystem>(cellSeed(ctx.seed, i));
            core = &sys->addCore(params, prog.get());
            core->kbTimer().configure(true, 0x21);
            core->kbTimer().setTimer(0, xui::usToCycles(20),
                                     xui::KbTimerMode::Periodic);
        }
        pass.setupS += setup.wallS();

        Stopwatch sim;
        {
            SpanLog::Scope s(log, "uarch", "simulate", ci);
            core->runCycles(c.cycles);
        }
        pass.wallS += sim.wallS();
        pass.cpuS += sim.cpuS();

        collectCore(*core, "", cell, pass);
        cell.check(core->stats().interruptsDelivered > 0,
                   "no timer interrupt was delivered");
        if (c.chain == 50 && c.feedSp && c.mode == DeliveryStrategy::Tracked) {
            Cycles worst = 0;
            for (const xui::IntrRecord &r : core->stats().intrRecords)
                worst = std::max(worst, r.deliveryExecAt - r.raisedAt);
            pass.headline = static_cast<double>(worst);
        }
        pass.cells.push_back(std::move(cell));
    }
    return pass;
}

// ----- cycle_busy -----------------------------------------------------

namespace
{

struct BusyKernel
{
    const char *name;
    xui::Program (*build)(const xui::KernelOptions &);
};

constexpr BusyKernel kKernels[] = {
    {"fib", xui::makeFib},
    {"linpack", xui::makeLinpack},
    {"matmul", xui::makeMatmul},
    {"memops", xui::makeMemops},
    {"base64", xui::makeBase64},
};

/** Simulated cycles per busy cell. */
constexpr Cycles kBusyCycles = 200'000;
/** Forwarded device-interrupt vector. */
constexpr std::uint8_t kDeviceVector = 0x80;

struct BusyCell
{
    const BusyKernel *kernel;
    DeliveryStrategy mode;
    /** Add a senduipi sender core targeting the kernel's core. */
    bool senderPair;
};

std::vector<BusyCell>
busyCells()
{
    std::vector<BusyCell> cells;
    for (const BusyKernel &k : kKernels)
        for (DeliveryStrategy m : kModes)
            cells.push_back({&k, m, false});
    // senduipi pairs: one per strategy, receivers rotating kernels.
    cells.push_back({&kKernels[0], DeliveryStrategy::Flush, true});
    cells.push_back({&kKernels[3], DeliveryStrategy::Drain, true});
    cells.push_back({&kKernels[4], DeliveryStrategy::Tracked, true});
    return cells;
}

} // namespace

PassResult
runCycleBusy(const PassContext &ctx)
{
    SpanLog &log = *ctx.spans;
    PassResult pass;
    const std::vector<BusyCell> cells = busyCells();
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const BusyCell &c = cells[i];
        const int ci = static_cast<int>(i);
        CellResult cell;
        cell.id = std::string(c.senderPair ? "pair-" : "") + c.kernel->name +
                  "-" + modeName(c.mode);
        SpanLog::Scope cell_span(log, "bench", "cell", ci);

        Stopwatch setup;
        std::unique_ptr<xui::Program> prog;
        std::unique_ptr<xui::Program> sender_prog;
        {
            SpanLog::Scope s(log, "workloads", "build", ci);
            prog = std::make_unique<xui::Program>(c.kernel->build({}));
            if (c.senderPair)
                sender_prog = std::make_unique<xui::Program>(
                    xui::makeSenderLoop(0));
        }
        std::unique_ptr<xui::UarchSystem> sys;
        std::unique_ptr<xui::Simulation> des;
        xui::OooCore *core = nullptr;
        xui::OooCore *sender = nullptr;
        {
            SpanLog::Scope s(log, "uarch", "setup", ci);
            xui::CoreParams params;
            params.strategy = c.mode;
            sys = std::make_unique<xui::UarchSystem>(cellSeed(ctx.seed, i));
            core = &sys->addCore(params, prog.get());
            core->forwarding().enableVector(kDeviceVector);
            xui::Bitset256 active;
            active.set(kDeviceVector);
            core->forwarding().setActiveMask(active);
            if (c.senderPair) {
                sender = &sys->addCore(params, sender_prog.get());
                const int route = sys->registerRoute(*core, 5);
                cell.check(route == 0, "senduipi route is not UITT entry 0");
            }
            des = std::make_unique<xui::Simulation>(cellSeed(ctx.seed, i) + 1);
        }
        pass.setupS += setup.wallS();

        // Device arrivals every 4-12 us, jittered from the DES seed.
        xui::Rng arrivals = des->makeRng();
        std::function<void()> arm = [&] {
            des->queue().scheduleAfter(8000 + arrivals.nextBounded(16000),
                                       [&] {
                                           core->deviceInterrupt(kDeviceVector);
                                           arm();
                                       });
        };
        arm();

        Stopwatch sim;
        {
            SpanLog::Scope s(log, "uarch", "simulate", ci);
            xui::runCoSim(*des, *sys, kBusyCycles);
        }
        pass.wallS += sim.wallS();
        pass.cpuS += sim.cpuS();

        collectCore(*core, "", cell, pass);
        if (sender)
            collectCore(*sender, "sender.", cell, pass);
        const std::uint64_t fired = des->queue().firedCount();
        cell.pin("des_events", fired);
        cell.check(fired > 0, "no device interrupt was scheduled");
        cell.check(core->stats().interruptsDelivered > 0,
                   "no interrupt was delivered");
        pass.add("des.events", static_cast<double>(fired));
        pass.maxCount("des.pool_size",
                      static_cast<double>(des->queue().poolSize()));
        pass.cells.push_back(std::move(cell));
    }
    return pass;
}

} // namespace perfbench
