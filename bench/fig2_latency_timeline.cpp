/**
 * @file
 * Figure 2 reproduction: the UIPI latency timeline — per-step costs
 * of delivering a posted user interrupt, from senduipi on the sender
 * to uiret on the receiver. Also reproduces the §3.5 deconstruction
 * experiments that identified the flush strategy: (1) end-to-end
 * latency is independent of the in-flight dependence chain under
 * flushing, and (2) squashed micro-ops grow linearly with the number
 * of interrupts received.
 */

#include <iostream>
#include <vector>

#include "bench_util.hh"
#include "core/calibration.hh"
#include "exec/sweep.hh"
#include "obs_util.hh"
#include "stats/table.hh"
#include "uarch/uarch_system.hh"
#include "workloads/kernels.hh"

using namespace xui;

namespace
{

/** §3.5 experiment 1: pointer-chase working-set sweep. */
void
flushDetectionSweep(bool quick, unsigned jobs)
{
    struct WsPoint
    {
        double missrate = 0;
        double lat = 0;
        double squashed = 0;
    };
    const std::vector<std::uint64_t> sets{
        std::uint64_t{16} << 10, std::uint64_t{256} << 10,
        std::uint64_t{4} << 20, std::uint64_t{64} << 20};
    // One job per working set; each owns its UarchSystem, so the
    // sweep parallelizes without perturbing any simulated number.
    std::vector<WsPoint> points = exec::sweep(
        sets.size(), jobs, [&](std::size_t i) {
            const std::uint64_t ws = sets[i];
            Program prog = makePointerChase(16, ws, false);
            CoreParams params;
            params.strategy = DeliveryStrategy::Flush;
            UarchSystem sys(3);
            OooCore &core = sys.addCore(params, &prog);
            core.kbTimer().configure(true, 0x21);
            core.kbTimer().setTimer(0, usToCycles(20),
                                    KbTimerMode::Periodic);
            core.runCycles(quick ? 300000 : 1200000);

            const auto &recs = core.stats().intrRecords;
            WsPoint p;
            for (const auto &r : recs)
                p.lat += static_cast<double>(r.deliveryCommitAt -
                                             r.raisedAt);
            p.lat = recs.empty()
                ? 0
                : p.lat / static_cast<double>(recs.size());
            p.missrate =
                core.mem().l1().misses() /
                std::max(1.0, static_cast<double>(
                                  core.mem().l1().misses() +
                                  core.mem().l1().hits()));
            p.squashed = recs.empty()
                ? 0
                : static_cast<double>(core.stats().squashedUops) /
                    static_cast<double>(recs.size());
            return p;
        });

    TablePrinter t("\nSection 3.5: e2e latency vs in-flight miss "
                   "chain (flush => flat)");
    t.setHeader({"Working set", "L1 misses/load", "Delivery latency",
                 "Squashed uops/intr"});
    for (std::size_t i = 0; i < sets.size(); ++i) {
        const std::uint64_t ws = sets[i];
        const WsPoint &p = points[i];
        char wsbuf[32];
        if (ws >= (1ull << 20))
            std::snprintf(wsbuf, sizeof(wsbuf), "%llu MB",
                          (unsigned long long)(ws >> 20));
        else
            std::snprintf(wsbuf, sizeof(wsbuf), "%llu KB",
                          (unsigned long long)(ws >> 10));
        t.addRow({wsbuf, TablePrinter::percent(p.missrate, 1),
                  TablePrinter::num(p.lat, 0),
                  TablePrinter::num(p.squashed, 0)});
    }
    t.print(std::cout);
    std::cout << "(Flat delivery latency across working sets => the "
                 "core flushes rather than drains,\n matching the "
                 "paper's conclusion for Sapphire Rapids.)\n";
}

/** §3.5 experiment 2: squashed uops scale linearly in interrupts. */
void
squashLinearity(bool quick, unsigned jobs)
{
    struct SquashPoint
    {
        std::uint64_t delivered = 0;
        std::uint64_t squashed = 0;
    };
    const Cycles run = quick ? 400000 : 2000000;
    const std::vector<Cycles> periods{usToCycles(50), usToCycles(20),
                                      usToCycles(10), usToCycles(5)};
    std::vector<SquashPoint> points = exec::sweep(
        periods.size(), jobs, [&](std::size_t i) {
            Program prog = makeFib();
            CoreParams params;
            params.strategy = DeliveryStrategy::Flush;
            UarchSystem sys(4);
            OooCore &core = sys.addCore(params, &prog);
            core.kbTimer().configure(true, 0x21);
            core.kbTimer().setTimer(0, periods[i],
                                    KbTimerMode::Periodic);
            core.runCycles(run);
            // Subtract the mispredict-squash background measured
            // with the same program and no interrupts.
            UarchSystem sys0(4);
            OooCore &base = sys0.addCore(CoreParams{}, &prog);
            base.runCycles(run);
            SquashPoint p;
            p.delivered = core.stats().interruptsDelivered;
            p.squashed =
                core.stats().squashedUops > base.stats().squashedUops
                    ? core.stats().squashedUops -
                        base.stats().squashedUops
                    : 0;
            return p;
        });

    TablePrinter t("\nSection 3.5: flushed uops vs interrupts "
                   "received (linear => flush)");
    t.setHeader({"Interrupts", "Squashed uops", "Uops/interrupt"});
    for (const SquashPoint &p : points) {
        t.addRow({TablePrinter::integer(
                      static_cast<std::int64_t>(p.delivered)),
                  TablePrinter::integer(
                      static_cast<std::int64_t>(p.squashed)),
                  TablePrinter::num(
                      p.delivered ? static_cast<double>(p.squashed) /
                              static_cast<double>(p.delivered)
                                  : 0.0,
                      0)});
    }
    t.print(std::cout);
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Options opts;
    exec::FlagSet flags;
    bench::declareQuickSeed(flags, opts);
    bench::declareObs(flags, opts);
    flags.jobs(opts.jobs);
    flags.parse(argc, argv);
    bench::banner("Figure 2: UIPI latency timeline",
                  "xUI paper, Fig. 2 + Section 3.5 deconstruction");

    CalibrationResult c = calibrateFromCycleSim(opts.quick);

    TablePrinter t("UIPI delivery timeline (cycles @ 2 GHz)");
    t.setHeader({"Step", "Paper (SPR)", "Simulated"});
    t.addRow({"senduipi execution (sender)", "~380*",
              TablePrinter::num(c.senduipiCost, 0)});
    t.addRow({"IPI wire (ICR write -> receiver APIC)", "(in 380)",
              TablePrinter::num(c.ipiArrival, 0)});
    t.addRow({"flush + ucode entry -> first notify event", "424",
              TablePrinter::num(c.notifyStart, 0)});
    t.addRow({"notification + delivery", "262",
              TablePrinter::num(c.deliveryDone, 0)});
    t.addRow({"uiret", "10", TablePrinter::num(c.uiretCost, 0)});
    t.addRule();
    t.addRow({"end-to-end (send -> handler)", "~1066-1360",
              TablePrinter::num(c.endToEndLatency, 0)});
    t.print(std::cout);
    std::cout << "(*paper measures senduipi-start to receiver "
                 "interruption as 380 cycles)\n";

    flushDetectionSweep(opts.quick, opts.jobs);
    squashLinearity(opts.quick, opts.jobs);

    ObsSession obs(opts.metricsJson, opts.traceJson);
    bench::runObsScenario(obs, opts);
    return obs.finish();
}
