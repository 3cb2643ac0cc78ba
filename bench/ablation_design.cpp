/**
 * @file
 * Ablation studies for the design choices DESIGN.md calls out:
 *
 *  1. Delivery strategy vs instruction-window size — the paper
 *     argues flushing/draining get *worse* as ROBs grow (§2, §4.2);
 *     tracking should be insensitive.
 *  2. Safepoint density — how sparse can safepoints be before
 *     delivery latency suffers (precision is free, latency is not).
 *  3. Re-injection under branch-misprediction pressure — tracked
 *     interrupts must never be lost no matter how often the
 *     microcode is squashed.
 *  4. umwait vs polling vs xUI in l3fwd — mwait only monitors one
 *     queue (§2), so its benefit evaporates with multiple NICs.
 */

#include <iostream>

#include "bench_util.hh"
#include "net/l3fwd.hh"
#include "obs_util.hh"
#include "stats/table.hh"
#include "uarch/uarch_system.hh"
#include "workloads/kernels.hh"

using namespace xui;

namespace
{

/** Throughput cost per interrupt: extra cycles to commit the same
 * instruction count, divided by deliveries. This is the quantity
 * that captures flush's *discarded work*, which grows with the
 * instruction window (paper §2, §4.2). */
double
perEventThroughputCost(DeliveryStrategy strategy,
                       unsigned rob_size, std::uint64_t insts)
{
    Program prog = makeFib();
    CoreParams params;
    params.strategy = strategy;
    params.robSize = rob_size;
    params.iqSize = rob_size / 2;

    Cycles base;
    {
        UarchSystem sys(5);
        OooCore &core = sys.addCore(params, &prog);
        base = core.runUntilCommitted(insts, insts * 900);
    }
    UarchSystem sys(5);
    OooCore &core = sys.addCore(params, &prog);
    core.kbTimer().configure(true, 0x21);
    core.kbTimer().setTimer(0, usToCycles(5),
                            KbTimerMode::Periodic);
    Cycles with = core.runUntilCommitted(insts, insts * 900);
    std::uint64_t events = core.stats().interruptsDelivered;
    if (events == 0)
        return 0.0;
    double delta = static_cast<double>(with) -
        static_cast<double>(base);
    return std::max(0.0, delta / static_cast<double>(events));
}

void
robSweep(std::uint64_t insts)
{
    TablePrinter t("Ablation 1: per-event throughput cost (cycles "
                   "of lost progress) vs ROB size");
    t.setHeader({"ROB", "Flush", "Drain", "Tracked"});
    for (unsigned rob : {192u, 384u, 768u}) {
        double f = perEventThroughputCost(DeliveryStrategy::Flush,
                                          rob, insts);
        double d = perEventThroughputCost(DeliveryStrategy::Drain,
                                          rob, insts);
        double tr = perEventThroughputCost(
            DeliveryStrategy::Tracked, rob, insts);
        t.addRow({TablePrinter::integer(rob),
                  TablePrinter::num(f, 0), TablePrinter::num(d, 0),
                  TablePrinter::num(tr, 0)});
    }
    t.print(std::cout);
    std::cout
        << "(Flush pays the full delivery downtime at every window "
           "size because the squashed\n backlog must be redone "
           "afterwards; tracking overlaps delivery with the "
           "in-flight\n window completely, at any ROB size — the "
           "paper's §4.2 argument.)\n\n";
}

void
safepointDensity(std::uint64_t insts)
{
    TablePrinter t("Ablation 2: safepoint density vs delivery "
                   "latency (tracked + safepoint mode)");
    t.setHeader({"Insts between safepoints", "Accept->handler "
                 "(cycles)", "Delivered"});
    for (unsigned gap : {8u, 32u, 128u, 512u}) {
        ProgramBuilder b("spgap");
        std::uint32_t top = b.here();
        for (unsigned i = 0; i < gap; ++i)
            b.intAlu(static_cast<std::uint8_t>(
                         reg::kGpr0 + 1 + (i % 6)),
                     static_cast<std::uint8_t>(
                         reg::kGpr0 + 1 + (i % 6)));
        b.safepoint();
        b.jump(top);
        b.beginHandler();
        b.intAlu(reg::kGpr0 + 12, reg::kGpr0 + 12);
        b.uiret();
        Program prog = b.build();

        CoreParams params;
        params.strategy = DeliveryStrategy::Tracked;
        params.safepointMode = true;
        UarchSystem sys(6);
        OooCore &core = sys.addCore(params, &prog);
        core.kbTimer().configure(true, 0x21);
        core.kbTimer().setTimer(0, usToCycles(5),
                                KbTimerMode::Periodic);
        core.runUntilCommitted(insts, insts * 900);
        const auto &recs = core.stats().intrRecords;
        double sum = 0;
        for (const auto &r : recs)
            sum += static_cast<double>(r.deliveryExecAt -
                                       r.acceptedAt);
        t.addRow({TablePrinter::integer(gap),
                  TablePrinter::num(
                      recs.empty()
                          ? 0
                          : sum / static_cast<double>(recs.size()),
                      0),
                  TablePrinter::integer(static_cast<std::int64_t>(
                      recs.size()))});
    }
    t.print(std::cout);
    std::cout << "(Delivery waits for the next safepoint; density "
                 "is the compiler's latency knob.)\n\n";
}

void
reinjectionPressure(std::uint64_t insts)
{
    TablePrinter t("Ablation 3: tracked re-injection under "
                   "misprediction pressure");
    t.setHeader({"Branch p(taken)", "Mispredicts", "Re-injections",
                 "Raised", "Delivered"});
    for (double p : {0.0, 0.1, 0.3, 0.5}) {
        ProgramBuilder b("noisy");
        std::uint32_t top = b.here();
        b.intAlu(reg::kGpr0 + 1, reg::kGpr0 + 1);
        if (p > 0)
            b.randomBranch(top, p);
        b.intAlu(reg::kGpr0 + 2, reg::kGpr0 + 2);
        b.jump(top);
        b.beginHandler();
        b.intAlu(reg::kGpr0 + 12, reg::kGpr0 + 12);
        b.uiret();
        Program prog = b.build();

        CoreParams params;
        params.strategy = DeliveryStrategy::Tracked;
        UarchSystem sys(7);
        OooCore &core = sys.addCore(params, &prog);
        core.kbTimer().configure(true, 0x21);
        core.kbTimer().setTimer(0, usToCycles(2),
                                KbTimerMode::Periodic);
        core.runUntilCommitted(insts, insts * 900);
        const auto &s = core.stats();
        t.addRow({TablePrinter::num(p, 1),
                  TablePrinter::integer(static_cast<std::int64_t>(
                      s.branchMispredicts)),
                  TablePrinter::integer(static_cast<std::int64_t>(
                      s.reinjections)),
                  TablePrinter::integer(static_cast<std::int64_t>(
                      s.interruptsRaised)),
                  TablePrinter::integer(static_cast<std::int64_t>(
                      s.interruptsDelivered))});
    }
    t.print(std::cout);
    std::cout << "(Raised - delivered <= 1 at every pressure level: "
                 "squashed microcode is always\n re-injected, the "
                 "paper's Fig. 3 guarantee.)\n\n";
}

void
mwaitComparison(bool quick)
{
    TablePrinter t("Ablation 4: umwait vs polling vs xUI in l3fwd "
                   "(free cycles at 40% load)");
    t.setHeader({"NICs", "Polling", "umwait (1 queue)", "xUI"});
    for (unsigned nics : {1u, 2u, 4u}) {
        std::vector<std::string> row{TablePrinter::integer(nics)};
        for (RxMode mode : {RxMode::Polling,
                            RxMode::MwaitSingleQueue,
                            RxMode::XuiForwarded}) {
            L3FwdConfig cfg;
            cfg.mode = mode;
            cfg.numNics = nics;
            cfg.load = 0.4;
            cfg.duration = (quick ? 10 : 40) * kCyclesPerMs;
            cfg.routeCount = 2000;
            cfg.seed = 8;
            L3FwdResult r = runL3Fwd(cfg);
            row.push_back(TablePrinter::percent(r.freeFrac, 1));
        }
        t.addRow(row);
    }
    t.print(std::cout);
    std::cout << "(§2: mwait idles on a single line only — its "
                 "benefit disappears beyond one queue,\n while xUI "
                 "forwarding scales with queue count.)\n";
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Options opts;
    exec::FlagSet flags;
    bench::declareQuickSeed(flags, opts);
    bench::declareObs(flags, opts);
    flags.parse(argc, argv);
    bench::banner("Ablations: xUI design choices",
                  "DESIGN.md §4 (strategy vs window, safepoint "
                  "density, re-injection, mwait)");
    std::uint64_t insts = opts.quick ? 60000 : 250000;
    robSweep(insts);
    safepointDensity(insts);
    reinjectionPressure(insts);
    mwaitComparison(opts.quick);

    ObsSession obs(opts.metricsJson, opts.traceJson);
    bench::runObsScenario(obs, opts);
    return obs.finish();
}
