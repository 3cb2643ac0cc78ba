/**
 * @file
 * Figure 9 reproduction: latency and efficiency of DSA completion
 * delivery — busy spinning vs periodic polling (OS interval timer)
 * vs xUI forwarded interrupts, for 2 us and 20 us offloads, sweeping
 * response-time unpredictability (noise).
 */

#include <iostream>

#include "bench_util.hh"
#include "accel/client.hh"
#include "obs/session.hh"
#include "obs_util.hh"
#include "stats/table.hh"

using namespace xui;

int
main(int argc, char **argv)
{
    bench::Options opts;
    exec::FlagSet flags;
    bench::declareQuickSeed(flags, opts);
    bench::declareObs(flags, opts);
    flags.parse(argc, argv);
    bench::banner(
        "Figure 9: Optimizing latency and efficiency of DSA "
        "response delivery",
        "xUI paper, Fig. 9 (free cycles and delivery latency vs "
        "noise; 2us / 20us offloads)");

    Cycles duration = (opts.quick ? 30 : 150) * kCyclesPerMs;

    for (double base_us : {2.0, 20.0}) {
        TablePrinter t(
            TablePrinter::num(base_us, 0) +
            " us offloads (free cycle fraction / mean delivery "
            "latency in us)");
        t.setHeader({"Noise", "spin free", "poll free", "xUI free",
                     "spin lat", "poll lat", "xUI lat", "xUI IOPS"});
        for (double noise : {0.0, 0.1, 0.2, 0.3, 0.4, 0.5}) {
            DsaClientResult res[3];
            const WaitStrategy strategies[] = {
                WaitStrategy::BusySpin, WaitStrategy::PeriodicPoll,
                WaitStrategy::XuiInterrupt};
            for (int s = 0; s < 3; ++s) {
                DsaClientConfig cfg;
                cfg.strategy = strategies[s];
                cfg.latency.meanServiceTime = usToCycles(base_us);
                cfg.latency.noiseFraction = noise;
                cfg.duration = duration;
                cfg.seed = opts.seed;
                res[s] = runDsaClient(cfg);
            }
            auto lat_us = [](const DsaClientResult &r) {
                return TablePrinter::num(
                    cyclesToUs(static_cast<Cycles>(
                        r.deliveryLatency.mean())),
                    2);
            };
            t.addRow({TablePrinter::percent(noise, 0),
                      TablePrinter::percent(res[0].freeFrac, 1),
                      TablePrinter::percent(res[1].freeFrac, 1),
                      TablePrinter::percent(res[2].freeFrac, 1),
                      lat_us(res[0]), lat_us(res[1]), lat_us(res[2]),
                      TablePrinter::num(res[2].ipos, 0)});
        }
        t.print(std::cout);
        std::cout << '\n';
    }
    std::cout
        << "Paper anchors: spin burns the core but minimizes "
           "latency; periodic polling frees\ncycles but its latency "
           "rises sharply with noise for 20us requests; xUI stays\n"
           "within 0.2us of spinning at all noise levels and frees "
           "~75% of cycles for 2us\noffloads (~50K IOPS for 20us "
           "offloads).\n";

    // Observability run: one xUI-interrupt client run with dsa.*
    // metrics and per-offload trace spans attached.
    ObsSession obs(opts.metricsJson, opts.traceJson);
    if (obs.enabled()) {
        DsaClientConfig cfg;
        cfg.strategy = WaitStrategy::XuiInterrupt;
        cfg.latency.meanServiceTime = usToCycles(2.0);
        cfg.latency.noiseFraction = 0.2;
        cfg.duration = (opts.quick ? 10 : 50) * kCyclesPerMs;
        cfg.seed = opts.seed;
        cfg.metrics = obs.metrics();
        cfg.traceOut = obs.trace();
        runDsaClient(cfg);
    }
    bench::runObsScenario(obs, opts);
    return obs.finish();
}
