/**
 * @file
 * Layer-3 router (the Fig. 8 scenario): one core forwarding 64-byte
 * packets addressed at 16,000 routes from 4 NIC queues, comparing
 * DPDK-style spin polling against xUI interrupt forwarding.
 *
 * Build & run:  ./examples/l3fwd_router
 */

#include <cstdio>

#include "core/xui.hh"

using namespace xui;

int
main()
{
    std::printf("l3fwd, 4 NIC queues, 16k routes, 40%% load:\n\n");
    for (RxMode mode : {RxMode::Polling, RxMode::XuiForwarded}) {
        L3FwdConfig cfg;
        cfg.mode = mode;
        cfg.numNics = 4;
        cfg.load = 0.4;
        cfg.duration = 50 * kCyclesPerMs;
        cfg.routeCount = 16000;
        cfg.seed = 11;
        L3FwdResult r = runL3Fwd(cfg);
        std::printf("%-18s forwarded %7llu pkts  p95 %5.2f us  "
                    "cycles: net %4.1f%%  poll %4.1f%%  notif "
                    "%4.1f%%  FREE %4.1f%%\n",
                    mode == RxMode::Polling ? "spin polling"
                                            : "xUI forwarding",
                    (unsigned long long)r.forwarded,
                    cyclesToUs((Cycles)r.latency.p95()),
                    r.networkingFrac * 100, r.pollingFrac * 100,
                    r.notificationFrac * 100, r.freeFrac * 100);
    }
    std::printf("\nSame throughput and latency — but xUI leaves the "
                "idle cycles free for other\nwork or power savings "
                "instead of burning them in the poll loop.\n");
    return 0;
}
