/**
 * @file
 * KV workload tests: load-generator statistics, a pinned digest of
 * the request stream, and the Fig. 7 server simulation shape.
 */

#include <gtest/gtest.h>

#include "kv/kvstore.hh"
#include "kv/server.hh"
#include "stats/digest.hh"
#include "stats/rng.hh"

using namespace xui;

// ----------------------------------------------------------------------
// Load generator
// ----------------------------------------------------------------------

TEST(KvLoadGen, MixAndRateMatchConfig)
{
    KvWorkloadParams params;
    KvLoadGen gen(params, 100000.0, Rng(5));
    std::uint64_t gets = 0, scans = 0;
    Cycles last = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        KvRequest r = gen.next();
        EXPECT_GE(r.arrival, last);
        last = r.arrival;
        (r.op == KvOp::Get ? gets : scans) += 1;
    }
    EXPECT_NEAR(static_cast<double>(gets) / n, 0.995, 0.002);
    // 100k rps -> mean gap 10us -> n requests span ~n*10us.
    double span_us = cyclesToUs(last);
    EXPECT_NEAR(span_us, n * 10.0, n * 10.0 * 0.05);
    EXPECT_GT(scans, 0u);
}

TEST(KvLoadGen, RequestStreamPinned)
{
    // FNV digests of the first 10k requests (id, arrival, op, service
    // time). At getFraction 0.5 every op draw exposes one bit of the
    // generator's stream, so a change in how many values a request
    // takes from it (e.g. dropping its key draw) moves the digest.
    struct Pin
    {
        double getFraction;
        std::uint64_t seed;
        std::uint64_t digest;
    };
    const Pin pins[] = {
        {0.995, 1, 0xa97ba94f110a751eull},
        {0.995, 2, 0xc1b6e803f2a91715ull},
        {0.995, 3, 0x46fb49ce3636c769ull},
        {0.5, 1, 0x9107f473736cda90ull},
        {0.5, 2, 0x7b07ddce101e1f1dull},
        {0.5, 3, 0xdbcc8a57f01d25abull},
    };
    for (const Pin &pin : pins) {
        KvWorkloadParams params;
        params.getFraction = pin.getFraction;
        KvLoadGen gen(params, 100000.0, Rng(pin.seed));
        Fnv1a h;
        for (int i = 0; i < 10000; ++i) {
            KvRequest r = gen.next();
            h.update(r.id);
            h.update(r.arrival);
            h.update(static_cast<std::uint64_t>(r.op));
            h.update(r.serviceTime);
        }
        EXPECT_EQ(h.value(), pin.digest)
            << "getFraction " << pin.getFraction << " seed "
            << pin.seed;
    }
}

// ----------------------------------------------------------------------
// Fig. 7 server shape
// ----------------------------------------------------------------------

namespace
{

KvServerResult
quickRun(PreemptMode mode, double rps)
{
    KvServerConfig cfg;
    cfg.mode = mode;
    cfg.offeredLoadRps = rps;
    cfg.duration = 100 * kCyclesPerMs;
    cfg.seed = 3;
    return runKvServer(cfg);
}

} // namespace

TEST(KvServer, NoPreemptionHolBlocksGets)
{
    KvServerResult r = quickRun(PreemptMode::None, 30000.0);
    ASSERT_GT(r.getLatency.count(), 100u);
    // Even at modest load, GET p99 suffers from 580us SCANs.
    EXPECT_GT(r.getLatency.p99(),
              static_cast<std::int64_t>(usToCycles(100)));
}

TEST(KvServer, PreemptionRescuesGetTail)
{
    KvServerResult none = quickRun(PreemptMode::None, 30000.0);
    KvServerResult xui = quickRun(PreemptMode::XuiKbTimer, 30000.0);
    ASSERT_GT(xui.getLatency.count(), 100u);
    EXPECT_LT(xui.getLatency.p99(), none.getLatency.p99() / 4);
}

TEST(KvServer, XuiOutperformsUipiAtHighLoad)
{
    // Near saturation the cheaper receive path shows up as lower
    // GET tail latency / higher effective capacity.
    KvServerResult uipi = quickRun(PreemptMode::UipiSwTimer,
                                   150000.0);
    KvServerResult xui = quickRun(PreemptMode::XuiKbTimer,
                                  150000.0);
    EXPECT_LT(xui.getLatency.p99(), uipi.getLatency.p99());
    EXPECT_GE(xui.completed, uipi.completed);
}

TEST(KvServer, UipiModeBurnsTimerCore)
{
    KvServerResult r = quickRun(PreemptMode::UipiSwTimer, 50000.0);
    EXPECT_GT(r.timerCoreUtilization, 0.0);
    KvServerResult x = quickRun(PreemptMode::XuiKbTimer, 50000.0);
    EXPECT_DOUBLE_EQ(x.timerCoreUtilization, 0.0);
}

TEST(KvServer, ScanLatencyElevatedByPreemption)
{
    KvServerResult none = quickRun(PreemptMode::None, 30000.0);
    KvServerResult xui = quickRun(PreemptMode::XuiKbTimer, 30000.0);
    ASSERT_GT(xui.scanLatency.count(), 5u);
    // SCANs pay for being preempted (paper: "slightly elevated
    // tail latencies for SCAN requests").
    EXPECT_GT(xui.scanLatency.p50(), none.scanLatency.p50());
}

TEST(KvServer, ThroughputTracksOfferedLoadBelowSaturation)
{
    KvServerResult r = quickRun(PreemptMode::XuiKbTimer, 50000.0);
    EXPECT_NEAR(r.achievedRps, 50000.0, 5000.0);
}
