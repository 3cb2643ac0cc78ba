/**
 * @file
 * Network tests: descriptor ring, pinned route and traffic
 * generation, NIC interrupt semantics, and the Fig. 8 l3fwd shape.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "net/l3fwd.hh"
#include "net/packet.hh"
#include "net/ring.hh"
#include "net/traffic.hh"
#include "stats/digest.hh"
#include "stats/rng.hh"

using namespace xui;

// ----------------------------------------------------------------------
// DescRing
// ----------------------------------------------------------------------

TEST(DescRing, FifoOrder)
{
    DescRing<int> r(8);
    for (int i = 0; i < 5; ++i)
        EXPECT_TRUE(r.push(i));
    int v;
    for (int i = 0; i < 5; ++i) {
        ASSERT_TRUE(r.pop(v));
        EXPECT_EQ(v, i);
    }
    EXPECT_FALSE(r.pop(v));
}

TEST(DescRing, FullRejects)
{
    DescRing<int> r(4);
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(r.push(i));
    EXPECT_TRUE(r.full());
    EXPECT_FALSE(r.push(99));
    int v;
    r.pop(v);
    EXPECT_TRUE(r.push(99));
}

TEST(DescRing, WrapsAround)
{
    DescRing<int> r(4);
    for (int round = 0; round < 10; ++round) {
        for (int i = 0; i < 3; ++i)
            ASSERT_TRUE(r.push(round * 10 + i));
        int v;
        for (int i = 0; i < 3; ++i) {
            ASSERT_TRUE(r.pop(v));
            EXPECT_EQ(v, round * 10 + i);
        }
    }
}

TEST(DescRing, SizeTracksOccupancy)
{
    DescRing<int> r(8);
    EXPECT_EQ(r.size(), 0u);
    r.push(1);
    r.push(2);
    EXPECT_EQ(r.size(), 2u);
    int v;
    r.pop(v);
    EXPECT_EQ(r.size(), 1u);
    EXPECT_EQ(r.front(), 2);
}

// ----------------------------------------------------------------------
// Traffic generation
// ----------------------------------------------------------------------

TEST(Traffic, RouteDrawsPinned)
{
    // FNV digest of each route list (prefix, depth, next hop) and the
    // stream's next value after it: both move if a draw is accepted
    // or discarded differently, or the generator takes a different
    // number of values. At 16000 routes the 512-group cap on deep
    // /24s binds; at 4000 and below it never does.
    struct Pin
    {
        std::size_t count;
        std::uint64_t seed;
        std::uint64_t digest;
        std::uint64_t nextValue;
    };
    const Pin pins[] = {
        {800, 1, 0x0c472c29eae4bef3ull, 0x03dafa7db60feb06ull},
        {800, 2, 0xf7b2b229f8ba9c88ull, 0xc5f6b67d48ef0c51ull},
        {800, 3, 0x79ff7cc43630f915ull, 0x9dbd196c8ea22eccull},
        {2000, 1, 0x6d4a83e0e41b82adull, 0x79c09632bff8ba2eull},
        {2000, 2, 0xcb93bb2ddbf06fcfull, 0x9510d359c99b6b41ull},
        {2000, 3, 0x2c1568dce0119d10ull, 0x81f5c2139c9b6af6ull},
        {4000, 1, 0x242bfed2d37ce1c0ull, 0x9ac84eac5a056d31ull},
        {4000, 2, 0x478e419cfd249e62ull, 0x8be77c53a1a1b954ull},
        {4000, 3, 0x440afe3802870975ull, 0x1f9bccdaaecce3b5ull},
        {16000, 1, 0xcdaf31a503bfb75full, 0x69e84daa383af004ull},
        {16000, 2, 0xf979380565f7974bull, 0xa422eb245f8e7902ull},
        {16000, 3, 0x89d34a9a507d65e1ull, 0x8bfb6d25eeb3dc96ull},
    };
    for (const Pin &pin : pins) {
        Rng rng(pin.seed);
        std::vector<RouteSpec> routes = randomRoutes(pin.count, rng);
        ASSERT_EQ(routes.size(), pin.count);
        Fnv1a h;
        for (const RouteSpec &r : routes) {
            h.update(r.prefix);
            h.update(r.depth);
            h.update(r.nextHop);
        }
        EXPECT_EQ(h.value(), pin.digest)
            << pin.count << " routes, seed " << pin.seed;
        EXPECT_EQ(rng.next(), pin.nextValue)
            << pin.count << " routes, seed " << pin.seed;
    }
}

TEST(Traffic, SixteenThousandRoutesInstall)
{
    Rng rng(123);
    std::vector<RouteSpec> routes = randomRoutes(16000, rng);
    EXPECT_EQ(routes.size(), 16000u);
    // The deep-route cap binds: exactly 512 distinct /24s hold a
    // route longer than /24.
    std::set<std::uint32_t> deep_slash24s;
    for (const RouteSpec &r : routes) {
        if (r.depth > 24)
            deep_slash24s.insert(r.prefix >> 8);
    }
    EXPECT_EQ(deep_slash24s.size(), 512u);
    // Every generated packet address falls inside some route.
    for (int i = 0; i < 2000; ++i) {
        std::uint32_t addr = randomCoveredIp(routes, rng);
        bool covered = std::any_of(
            routes.begin(), routes.end(), [addr](const RouteSpec &r) {
                std::uint32_t mask = r.depth == 32
                    ? 0xffffffffu
                    : ~(0xffffffffu >> r.depth);
                return (addr & mask) == r.prefix;
            });
        EXPECT_TRUE(covered) << "addr=" << addr;
    }
}

TEST(Traffic, ArrivalStreamPinned)
{
    // FNV digest of four NICs' arrival cycles and the stream's next
    // value after them, taken from the draw loop L3Fwd::run had
    // before drawArrivals existed. Each arrival's discarded
    // destination and source draws advance the stream that seeds
    // every later NIC, so dropping either draw moves NICs 1-3 and
    // the digest.
    struct Pin
    {
        std::uint64_t seed;
        std::uint64_t digest;
        std::uint64_t nextValue;
    };
    const Pin pins[] = {
        {1, 0xcf3e20eafb04b247ull, 0x95e814ec17f035d5ull},
        {2, 0xe7dd60dc1753d662ull, 0xbef91c0907fc7026ull},
        {3, 0x18dae3ded41ae577ull, 0x6bddb7def7bc9ccbull},
    };
    for (const Pin &pin : pins) {
        Rng rng(pin.seed);
        std::vector<RouteSpec> routes = randomRoutes(800, rng);
        std::vector<std::vector<Cycles>> arrivals =
            drawArrivals(routes, 4, 1.0 / 500.0, 200'000, rng);
        ASSERT_EQ(arrivals.size(), 4u);
        Fnv1a h;
        for (const std::vector<Cycles> &times : arrivals) {
            EXPECT_GT(times.size(), 300u);
            EXPECT_TRUE(std::is_sorted(times.begin(), times.end()));
            h.update(times.size());
            for (Cycles t : times) {
                EXPECT_LT(t, 200'000u);
                h.update(t);
            }
        }
        EXPECT_EQ(h.value(), pin.digest) << "seed " << pin.seed;
        EXPECT_EQ(rng.next(), pin.nextValue) << "seed " << pin.seed;
    }
}

// ----------------------------------------------------------------------
// NIC
// ----------------------------------------------------------------------

TEST(Nic, DeliverAndPoll)
{
    Nic nic(4);
    Packet p;
    p.id = 1;
    EXPECT_TRUE(nic.deliver(p));
    Packet out;
    EXPECT_TRUE(nic.poll(out));
    EXPECT_EQ(out.id, 1u);
    EXPECT_FALSE(nic.poll(out));
}

TEST(Nic, DropsWhenFull)
{
    Nic nic(2);
    Packet p;
    EXPECT_TRUE(nic.deliver(p));
    EXPECT_TRUE(nic.deliver(p));
    EXPECT_FALSE(nic.deliver(p));
    EXPECT_EQ(nic.dropped(), 1u);
    EXPECT_EQ(nic.received(), 2u);
}

TEST(Nic, InterruptOnEmptyToNonEmptyEdgeOnly)
{
    Nic nic(8);
    int interrupts = 0;
    nic.setInterruptHandler([&] { ++interrupts; });
    nic.armInterrupt(true);
    Packet p;
    nic.deliver(p);
    nic.deliver(p);  // queue already non-empty: no interrupt
    EXPECT_EQ(interrupts, 1);
    Packet out;
    nic.poll(out);
    nic.poll(out);
    nic.deliver(p);  // empty -> non-empty again
    EXPECT_EQ(interrupts, 2);
}

TEST(Nic, DisarmedNoInterrupt)
{
    Nic nic(8);
    int interrupts = 0;
    nic.setInterruptHandler([&] { ++interrupts; });
    nic.armInterrupt(false);
    Packet p;
    nic.deliver(p);
    EXPECT_EQ(interrupts, 0);
}

// ----------------------------------------------------------------------
// l3fwd (Fig. 8 shape)
// ----------------------------------------------------------------------

namespace
{

L3FwdResult
quickL3(RxMode mode, double load, unsigned nics)
{
    L3FwdConfig cfg;
    cfg.mode = mode;
    cfg.load = load;
    cfg.numNics = nics;
    cfg.duration = 20 * kCyclesPerMs;
    cfg.routeCount = 2000;  // keep the test fast
    cfg.seed = 77;
    return runL3Fwd(cfg);
}

} // namespace

TEST(L3Fwd, ForwardsAllOfferedBelowSaturation)
{
    L3FwdResult r = quickL3(RxMode::Polling, 0.4, 1);
    EXPECT_EQ(r.forwarded + r.dropped, r.offered);
    EXPECT_EQ(r.dropped, 0u);
}

TEST(L3Fwd, PollingBurnsWholeCore)
{
    L3FwdResult r = quickL3(RxMode::Polling, 0.4, 1);
    EXPECT_DOUBLE_EQ(r.freeFrac, 0.0);
    EXPECT_NEAR(r.networkingFrac + r.pollingFrac, 1.0, 1e-9);
    EXPECT_NEAR(r.networkingFrac, 0.4, 0.05);
}

TEST(L3Fwd, XuiFreesCycles)
{
    L3FwdResult r = quickL3(RxMode::XuiForwarded, 0.4, 1);
    // Paper: ~45% free at 40% load with one queue.
    EXPECT_GT(r.freeFrac, 0.3);
    EXPECT_LT(r.freeFrac, 0.6);
    EXPECT_GT(r.interrupts, 0u);
}

TEST(L3Fwd, XuiIdleFreesEverything)
{
    L3FwdResult r = quickL3(RxMode::XuiForwarded, 0.001, 1);
    EXPECT_GT(r.freeFrac, 0.95);
}

TEST(L3Fwd, ThroughputMatchesPollingAtHighLoad)
{
    L3FwdResult poll = quickL3(RxMode::Polling, 0.9, 1);
    L3FwdResult xui = quickL3(RxMode::XuiForwarded, 0.9, 1);
    ASSERT_GT(poll.forwarded, 1000u);
    double ratio = static_cast<double>(xui.forwarded) /
        static_cast<double>(poll.forwarded);
    // Paper: within 0.08%; allow simulation noise.
    EXPECT_NEAR(ratio, 1.0, 0.02);
}

TEST(L3Fwd, LatencyComparableToPolling)
{
    L3FwdResult poll = quickL3(RxMode::Polling, 0.4, 1);
    L3FwdResult xui = quickL3(RxMode::XuiForwarded, 0.4, 1);
    // p95 within a small factor (paper: +2% for 1 NIC).
    EXPECT_LT(static_cast<double>(xui.latency.p95()),
              1.5 * static_cast<double>(poll.latency.p95()));
}

TEST(L3Fwd, MwaitFreesCyclesWithOneQueueOnly)
{
    // §2: mwait can only monitor a single cache line, so its
    // benefit disappears beyond one RX queue.
    L3FwdResult one = quickL3(RxMode::MwaitSingleQueue, 0.4, 1);
    EXPECT_GT(one.freeFrac, 0.5);
    L3FwdResult two = quickL3(RxMode::MwaitSingleQueue, 0.4, 2);
    EXPECT_DOUBLE_EQ(two.freeFrac, 0.0);
}

TEST(L3Fwd, MwaitSameThroughputAsPolling)
{
    L3FwdResult poll = quickL3(RxMode::Polling, 0.5, 1);
    L3FwdResult mwait = quickL3(RxMode::MwaitSingleQueue, 0.5, 1);
    double ratio = static_cast<double>(mwait.forwarded) /
        static_cast<double>(poll.forwarded);
    EXPECT_NEAR(ratio, 1.0, 0.02);
}

TEST(L3Fwd, MwaitWakeSlowerThanPollDetect)
{
    L3FwdResult poll = quickL3(RxMode::Polling, 0.1, 1);
    L3FwdResult mwait = quickL3(RxMode::MwaitSingleQueue, 0.1, 1);
    // C-state exit costs more than a positive poll.
    EXPECT_GE(mwait.latency.p50(), poll.latency.p50());
}

TEST(L3Fwd, PendingEventsStayOrderOfNics)
{
    // Arrivals are fed one per NIC, so the event pool peaks near the
    // NIC count (one arrival per NIC plus the service loop and its
    // timers), not at the number of packets offered.
    for (RxMode mode : {RxMode::Polling, RxMode::XuiForwarded}) {
        for (unsigned nics : {1u, 4u, 8u}) {
            L3FwdResult r = quickL3(mode, 0.7, nics);
            ASSERT_GT(r.offered, 10000u);
            EXPECT_GE(r.eventPoolSize, nics);
            EXPECT_LE(r.eventPoolSize, nics + 2)
                << nics << " nics, mode " << static_cast<int>(mode);
        }
    }
}

TEST(L3Fwd, MultiQueueStillConservesPackets)
{
    for (unsigned nics : {2u, 4u, 8u}) {
        L3FwdResult r = quickL3(RxMode::XuiForwarded, 0.4, nics);
        EXPECT_EQ(r.forwarded + r.dropped, r.offered)
            << nics << " nics";
        EXPECT_GT(r.freeFrac, 0.2) << nics << " nics";
    }
}
