/**
 * @file
 * First unit coverage for the synthetic workload kernels
 * (src/workloads/kernels.*). Two layers of pins:
 *
 *  - structural pins: program length and handler entry point per
 *    kernel and per instrumentation mode. These catch accidental
 *    changes to the generated instruction mix (an extra op shifts
 *    every PC and silently invalidates all recorded digests);
 *  - behavioural pins: full/arch digests, committed-instruction
 *    counts, cycle counts and delivered-interrupt counts from a
 *    fixed-seed run of each kernel on the cycle-level core, with
 *    and without KB-timer interrupt pressure.
 *
 * The behavioural goldens were captured before the simulator
 * hot-path overhaul (calendar event queue, writeback wheel,
 * run-to-next-wakeup) and verified bit-identical after it; they pin
 * the architectural timeline, not just the final state.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "intr/policy.hh"
#include "kv/server.hh"
#include "net/l3fwd.hh"
#include "stats/digest.hh"
#include "uarch/uarch_system.hh"
#include "verify/digest_tracer.hh"
#include "workloads/kernels.hh"

using namespace xui;

namespace
{

struct SizePin
{
    const char *name;
    Program prog;
    std::uint32_t size;
    std::uint32_t handlerEntry;
};

struct KernelGolden
{
    const char *name;
    Program prog;
    bool timer;
    std::uint64_t committedInsts;
    Cycles cycles;
    std::uint64_t fullDigest;
    std::uint64_t archDigest;
    std::uint64_t delivered;
};

/** The fixed capture recipe behind every behavioural golden. */
void
runKernelGolden(const KernelGolden &g)
{
    CoreParams params;
    params.strategy = DeliveryStrategy::Flush;
    UarchSystem sys(7);
    OooCore &core = sys.addCore(params, &g.prog);
    DigestTracer digest;
    sys.setProbe(&digest);
    if (g.timer) {
        core.kbTimer().configure(true, 0x21);
        core.kbTimer().setTimer(0, 300, KbTimerMode::Periodic);
    }
    core.runUntilCommitted(3000, 400000);

    EXPECT_EQ(core.stats().committedInsts, g.committedInsts)
        << g.name << " timer=" << g.timer;
    EXPECT_EQ(core.now(), g.cycles) << g.name << " timer=" << g.timer;
    EXPECT_EQ(digest.fullDigest(), g.fullDigest)
        << g.name << " timer=" << g.timer;
    EXPECT_EQ(digest.archDigest(), g.archDigest)
        << g.name << " timer=" << g.timer;
    EXPECT_EQ(core.stats().interruptsDelivered, g.delivered)
        << g.name << " timer=" << g.timer;
}

} // namespace

TEST(WorkloadKernels, ProgramSizesAndHandlerEntriesPinned)
{
    SizePin pins[] = {
        {"fib", makeFib(), 15, 10},
        {"linpack", makeLinpack(), 13, 8},
        {"memops", makeMemops(), 12, 7},
        {"matmul", makeMatmul(), 13, 8},
        {"base64", makeBase64(), 14, 9},
        {"pointer_chase", makePointerChase(16, 1ull << 16, false),
         22, 17},
        {"spin_loop", makeSpinLoop(), 8, 3},
        {"sender_loop", makeSenderLoop(0), 8, 3},
    };
    for (const SizePin &p : pins) {
        EXPECT_EQ(p.prog.size(), p.size) << p.name;
        EXPECT_EQ(p.prog.handlerEntry(), p.handlerEntry) << p.name;
    }
}

TEST(WorkloadKernels, InstrumentationChangesShapePredictably)
{
    // Polling adds a load + branch at the back edge; safepoints are
    // single ops folded into existing slots; no handler drops the
    // handler region entirely.
    KernelOptions polling;
    polling.instr = Instrumentation::Polling;
    Program fibPolling = makeFib(polling);
    EXPECT_EQ(fibPolling.size(), 17u);

    KernelOptions safepoint;
    safepoint.instr = Instrumentation::Safepoint;
    Program fibSafepoint = makeFib(safepoint);
    EXPECT_EQ(fibSafepoint.size(), 15u);

    KernelOptions bare;
    bare.withHandler = false;
    Program fibBare = makeFib(bare);
    EXPECT_EQ(fibBare.size(), 10u);
    EXPECT_EQ(fibBare.handlerEntry(), Program::kNoHandler);
}

TEST(WorkloadKernels, SingleCoreGoldensPinned)
{
    KernelGolden goldens[] = {
        // {name, prog, timer, insts, cycles, full, arch, delivered}
        {"fib", makeFib(), false, 3000, 2767,
         0x31b92cd630a35cfcull, 0x04b863b2f4781b6bull, 0},
        {"fib", makeFib(), true, 3000, 23061,
         0xb7bc7a50e1dc33adull, 0x36293302b06fe02aull, 38},
        {"linpack", makeLinpack(), false, 3005, 2202,
         0x431db917f2a59757ull, 0x58d3c655ca14e123ull, 0},
        {"linpack", makeLinpack(), true, 3003, 14681,
         0xac53b3f5a579e5f5ull, 0xe2c7843018e36586ull, 24},
        {"memops", makeMemops(), false, 3001, 3320,
         0x176ed2e6cd717d0full, 0x2db2a752ffc5fc03ull, 0},
        {"memops", makeMemops(), true, 3000, 12276,
         0xf69bc2a2a55ab4c5ull, 0x491a110abae3fea2ull, 20},
        {"matmul", makeMatmul(), false, 3005, 2502,
         0x3ec282f59f2b2a94ull, 0x44212bcae877e1e6ull, 0},
        {"matmul", makeMatmul(), true, 3002, 21868,
         0x0c0fbcb7ec69eeb7ull, 0x36c9866a27343401ull, 36},
        {"base64", makeBase64(), false, 3003, 2389,
         0x2d24406fca01d01dull, 0x17d782c31e784e0dull, 0},
        {"base64", makeBase64(), true, 3000, 19438,
         0x48ff47e13eedbf20ull, 0x86a4b91f7b272484ull, 32},
        {"pointer_chase", makePointerChase(16, 1ull << 16, false),
         false, 3000, 229535,
         0xf8b6e52d7985b832ull, 0xe65b2da1dda50d25ull, 0},
        {"pointer_chase", makePointerChase(16, 1ull << 16, false),
         true, 3000, 327221,
         0xd4efc322520c4404ull, 0xdd74972c6e4781e2ull, 545},
        {"spin_loop", makeSpinLoop(), false, 3001, 1031,
         0x7335c1138a3e1c29ull, 0xe8bb0c0369ab3045ull, 0},
        {"spin_loop", makeSpinLoop(), true, 3001, 9271,
         0x0adba350aef58b60ull, 0x6b59d091c7a83982ull, 15},
    };
    for (const KernelGolden &g : goldens)
        runKernelGolden(g);
}

TEST(WorkloadKernels, SenderReceiverGoldenPinned)
{
    // Table 2 shape: a spin-loop receiver registered for vector
    // 0x21, a sender core issuing senduipi at it through the UITT.
    CoreParams params;
    UarchSystem sys(11);
    Program recvProg = makeSpinLoop();
    OooCore &recv = sys.addCore(params, &recvProg);
    int idx = sys.registerRoute(recv, 0x21);
    ASSERT_GE(idx, 0);
    Program sendProg = makeSenderLoop(static_cast<unsigned>(idx));
    OooCore &send = sys.addCore(params, &sendProg);
    DigestTracer digest;
    sys.setProbe(&digest);
    sys.run(200000);

    EXPECT_EQ(digest.fullDigest(), 0x0627f346b4347db0ull);
    EXPECT_EQ(digest.archDigest(), 0xf8bdc460b40d4aa1ull);
    EXPECT_EQ(send.stats().committedInsts, 1572u);
    EXPECT_EQ(recv.stats().interruptsDelivered, 261u);
}

// ----------------------------------------------------------------------
// DES-tier workload goldens: fig7/fig8 model results pinned by
// digest. The policy-off pins were captured BEFORE the delivery-
// policy/moderation layer landed, so they prove the legacy path is
// bit-identical with the layer present but disabled. Each
// (behavior x trigger) combo and the moderated/adaptive configs get
// their own pin at the same fixed seed.
// ----------------------------------------------------------------------

namespace
{

std::uint64_t
bits(double d)
{
    std::uint64_t u;
    std::memcpy(&u, &d, sizeof(u));
    return u;
}

void
foldHistogram(Fnv1a &h, const Histogram &hist)
{
    h.update(hist.count());
    h.update(bits(hist.sum()));
    h.update(static_cast<std::uint64_t>(hist.min()));
    h.update(static_cast<std::uint64_t>(hist.max()));
    h.update(static_cast<std::uint64_t>(hist.p50()));
    h.update(static_cast<std::uint64_t>(hist.p95()));
    h.update(static_cast<std::uint64_t>(hist.p99()));
}

std::uint64_t
digestL3(const L3FwdResult &r)
{
    Fnv1a h;
    h.update(r.offered);
    h.update(r.forwarded);
    h.update(r.dropped);
    h.update(r.interrupts);
    foldHistogram(h, r.latency);
    h.update(bits(r.networkingFrac));
    h.update(bits(r.pollingFrac));
    h.update(bits(r.notificationFrac));
    h.update(bits(r.freeFrac));
    return h.value();
}

std::uint64_t
digestKv(const KvServerResult &r)
{
    Fnv1a h;
    h.update(r.offered);
    h.update(r.completed);
    foldHistogram(h, r.getLatency);
    foldHistogram(h, r.scanLatency);
    h.update(bits(r.achievedRps));
    h.update(bits(r.workerUtilization));
    h.update(bits(r.timerCoreUtilization));
    return h.value();
}

L3FwdConfig
l3GoldenBase()
{
    L3FwdConfig cfg;
    cfg.mode = RxMode::XuiForwarded;
    cfg.numNics = 2;
    cfg.load = 0.8;
    cfg.duration = 20 * kCyclesPerMs;
    cfg.routeCount = 4000;
    cfg.seed = 7;
    return cfg;
}

KvServerConfig
kvGoldenBase()
{
    KvServerConfig cfg;
    cfg.offeredLoadRps = 240000;
    cfg.duration = 40 * kCyclesPerMs;
    cfg.seed = 7;
    return cfg;
}

} // namespace

TEST(WorkloadGoldens, L3FwdPolicyOffBitIdentical)
{
    // Captured on the pre-policy seed tree: the layer present but
    // unconfigured must not move a single event.
    EXPECT_EQ(digestL3(runL3Fwd(l3GoldenBase())),
              0x2327ac9256379aa0ull);

    L3FwdConfig poll = l3GoldenBase();
    poll.mode = RxMode::Polling;
    EXPECT_EQ(digestL3(runL3Fwd(poll)), 0xd9a61ac87f15e0bbull);

    L3FwdConfig overload = l3GoldenBase();
    overload.load = 2.0;
    EXPECT_EQ(digestL3(runL3Fwd(overload)),
              0xf66ba8ccd98e178cull);
}

TEST(WorkloadGoldens, L3FwdPolicyCombosPinned)
{
    // Without fault injection the NAPI-style post-rearm recheck
    // (NEXT_OR_MISSED) and a level re-raise fire at the same
    // instant, so three combos share a timeline; NEXT_ONLY + Edge
    // is the one that strands queues in the rearm race and earns a
    // distinct digest. The moderated run batches notifications and
    // differs from all of them.
    struct ComboPin
    {
        DeliveryBehavior behavior;
        TriggerMode trigger;
        std::uint64_t digest;
    };
    const ComboPin pins[] = {
        {DeliveryBehavior::NextOrMissed, TriggerMode::Edge,
         0x73404a26b4c78acbull},
        {DeliveryBehavior::NextOrMissed, TriggerMode::Level,
         0x73404a26b4c78acbull},
        {DeliveryBehavior::NextOnly, TriggerMode::Edge,
         0xd4d9adb9b8dad7a9ull},
        {DeliveryBehavior::NextOnly, TriggerMode::Level,
         0x73404a26b4c78acbull},
    };
    for (const ComboPin &p : pins) {
        L3FwdConfig cfg = l3GoldenBase();
        cfg.policyEnabled = true;
        cfg.policy = {p.behavior, p.trigger};
        EXPECT_EQ(digestL3(runL3Fwd(cfg)), p.digest)
            << deliveryBehaviorName(p.behavior) << "_"
            << triggerModeName(p.trigger);
    }

    L3FwdConfig moderated = l3GoldenBase();
    moderated.moderation = ModerationParams{2000, 1000};
    EXPECT_EQ(digestL3(runL3Fwd(moderated)),
              0x65eb9c5d40362e53ull);
}

TEST(WorkloadGoldens, KvServerPolicyOffBitIdentical)
{
    struct ModePin
    {
        PreemptMode mode;
        std::uint64_t digest;
    };
    const ModePin pins[] = {
        {PreemptMode::XuiKbTimer, 0x8cdf6db1be042e07ull},
        {PreemptMode::UipiSwTimer, 0xe90ebe7935d989a9ull},
        {PreemptMode::None, 0x248cdfea18484754ull},
    };
    for (const ModePin &p : pins) {
        KvServerConfig cfg = kvGoldenBase();
        cfg.mode = p.mode;
        EXPECT_EQ(digestKv(runKvServer(cfg)), p.digest)
            << static_cast<int>(p.mode);
    }
}

TEST(WorkloadGoldens, KvServerAdaptiveQuantumPinned)
{
    KvServerConfig cfg = kvGoldenBase();
    cfg.mode = PreemptMode::XuiKbTimer;
    cfg.adaptive.window = usToCycles(100);
    cfg.adaptive.highWatermark = 28;
    cfg.adaptive.lowWatermark = 15;
    cfg.adaptive.tightQuantum = cfg.quantum / 4;
    std::uint64_t d = digestKv(runKvServer(cfg));
    EXPECT_EQ(d, 0x257258b96dd60698ull);

    // And adaptive is not a silent no-op: it must diverge from the
    // fixed-quantum pin.
    EXPECT_NE(d, 0x8cdf6db1be042e07ull);
}

namespace
{

struct PrioRun
{
    std::uint64_t digest;
    std::uint64_t events;
    std::uint64_t preemptions;
    std::uint64_t restores;
};

/**
 * Two-vector priority scenario on the cycle-level core: the KB
 * timer (vector 0x21, default level 0) keeps a handler resident
 * every 2000 cycles while an external UserIpi vector 0x50 — swept
 * across the four priority levels — is raised whenever a timer
 * handler frame is architecturally committed. At level 0 the raise
 * just queues behind the running handler; at any level above 0 it
 * preempts it mid-frame.
 */
PrioRun
runPriorityScenario(unsigned level, DeliveryStrategy strategy)
{
    KernelOptions ko;
    ko.handlerWork = 96;
    Program prog = makeFib(ko);
    CoreParams params;
    params.strategy = strategy;
    UarchSystem sys(5 * 1000003 + 17);
    OooCore &core = sys.addCore(params, &prog);
    DigestTracer digest;
    sys.setProbe(&digest);
    core.kbTimer().configure(true, 0x21);
    core.kbTimer().setTimer(0, 2000, KbTimerMode::Periodic);
    core.intrUnit().setVectorPriority(0x50, clampPriority(level));
    Cycles last = 0;
    while (core.now() < 60000) {
        core.runCycles(25);
        if (core.intrUnit().state() == TrackerState::Committed &&
            core.now() - last > 900) {
            core.intrUnit().raise(IntrSource::UserIpi, 0x50,
                                  core.now());
            last = core.now();
        }
    }
    core.runCycles(20000);
    return {digest.fullDigest(), digest.eventCount(),
            core.stats().preemptions, core.stats().preemptRestores};
}

} // namespace

TEST(WorkloadGoldens, PriorityStrategyCombosPinned)
{
    // Preemption eligibility is a *strict* priority comparison, so
    // every level above the timer's default 0 produces the same
    // timeline: the pins document that levels 1-3 coincide and only
    // level 0 (layer disabled, FIFO queueing) stands apart. Each
    // delivery strategy keeps its own distinct set.
    struct ComboPin
    {
        unsigned level;
        DeliveryStrategy strategy;
        std::uint64_t digest;
        std::uint64_t events;
    };
    const ComboPin pins[] = {
        {0, DeliveryStrategy::Flush, 0x65c20ae7e7de0cecull, 290476},
        {0, DeliveryStrategy::Drain, 0x32fa3a619e9195e5ull, 430183},
        {0, DeliveryStrategy::Tracked, 0xe47b384b98e5a566ull,
         479670},
        {1, DeliveryStrategy::Flush, 0x8bc29ad7e9a7b6d1ull, 355239},
        {1, DeliveryStrategy::Drain, 0xa88fe980eaf982eeull, 430772},
        {1, DeliveryStrategy::Tracked, 0x9453db9aafb1a78aull,
         470649},
        {2, DeliveryStrategy::Flush, 0x8bc29ad7e9a7b6d1ull, 355239},
        {2, DeliveryStrategy::Drain, 0xa88fe980eaf982eeull, 430772},
        {2, DeliveryStrategy::Tracked, 0x9453db9aafb1a78aull,
         470649},
        {3, DeliveryStrategy::Flush, 0x8bc29ad7e9a7b6d1ull, 355239},
        {3, DeliveryStrategy::Drain, 0xa88fe980eaf982eeull, 430772},
        {3, DeliveryStrategy::Tracked, 0x9453db9aafb1a78aull,
         470649},
    };
    for (const ComboPin &p : pins) {
        PrioRun r = runPriorityScenario(p.level, p.strategy);
        EXPECT_EQ(r.digest, p.digest)
            << "level " << p.level << " strategy "
            << static_cast<int>(p.strategy);
        EXPECT_EQ(r.events, p.events)
            << "level " << p.level << " strategy "
            << static_cast<int>(p.strategy);
        if (p.level == 0) {
            EXPECT_EQ(r.preemptions, 0u);
        } else {
            EXPECT_GT(r.preemptions, 0u);
        }
        // Every preemption unwinds: a leaked frame would leave the
        // outer handler's record open forever.
        EXPECT_EQ(r.preemptions, r.restores);
    }
}
