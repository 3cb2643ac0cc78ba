/**
 * @file
 * Behavioural tests of the out-of-order core: pipeline sanity,
 * branch misprediction recovery, the three interrupt-delivery
 * strategies, safepoint gating, KB-timer delivery, forwarding and
 * the two-core senduipi path.
 */

#include <gtest/gtest.h>

#include "uarch/uarch_system.hh"
#include "workloads/kernels.hh"

using namespace xui;

namespace
{

Program
simpleLoop(unsigned body_ops = 4)
{
    ProgramBuilder b("loop");
    std::uint32_t top = b.here();
    for (unsigned i = 0; i < body_ops; ++i)
        b.intAlu(static_cast<std::uint8_t>(reg::kGpr0 + 1 + (i % 4)),
                 static_cast<std::uint8_t>(reg::kGpr0 + 1 + (i % 4)));
    b.jump(top);
    b.beginHandler();
    b.intAlu(reg::kGpr0 + 12, reg::kGpr0 + 12);
    b.uiret();
    return b.build();
}

} // namespace

TEST(OooCore, CommitsRequestedInstructions)
{
    Program p = simpleLoop();
    UarchSystem sys(1);
    OooCore &core = sys.addCore(CoreParams{}, &p);
    Cycles cycles = core.runUntilCommitted(1000, 100000);
    EXPECT_GE(core.stats().committedInsts, 1000u);
    EXPECT_LT(cycles, 100000u);
    EXPECT_GT(core.stats().committedUops,
              core.stats().committedInsts - 1);
}

TEST(OooCore, IndependentOpsReachHighIpc)
{
    // 8 independent ALU ops per iteration: IPC should approach the
    // narrower of fetch (6) and issue width.
    ProgramBuilder b("ilp");
    std::uint32_t top = b.here();
    for (int i = 0; i < 8; ++i)
        b.intAlu(static_cast<std::uint8_t>(reg::kGpr0 + i),
                 static_cast<std::uint8_t>(reg::kGpr0 + i));
    b.jump(top);
    Program p = b.build();
    UarchSystem sys(1);
    OooCore &core = sys.addCore(CoreParams{}, &p);
    Cycles cycles = core.runUntilCommitted(30000, 1000000);
    double ipc = static_cast<double>(core.stats().committedInsts) /
        static_cast<double>(cycles);
    EXPECT_GT(ipc, 3.0);
}

TEST(OooCore, SerialChainLimitsIpc)
{
    // A serial dependency chain cannot exceed IPC 1 on 1-cycle ops
    // (plus the loop branch).
    ProgramBuilder b("serial");
    std::uint32_t top = b.here();
    for (int i = 0; i < 8; ++i)
        b.intAlu(reg::kGpr0 + 1, reg::kGpr0 + 1);
    b.jump(top);
    Program p = b.build();
    UarchSystem sys(1);
    OooCore &core = sys.addCore(CoreParams{}, &p);
    Cycles cycles = core.runUntilCommitted(20000, 1000000);
    double ipc = static_cast<double>(core.stats().committedInsts) /
        static_cast<double>(cycles);
    EXPECT_LT(ipc, 1.3);
    EXPECT_GT(ipc, 0.8);
}

TEST(OooCore, MultiplyLatencyVisible)
{
    auto run_with = [](MacroOpcode op) {
        ProgramBuilder b("lat");
        std::uint32_t top = b.here();
        for (int i = 0; i < 8; ++i) {
            MacroOp m;
            m.opcode = op;
            m.dest = reg::kGpr0 + 1;
            m.src1 = reg::kGpr0 + 1;
            b.append(m);
        }
        b.jump(top);
        Program p = b.build();
        UarchSystem sys(1);
        OooCore &core = sys.addCore(CoreParams{}, &p);
        return core.runUntilCommitted(10000, 2000000);
    };
    Cycles alu = run_with(MacroOpcode::IntAlu);
    Cycles mult = run_with(MacroOpcode::IntMult);
    // IntMult latency (3) must make the serial chain ~3x slower.
    EXPECT_GT(static_cast<double>(mult),
              2.2 * static_cast<double>(alu));
}

TEST(OooCore, RandomBranchesCauseMispredicts)
{
    ProgramBuilder b("rand");
    std::uint32_t top = b.here();
    b.intAlu(reg::kGpr0 + 1, reg::kGpr0 + 1);
    b.randomBranch(top, 0.5);
    b.jump(top);
    Program p = b.build();
    UarchSystem sys(3);
    OooCore &core = sys.addCore(CoreParams{}, &p);
    core.runUntilCommitted(30000, 3000000);
    // ~50% of 10k random branches should mispredict.
    EXPECT_GT(core.stats().branchMispredicts, 2000u);
    EXPECT_EQ(core.stats().squashes,
              core.stats().branchMispredicts);
}

TEST(OooCore, PredictableLoopFewMispredicts)
{
    Program p = simpleLoop();  // unconditional back-edge only
    UarchSystem sys(3);
    OooCore &core = sys.addCore(CoreParams{}, &p);
    core.runUntilCommitted(30000, 3000000);
    EXPECT_EQ(core.stats().branchMispredicts, 0u);
}

TEST(OooCore, HaltStopsCore)
{
    ProgramBuilder b("halt");
    for (int i = 0; i < 10; ++i)
        b.intAlu(reg::kGpr0 + 1, reg::kGpr0 + 1);
    b.halt();
    Program p = b.build();
    UarchSystem sys(1);
    OooCore &core = sys.addCore(CoreParams{}, &p);
    core.runCycles(1000);
    EXPECT_TRUE(core.halted());
    EXPECT_EQ(core.stats().committedInsts, 10u);
}

TEST(OooCore, FetchStopsAtProgramEnd)
{
    // No trailing Halt: running off the last op halts fetch exactly
    // as a Halt would, and every op of the program commits once.
    ProgramBuilder b("no_halt");
    for (int i = 0; i < 10; ++i)
        b.intAlu(reg::kGpr0 + 1, reg::kGpr0 + 1);
    Program p = b.build();
    UarchSystem sys(1);
    OooCore &core = sys.addCore(CoreParams{}, &p);
    core.runCycles(1000);
    EXPECT_TRUE(core.halted());
    EXPECT_EQ(core.stats().committedInsts, p.size());
}

TEST(OooCore, CacheMissesSlowLoads)
{
    auto run_ws = [](std::uint64_t ws) {
        Program p = makePointerChase(8, ws, false);
        UarchSystem sys(5);
        OooCore &core = sys.addCore(CoreParams{}, &p);
        return core.runUntilCommitted(3000, 30000000);
    };
    Cycles small = run_ws(16 * 1024);        // L1-resident
    Cycles large = run_ws(64ull << 20);      // DRAM-bound
    EXPECT_GT(static_cast<double>(large),
              3.0 * static_cast<double>(small));
}

// ----------------------------------------------------------------------
// Interrupt delivery strategies
// ----------------------------------------------------------------------

namespace
{

struct IntrRunResult
{
    Cycles cycles;
    CoreStats stats;
};

IntrRunResult
runWithKbTimer(Program prog, DeliveryStrategy strat, Cycles period,
               std::uint64_t insts, bool safepoint_mode = false)
{
    CoreParams params;
    params.strategy = strat;
    params.safepointMode = safepoint_mode;
    UarchSystem sys(42);
    OooCore &core = sys.addCore(params, &prog);
    core.kbTimer().configure(true, 0x21);
    core.kbTimer().setTimer(0, period, KbTimerMode::Periodic);
    Cycles cycles = core.runUntilCommitted(insts, insts * 1000);
    return {cycles, core.stats()};
}

} // namespace

class StrategyTest
    : public ::testing::TestWithParam<DeliveryStrategy>
{};

TEST_P(StrategyTest, KbTimerInterruptsDelivered)
{
    auto r = runWithKbTimer(makeFib(), GetParam(), usToCycles(5),
                            100000);
    EXPECT_GT(r.stats.interruptsDelivered, 5u);
    EXPECT_EQ(r.stats.interruptsDelivered,
              r.stats.intrRecords.size());
    for (const auto &rec : r.stats.intrRecords) {
        EXPECT_EQ(rec.source, IntrSource::KbTimer);
        EXPECT_GE(rec.acceptedAt, rec.raisedAt);
        EXPECT_GT(rec.deliveryCommitAt, rec.acceptedAt);
        EXPECT_GT(rec.uiretCommitAt, rec.deliveryCommitAt);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, StrategyTest,
    ::testing::Values(DeliveryStrategy::Flush,
                      DeliveryStrategy::Drain,
                      DeliveryStrategy::Tracked));

TEST(Strategies, FlushDiscardsWork)
{
    auto base = runWithKbTimer(makeFib(), DeliveryStrategy::Flush,
                               usToCycles(10000), 60000);
    auto flushed = runWithKbTimer(makeFib(), DeliveryStrategy::Flush,
                                  usToCycles(5), 60000);
    // Flush squashes the whole window per interrupt.
    EXPECT_GT(flushed.stats.squashedUops, base.stats.squashedUops);
    EXPECT_GT(flushed.cycles, base.cycles);
}

TEST(Strategies, TrackedCheaperThanFlush)
{
    const std::uint64_t insts = 150000;
    auto flush = runWithKbTimer(makeFib(), DeliveryStrategy::Flush,
                                usToCycles(5), insts);
    auto tracked = runWithKbTimer(makeFib(),
                                  DeliveryStrategy::Tracked,
                                  usToCycles(5), insts);
    ASSERT_GT(flush.stats.interruptsDelivered, 10u);
    ASSERT_GT(tracked.stats.interruptsDelivered, 10u);
    // The same work under the same interrupt rate completes sooner
    // with tracking — the paper's central claim (§4.2): flushing
    // discards in-flight work on every delivery, tracking does not.
    EXPECT_LT(tracked.cycles, flush.cycles);
    EXPECT_LT(tracked.stats.squashedUops, flush.stats.squashedUops);

    // Per-event delivery occupancy is also lower with tracking.
    auto occupancy = [](const CoreStats &s) {
        double sum = 0;
        for (const auto &r : s.intrRecords)
            sum += static_cast<double>(r.uiretCommitAt -
                                       r.acceptedAt);
        return sum / static_cast<double>(s.intrRecords.size());
    };
    EXPECT_LT(occupancy(tracked.stats), occupancy(flush.stats));
}

TEST(Strategies, TrackedNeverLosesInterrupts)
{
    // Mispredict-heavy workload: injected microcode is repeatedly
    // squashed and must be re-injected, never lost (§4.2).
    ProgramBuilder b("noisy");
    std::uint32_t top = b.here();
    b.intAlu(reg::kGpr0 + 1, reg::kGpr0 + 1);
    b.randomBranch(top, 0.5);
    b.intAlu(reg::kGpr0 + 2, reg::kGpr0 + 2);
    b.jump(top);
    b.beginHandler();
    b.intAlu(reg::kGpr0 + 12, reg::kGpr0 + 12);
    b.uiret();
    auto r = runWithKbTimer(b.build(), DeliveryStrategy::Tracked,
                            usToCycles(2), 200000);
    EXPECT_GT(r.stats.interruptsDelivered, 20u);
    EXPECT_GT(r.stats.reinjections, 0u);
    // Raised - delivered bounded by 1 (the one still in flight).
    EXPECT_LE(r.stats.interruptsRaised -
                  r.stats.interruptsDelivered,
              1u);
}

TEST(Strategies, DrainWaitsForRob)
{
    auto r = runWithKbTimer(makeFib(), DeliveryStrategy::Drain,
                            usToCycles(5), 100000);
    EXPECT_GT(r.stats.drainWaitCycles, 0u);
    EXPECT_GT(r.stats.interruptsDelivered, 5u);
}

TEST(Strategies, PathologicalSpChainDelaysTracked)
{
    // §6.1: a long miss chain feeding SP delays delivery under
    // tracking far more than under flush.
    Program chained = makePointerChase(50, 256ull << 20, true);
    CoreParams tracked_params;
    tracked_params.strategy = DeliveryStrategy::Tracked;
    CoreParams flush_params;
    flush_params.strategy = DeliveryStrategy::Flush;

    auto measure = [&](const CoreParams &params) {
        UarchSystem sys(9);
        OooCore &core = sys.addCore(params, &chained);
        core.runCycles(50000);  // warm the pipe with the chain
        core.kbTimer().configure(true, 0x21);
        core.kbTimer().setTimer(core.now(), core.now() + 100,
                                KbTimerMode::OneShot);
        core.runCycles(400000);
        if (core.stats().intrRecords.empty())
            return static_cast<double>(-1);
        const auto &rec = core.stats().intrRecords.front();
        return static_cast<double>(rec.deliveryCommitAt -
                                   rec.raisedAt);
    };
    double tracked_lat = measure(tracked_params);
    double flush_lat = measure(flush_params);
    ASSERT_GT(tracked_lat, 0.0);
    ASSERT_GT(flush_lat, 0.0);
    EXPECT_GT(tracked_lat, 2.0 * flush_lat);
}

// ----------------------------------------------------------------------
// Hardware safepoints (§4.4)
// ----------------------------------------------------------------------

TEST(Safepoints, DeliveryOnlyAtSafepointsResumePc)
{
    // Loop with exactly one safepoint-marked op; in safepoint mode
    // every delivery must resume at a safepoint-marked instruction.
    ProgramBuilder b("sp");
    std::uint32_t top = b.here();
    for (int i = 0; i < 6; ++i)
        b.intAlu(reg::kGpr0 + 1, reg::kGpr0 + 1);
    std::uint32_t sp_pc = b.safepoint();
    b.jump(top);
    b.beginHandler();
    b.intAlu(reg::kGpr0 + 12, reg::kGpr0 + 12);
    b.uiret();
    Program p = b.build();

    CoreParams params;
    params.strategy = DeliveryStrategy::Tracked;
    params.safepointMode = true;
    UarchSystem sys(13);
    OooCore &core = sys.addCore(params, &p);
    core.kbTimer().configure(true, 0x21);
    core.kbTimer().setTimer(0, usToCycles(3),
                            KbTimerMode::Periodic);
    core.runUntilCommitted(100000, 10000000);
    EXPECT_GT(core.stats().interruptsDelivered, 10u);
    (void)sp_pc;
}

TEST(Safepoints, NoSafepointMeansNoDelivery)
{
    // Safepoint mode with a program containing no safepoints: the
    // interrupt stays pending forever.
    Program p = simpleLoop();
    CoreParams params;
    params.strategy = DeliveryStrategy::Tracked;
    params.safepointMode = true;
    UarchSystem sys(13);
    OooCore &core = sys.addCore(params, &p);
    core.kbTimer().configure(true, 0x21);
    core.kbTimer().setTimer(0, usToCycles(2),
                            KbTimerMode::Periodic);
    core.runUntilCommitted(50000, 5000000);
    EXPECT_EQ(core.stats().interruptsDelivered, 0u);
    EXPECT_GT(core.stats().interruptsRaised, 0u);
}

TEST(Safepoints, SafepointModeNearZeroCost)
{
    // The same program with safepoint marks runs at the same speed
    // when no interrupts arrive (safepoints are prefixes, not ops).
    KernelOptions plain;
    KernelOptions marked;
    marked.instr = Instrumentation::Safepoint;
    Program p1 = makeFib(plain);
    Program p2 = makeFib(marked);

    UarchSystem sys(17);
    OooCore &c1 = sys.addCore(CoreParams{}, &p1);
    OooCore &c2 = sys.addCore(CoreParams{}, &p2);
    Cycles t1 = c1.runUntilCommitted(50000, 5000000);
    Cycles t2 = c2.runUntilCommitted(50000, 5000000);
    EXPECT_NEAR(static_cast<double>(t1),
                static_cast<double>(t2),
                static_cast<double>(t1) * 0.01);
}

// ----------------------------------------------------------------------
// KB timer on the core (§4.3)
// ----------------------------------------------------------------------

TEST(KbTimerCore, SetTimerInstructionArmsTimer)
{
    // The program itself programs the timer via set_timer.
    ProgramBuilder b("selftimer");
    b.setTimer(usToCycles(2), true);
    std::uint32_t top = b.here();
    b.intAlu(reg::kGpr0 + 1, reg::kGpr0 + 1);
    b.jump(top);
    b.beginHandler();
    b.intAlu(reg::kGpr0 + 12, reg::kGpr0 + 12);
    b.uiret();
    Program p = b.build();

    CoreParams params;
    params.strategy = DeliveryStrategy::Tracked;
    UarchSystem sys(19);
    OooCore &core = sys.addCore(params, &p);
    core.kbTimer().configure(true, 0x21);  // kernel grants access
    core.runUntilCommitted(100000, 10000000);
    EXPECT_GT(core.stats().interruptsDelivered, 10u);
}

TEST(KbTimerCore, PeriodicFiringRateMatchesPeriod)
{
    auto r = runWithKbTimer(makeFib(), DeliveryStrategy::Tracked,
                            usToCycles(10), 200000);
    double expected = static_cast<double>(r.cycles) /
        static_cast<double>(usToCycles(10));
    EXPECT_NEAR(static_cast<double>(r.stats.interruptsDelivered),
                expected, expected * 0.25 + 2.0);
}

TEST(KbTimerCore, UifBlocksNestedDelivery)
{
    // While the handler runs (UIF clear), further expirations queue
    // and never nest; every record's uiret precedes the next
    // delivery.
    auto r = runWithKbTimer(makeFib(), DeliveryStrategy::Tracked,
                            usToCycles(2), 100000);
    const auto &recs = r.stats.intrRecords;
    for (std::size_t i = 1; i < recs.size(); ++i)
        EXPECT_GE(recs[i].injectedAt, recs[i - 1].uiretCommitAt);
}

// ----------------------------------------------------------------------
// Interrupt forwarding on the core (§4.5)
// ----------------------------------------------------------------------

TEST(ForwardingCore, FastPathDeliversToThread)
{
    Program p = simpleLoop();
    CoreParams params;
    params.strategy = DeliveryStrategy::Tracked;
    UarchSystem sys(23);
    OooCore &core = sys.addCore(params, &p);
    core.forwarding().enableVector(0x80);
    Bitset256 mask;
    mask.set(0x80);
    core.forwarding().setActiveMask(mask);

    core.runCycles(2000);
    core.deviceInterrupt(0x80);
    core.runCycles(5000);
    EXPECT_EQ(core.stats().interruptsDelivered, 1u);
    ASSERT_EQ(core.stats().intrRecords.size(), 1u);
    EXPECT_EQ(core.stats().intrRecords[0].source,
              IntrSource::Forwarded);
}

TEST(ForwardingCore, SlowPathParksInDupid)
{
    Program p = simpleLoop();
    UarchSystem sys(23);
    OooCore &core = sys.addCore(CoreParams{}, &p);
    core.forwarding().enableVector(0x80);
    // forwarded_active does not include 0x80 (thread not running).
    core.runCycles(1000);
    core.deviceInterrupt(0x80);
    core.runCycles(2000);
    EXPECT_EQ(core.stats().interruptsDelivered, 0u);
    EXPECT_EQ(core.stats().slowPathForwards, 1u);
    EXPECT_TRUE(core.dupid().hasPending());
}

// ----------------------------------------------------------------------
// Two-core senduipi (§3.2, §3.3)
// ----------------------------------------------------------------------

TEST(SendUipi, EndToEndDelivery)
{
    KernelOptions hopts;
    Program sender_prog = makeSenderLoop(0);
    Program recv_prog = makeSpinLoop(hopts);

    CoreParams params;
    params.strategy = DeliveryStrategy::Flush;
    UarchSystem sys(31);
    OooCore &sender = sys.addCore(params, &sender_prog);
    OooCore &receiver = sys.addCore(params, &recv_prog);
    int route = sys.registerRoute(receiver, 5);
    ASSERT_EQ(route, 0);

    sys.run(200000);
    EXPECT_GT(sender.stats().sendRecords.size(), 10u);
    EXPECT_GT(receiver.stats().interruptsDelivered, 5u);
    // The receiver's UPID was used: NDST points at it.
    EXPECT_EQ(receiver.upid().destination(), receiver.id());
}

TEST(SendUipi, SuppressionPreventsIpiStorm)
{
    // A fast sender posts faster than the receiver can deliver; the
    // ON bit must collapse notifications, so delivered IPIs stay
    // well below executed senduipis.
    Program sender_prog = makeSenderLoop(0);
    KernelOptions hopts;
    Program recv_prog = makeSpinLoop(hopts);
    CoreParams params;
    UarchSystem sys(37);
    OooCore &sender = sys.addCore(params, &sender_prog);
    OooCore &receiver = sys.addCore(params, &recv_prog);
    sys.registerRoute(receiver, 1);
    sys.run(300000);
    std::size_t sends = 0;
    for (const auto &r : sender.stats().sendRecords)
        sends += r.icrCommitAt != 0;
    EXPECT_GT(sends, receiver.stats().interruptsRaised);
}

TEST(SendUipi, TrackedReceiverAlsoWorks)
{
    Program sender_prog = makeSenderLoop(0);
    KernelOptions hopts;
    Program recv_prog = makeSpinLoop(hopts);
    CoreParams sparams;
    CoreParams rparams;
    rparams.strategy = DeliveryStrategy::Tracked;
    UarchSystem sys(41);
    sys.addCore(sparams, &sender_prog);
    OooCore &receiver = sys.addCore(rparams, &recv_prog);
    sys.registerRoute(receiver, 2);
    sys.run(200000);
    EXPECT_GT(receiver.stats().interruptsDelivered, 5u);
    for (const auto &rec : receiver.stats().intrRecords)
        EXPECT_EQ(rec.source, IntrSource::UserIpi);
}

TEST(SendUipi, CluiBlocksDeliveryUntilStui)
{
    // Receiver alternates clui / work / stui; interrupts are only
    // delivered while UIF is set.
    ProgramBuilder b("critsec");
    std::uint32_t top = b.here();
    b.clui();
    for (int i = 0; i < 20; ++i)
        b.intAlu(reg::kGpr0 + 1, reg::kGpr0 + 1);
    b.stui();
    for (int i = 0; i < 4; ++i)
        b.intAlu(reg::kGpr0 + 2, reg::kGpr0 + 2);
    b.jump(top);
    b.beginHandler();
    b.uiret();
    Program p = b.build();

    CoreParams params;
    params.strategy = DeliveryStrategy::Tracked;
    UarchSystem sys(43);
    OooCore &core = sys.addCore(params, &p);
    core.kbTimer().configure(true, 0x21);
    core.kbTimer().setTimer(0, usToCycles(1),
                            KbTimerMode::Periodic);
    core.runUntilCommitted(60000, 6000000);
    // Interrupts still get delivered (in the stui window).
    EXPECT_GT(core.stats().interruptsDelivered, 5u);
}
