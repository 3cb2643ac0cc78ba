/**
 * @file
 * Core-probe tests: every micro-op flows through the stages in
 * order, interrupt events appear in the right sequence, the stream
 * tracer renders sane text, and a ProbeTee gates each of its sinks
 * by that sink's own marks and interests.
 */

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <vector>

#include "uarch/trace.hh"
#include "uarch/uarch_system.hh"
#include "workloads/kernels.hh"

using namespace xui;

namespace
{

struct Record
{
    TraceEvent ev;
    Cycles cycle;
    std::uint64_t seq;
    std::uint32_t pc;
    OpClass cls;
};

class RecordingTracer : public CoreProbe
{
  public:
    RecordingTracer() : CoreProbe(/*pipeline_events=*/true) {}

    void
    event(TraceEvent ev, Cycles cycle, std::uint64_t seq,
          std::uint32_t pc, OpClass cls) override
    {
        records.push_back(Record{ev, cycle, seq, pc, cls});
    }

    std::vector<Record> records;
};

Program
tinyLoop()
{
    ProgramBuilder b("tiny");
    std::uint32_t top = b.here();
    b.intAlu(reg::kGpr0 + 1, reg::kGpr0 + 1);
    b.jump(top);
    b.beginHandler();
    b.intAlu(reg::kGpr0 + 12, reg::kGpr0 + 12);
    b.uiret();
    return b.build();
}

} // namespace

TEST(Trace, StagesInOrderPerUop)
{
    Program p = tinyLoop();
    RecordingTracer tracer;
    UarchSystem sys(1);
    OooCore &core = sys.addCore(CoreParams{}, &p);
    core.setProbe(&tracer);
    core.runCycles(300);

    // Collect per-seq stage cycles and verify ordering.
    struct Stages
    {
        Cycles fetch = 0, dispatch = 0, issue = 0, complete = 0,
               commit = 0;
    };
    std::map<std::uint64_t, Stages> uops;
    for (const auto &r : tracer.records) {
        if (r.seq == 0)
            continue;
        Stages &s = uops[r.seq];
        switch (r.ev) {
          case TraceEvent::Fetch:
            s.fetch = r.cycle;
            break;
          case TraceEvent::Dispatch:
            s.dispatch = r.cycle;
            break;
          case TraceEvent::Issue:
            s.issue = r.cycle;
            break;
          case TraceEvent::Complete:
            s.complete = r.cycle;
            break;
          case TraceEvent::Commit:
            s.commit = r.cycle;
            break;
          default:
            break;
        }
    }
    ASSERT_GT(uops.size(), 50u);
    unsigned committed = 0;
    for (const auto &[seq, s] : uops) {
        if (s.commit == 0)
            continue;  // still in flight / squashed
        ++committed;
        EXPECT_LE(s.fetch, s.dispatch) << "seq " << seq;
        EXPECT_LE(s.dispatch, s.issue) << "seq " << seq;
        EXPECT_LE(s.issue, s.complete) << "seq " << seq;
        EXPECT_LE(s.complete, s.commit) << "seq " << seq;
        // The frontend pipe is at least frontendDepth deep.
        EXPECT_GE(s.dispatch - s.fetch, 10u) << "seq " << seq;
    }
    EXPECT_GT(committed, 50u);
}

TEST(Trace, InterruptEventSequence)
{
    Program p = tinyLoop();
    RecordingTracer tracer;
    CoreParams params;
    params.strategy = DeliveryStrategy::Tracked;
    UarchSystem sys(1);
    OooCore &core = sys.addCore(params, &p);
    core.setProbe(&tracer);
    core.kbTimer().configure(true, 0x21);
    core.kbTimer().setTimer(0, usToCycles(2),
                            KbTimerMode::Periodic);
    core.runCycles(30000);

    // Extract the interrupt-unit event stream: accept -> inject ->
    // deliver -> return, repeating.
    std::vector<TraceEvent> seq;
    for (const auto &r : tracer.records) {
        if (r.ev == TraceEvent::IntrAccept ||
            r.ev == TraceEvent::IntrInject ||
            r.ev == TraceEvent::IntrDeliver ||
            r.ev == TraceEvent::IntrReturn)
            seq.push_back(r.ev);
    }
    ASSERT_GE(seq.size(), 8u);
    // Walk the protocol: no deliver without a preceding inject, no
    // return without a preceding deliver.
    int depth = 0;
    TraceEvent last = TraceEvent::IntrReturn;
    for (TraceEvent ev : seq) {
        switch (ev) {
          case TraceEvent::IntrAccept:
            EXPECT_EQ(last, TraceEvent::IntrReturn);
            ++depth;
            break;
          case TraceEvent::IntrInject:
            // Re-injection after a squash may repeat.
            EXPECT_GE(depth, 1);
            break;
          case TraceEvent::IntrDeliver:
            EXPECT_GE(depth, 1);
            break;
          case TraceEvent::IntrReturn:
            EXPECT_GE(depth, 1);
            --depth;
            break;
          default:
            break;
        }
        last = ev;
    }
    EXPECT_LE(depth, 1);
}

TEST(Trace, StreamTracerRendersText)
{
    Program p = tinyLoop();
    std::ostringstream os;
    StreamTracer tracer(os);
    UarchSystem sys(1);
    OooCore &core = sys.addCore(CoreParams{}, &p);
    core.setProbe(&tracer);
    core.runCycles(50);
    std::string out = os.str();
    EXPECT_NE(out.find("fetch"), std::string::npos);
    EXPECT_NE(out.find("dispatch"), std::string::npos);
    EXPECT_NE(out.find("commit"), std::string::npos);
    EXPECT_NE(out.find("IntAlu"), std::string::npos);
    EXPECT_NE(out.find("sn:"), std::string::npos);
}

TEST(Trace, NoTracerNoOverheadPathStillCorrect)
{
    // Runs with and without a tracer produce identical timing.
    auto run = [](bool traced) {
        Program p = tinyLoop();
        RecordingTracer tracer;
        UarchSystem sys(1);
        OooCore &core = sys.addCore(CoreParams{}, &p);
        if (traced)
            core.setProbe(&tracer);
        core.runUntilCommitted(5000, 1000000);
        return core.now();
    };
    EXPECT_EQ(run(false), run(true));
}

TEST(Trace, EventNamesStable)
{
    EXPECT_STREQ(traceEventName(TraceEvent::Fetch), "fetch");
    EXPECT_STREQ(traceEventName(TraceEvent::Squash), "squash");
    EXPECT_STREQ(traceEventName(TraceEvent::IntrInject),
                 "intr-inject");
}

TEST(Trace, EveryEventNameDefinedAndUnique)
{
    // The names are part of the exported trace format (text traces,
    // Chrome trace JSON categories): every enumerator must map to a
    // real, distinct name — a new TraceEvent without a name would
    // silently render as the fallback.
    std::map<std::string, unsigned> seen;
    for (unsigned i = 0; i < kNumTraceEvents; ++i) {
        const char *name =
            traceEventName(static_cast<TraceEvent>(i));
        ASSERT_NE(name, nullptr) << "event " << i;
        EXPECT_STRNE(name, "") << "event " << i;
        EXPECT_STRNE(name, "?") << "event " << i;
        auto [it, inserted] = seen.emplace(name, i);
        EXPECT_TRUE(inserted)
            << "events " << it->second << " and " << i
            << " share the name '" << name << "'";
    }
    EXPECT_EQ(seen.size(), kNumTraceEvents);
}

namespace
{

/** Samples every `stride` cycles and at every lifecycle stage (as
 *  the profiler's burst does); counts live calls and any pipeline
 *  event. */
struct StrideProbe : CoreProbe
{
    explicit StrideProbe(Cycles s) : stride(s) { nextSampleAt = s; }

    void
    intrStage(IntrStage, std::uint64_t, IntrSource, std::uint8_t,
              Cycles cycle, unsigned) override
    {
        nextSampleAt = cycle;
    }

    void
    event(TraceEvent, Cycles, std::uint64_t, std::uint32_t,
          OpClass) override
    {
        ++events;
    }

    void
    onCycle(const OooCore &core, bool sampled, bool live) override
    {
        liveCalls += live;
        if (sampled) {
            cycles.push_back(core.now());
            nextSampleAt = core.now() + stride;
        }
    }

    Cycles stride;
    std::uint64_t liveCalls = 0;
    std::uint64_t events = 0;
    std::vector<Cycles> cycles;
};

} // namespace

TEST(ProbeTee, FansOutAndGatesEachSink)
{
    StrideProbe a(7), b(11);
    // A sink with an open span and no sample mark: called every
    // cycle, as live, never as sampled.
    StrideProbe live(CoreProbe::kNeverSample);
    live.liveSpans = 1;
    ProbeTee tee;
    tee.add(&a);
    tee.add(nullptr);  // ignored
    tee.add(&b);
    tee.add(&live);
    EXPECT_EQ(tee.size(), 3u);
    // The gate is recomputed on add: earliest mark, summed spans.
    EXPECT_EQ(tee.nextSampleAt, 7u);
    EXPECT_EQ(tee.liveSpans, 1u);
    // Neither sink takes pipeline events, so neither does the tee.
    EXPECT_FALSE(tee.takesPipelineEvents());
    RecordingTracer rec;
    tee.add(&rec);
    EXPECT_TRUE(tee.takesPipelineEvents());

    // tinyLoop never halts, so every cycle is ticked in detail.
    Program p = tinyLoop();
    UarchSystem sys(1);
    OooCore &core = sys.addCore(CoreParams{}, &p);
    core.setProbe(&tee);
    core.runCycles(200);

    // Each sink saw onCycle exactly at its own marks, not at the
    // other sink's (the tee's gate opens at the earliest of both).
    auto multiples = [](Cycles stride) {
        std::vector<Cycles> v;
        for (Cycles c = stride; c <= 200; c += stride)
            v.push_back(c);
        return v;
    };
    EXPECT_EQ(a.cycles, multiples(7));
    EXPECT_EQ(b.cycles, multiples(11));
    EXPECT_EQ(a.liveCalls + b.liveCalls, 0u);
    EXPECT_EQ(live.liveCalls, 200u);
    EXPECT_TRUE(live.cycles.empty());
    // ...after every forwarded cycle and lifecycle call.
    EXPECT_EQ(tee.nextSampleAt, 203u);
    tee.intrStage(IntrStage::Raise, 1, IntrSource::KbTimer, 0x21, 150,
                  0);
    EXPECT_EQ(tee.nextSampleAt, 150u);
    // Pipeline events reach only the sink that takes them.
    EXPECT_GT(rec.records.size(), 0u);
    EXPECT_EQ(a.events, 0u);
    EXPECT_EQ(b.events, 0u);
}
