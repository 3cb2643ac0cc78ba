#include "uarch/probe.hh"

#include <algorithm>

#include "uarch/ooo_core.hh"

namespace xui
{

const char *
traceEventName(TraceEvent ev)
{
    switch (ev) {
      case TraceEvent::Fetch:
        return "fetch";
      case TraceEvent::Dispatch:
        return "dispatch";
      case TraceEvent::Issue:
        return "issue";
      case TraceEvent::Complete:
        return "complete";
      case TraceEvent::Commit:
        return "commit";
      case TraceEvent::Squash:
        return "squash";
      case TraceEvent::IntrAccept:
        return "intr-accept";
      case TraceEvent::IntrInject:
        return "intr-inject";
      case TraceEvent::IntrDeliver:
        return "intr-deliver";
      case TraceEvent::IntrReturn:
        return "intr-return";
    }
    return "?";
}

const char *
intrStageName(IntrStage st)
{
    switch (st) {
      case IntrStage::Raise:
        return "raise";
      case IntrStage::Accept:
        return "accept";
      case IntrStage::Inject:
        return "inject";
      case IntrStage::Reinject:
        return "reinject";
      case IntrStage::Deliver:
        return "deliver";
      case IntrStage::Return:
        return "return";
      case IntrStage::PreemptSave:
        return "preempt_save";
      case IntrStage::PreemptResume:
        return "preempt_resume";
    }
    return "?";
}

void
ProbeTee::add(CoreProbe *probe)
{
    if (probe == nullptr)
        return;
    sinks_.push_back(probe);
    if (probe->takesPipelineEvents()) {
        eventSinks_.push_back(probe);
        pipelineEvents_ = true;
    }
    regate();
}

void
ProbeTee::regate()
{
    nextSampleAt = kNeverSample;
    liveSpans = 0;
    wantDetailUntil = 0;
    for (const CoreProbe *p : sinks_) {
        nextSampleAt = std::min(nextSampleAt, p->nextSampleAt);
        liveSpans += p->liveSpans;
        wantDetailUntil = std::max(wantDetailUntil, p->wantDetailUntil);
    }
}

void
ProbeTee::event(TraceEvent ev, Cycles cycle, std::uint64_t seq,
                std::uint32_t pc, OpClass cls)
{
    for (CoreProbe *p : eventSinks_)
        p->event(ev, cycle, seq, pc, cls);
}

void
ProbeTee::intrStage(IntrStage stage, std::uint64_t span_id,
                    IntrSource source, std::uint8_t vector,
                    Cycles cycle, unsigned core_id)
{
    for (CoreProbe *p : sinks_)
        p->intrStage(stage, span_id, source, vector, cycle, core_id);
    regate();
}

void
ProbeTee::onCycle(const OooCore &core, bool, bool)
{
    // Re-apply the core's gate per sink: the tee fired because its
    // aggregate gate opened, which says nothing about any one sink.
    for (CoreProbe *p : sinks_) {
        bool live = p->liveSpans != 0;
        bool sampled = core.now() >= p->nextSampleAt;
        if (live || sampled)
            p->onCycle(core, sampled, live);
    }
    regate();
}

Cycles
ProbeTee::onFfTransition(bool entering, Cycles now)
{
    Cycles pin = 0;
    for (CoreProbe *p : sinks_)
        pin = std::max(pin, p->onFfTransition(entering, now));
    regate();
    return pin;
}

InterruptUnit::RaiseOutcome
ProbeTee::onRaise(IntrSource source, std::uint8_t vector)
{
    auto outcome = InterruptUnit::RaiseOutcome::Deliver;
    for (CoreProbe *p : sinks_) {
        auto o = p->onRaise(source, vector);
        if (outcome == InterruptUnit::RaiseOutcome::Deliver)
            outcome = o;
    }
    regate();
    return outcome;
}

} // namespace xui
