/**
 * @file
 * Interrupt-lifecycle span tracking.
 *
 * IntrSpanTracker is a CoreProbe (uarch/probe.hh) taking only the
 * lifecycle stream: it keys every stage callback on the span
 * (correlation) id assigned at raise(), reassembles per-interrupt
 * timelines, and records the per-stage latency breakdown into
 * per-source LatencyRecorders in a MetricsRegistry. The four stages
 * telescope by construction —
 *
 *   pend        = accept  - raise     (queued at the APIC / unit)
 *   inject_wait = inject  - accept    (waiting for the boundary /
 *                                      drain / flush penalty)
 *   ucode       = deliver - inject    (microcode until the delivery
 *                                      jump commits, including any
 *                                      re-injected attempts)
 *   handler     = return  - deliver   (user handler until uiret)
 *
 * — so their sum is exactly the end-to-end raise -> uiret latency,
 * which is also recorded (name suffix "e2e"). Registry names follow
 * "<prefix><core>.intr.<source>.<stage>".
 *
 * Preempting spans (priority preemption of a running handler) add
 * two stages and keep the telescoping exact:
 *
 *   inject_wait     = save_start - accept   (boundary wait)
 *   preempt_save    = inject - save_start   (frame spill microcode)
 *   preempt_restore = resume - return       (restore after uiret)
 *
 * and e2e = resume - raise, so pend + inject_wait + preempt_save +
 * ucode + handler + preempt_restore == e2e exactly. Non-preempting
 * spans record zero-less streams (the two extra recorders are
 * interned lazily, so priority-off runs register nothing new).
 */

#ifndef XUI_OBS_SPAN_HH
#define XUI_OBS_SPAN_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hh"
#include "uarch/probe.hh"

namespace xui
{

class TraceJsonWriter;

/** One reassembled interrupt lifecycle. */
struct IntrSpan
{
    std::uint64_t id = 0;
    unsigned core = 0;
    IntrSource source = IntrSource::UserIpi;
    std::uint8_t vector = 0;
    Cycles raisedAt = 0;
    Cycles acceptedAt = 0;
    Cycles injectedAt = 0;
    Cycles deliveredAt = 0;
    Cycles returnedAt = 0;
    /** Preempting spans: preempt-save began / handler restored. */
    Cycles saveStartAt = 0;
    Cycles restoredAt = 0;
    /** Squash-induced re-injections before first commit. */
    unsigned reinjections = 0;
    /** This delivery preempted a lower-priority handler. */
    bool preempting = false;
    /** All timestamps latched (Return / PreemptResume observed). */
    bool complete = false;

    Cycles pend() const { return acceptedAt - raisedAt; }
    Cycles injectWait() const
    {
        return (preempting ? saveStartAt : injectedAt) - acceptedAt;
    }
    Cycles preemptSave() const
    {
        return preempting ? injectedAt - saveStartAt : 0;
    }
    Cycles ucode() const { return deliveredAt - injectedAt; }
    Cycles handler() const { return returnedAt - deliveredAt; }
    Cycles preemptRestore() const
    {
        return preempting ? restoredAt - returnedAt : 0;
    }
    Cycles endToEnd() const
    {
        return (preempting ? restoredAt : returnedAt) - raisedAt;
    }
};

/** Name of an interrupt source (stable, registry-safe). */
const char *intrSourceName(IntrSource source);

/**
 * Reassembles spans and feeds per-source stage histograms. One
 * tracker may serve several cores (spans are keyed by core id).
 */
class IntrSpanTracker : public CoreProbe
{
  public:
    /**
     * @param registry receives the per-source stage recorders
     * @param prefix registry-name prefix before "core<N>."
     */
    explicit IntrSpanTracker(MetricsRegistry &registry,
                             std::string prefix = "");

    void intrStage(IntrStage stage, std::uint64_t span_id,
                   IntrSource source, std::uint8_t vector,
                   Cycles cycle, unsigned core_id) override;

    /** Completed spans, in completion order. */
    const std::vector<IntrSpan> &spans() const { return spans_; }

    /** Spans raised but not (yet) returned. */
    std::size_t openCount() const { return open_.size(); }

    /**
     * Export every completed span as stage-duration "X" events plus
     * a raise instant, on track (kTracePidUarch, core).
     */
    void exportTo(TraceJsonWriter &out) const;

  private:
    /** Span ids are per-unit; qualify with the core id. */
    static std::uint64_t key(unsigned core, std::uint64_t id)
    {
        return (static_cast<std::uint64_t>(core) << 48) | id;
    }

    void finish(IntrSpan &span);

    /**
     * Interned recorder ids for one (core, source) stream. Built
     * once per stream; finish() — which runs once per delivered
     * interrupt — then records through array indices instead of
     * rebuilding five registry names and hashing them.
     */
    struct StreamIds
    {
        MetricId pend;
        MetricId injectWait;
        MetricId ucode;
        MetricId handler;
        MetricId e2e;
        MetricId delivered;
        /** Interned on first squash-reinjection so streams without
         * reinjections register no counter (kNoId until then). */
        MetricId reinjections;
        /** Interned on the first preempting span (kNoId until
         * then): priority-off runs register nothing extra. */
        MetricId preemptSave;
        MetricId preemptRestore;
    };

    static constexpr MetricId kNoId = ~MetricId(0);

    StreamIds &streamIds(unsigned core, IntrSource source);

    MetricsRegistry &registry_;
    std::string prefix_;
    std::unordered_map<std::uint64_t, IntrSpan> open_;
    std::vector<IntrSpan> spans_;
    std::unordered_map<std::uint64_t, StreamIds> streams_;
};

} // namespace xui

#endif // XUI_OBS_SPAN_HH
