/**
 * @file
 * CoreProbe — the cycle tier's one observation and fault seam.
 *
 * An OooCore carries a single CoreProbe pointer (null = detached).
 * Through it the core reports everything an outside observer of the
 * per-interrupt lifecycle needs:
 *
 *  - pipeline events, one per micro-op per stage plus
 *    interrupt-unit transitions (event(); gem5 Exec/O3-trace
 *    flavoured);
 *  - interrupt-lifecycle stages keyed on the span (correlation) id
 *    the InterruptUnit assigns at raise: raise -> accept -> inject
 *    (-> re-inject)* -> deliver -> return, plus the preempt
 *    save/resume edges (intrStage());
 *  - the end of every detailed tick, after every stage and
 *    lifecycle callback of that cycle has run (onCycle());
 *  - fast-forward mode transitions (onFfTransition());
 *  - the outcome of every raise (onRaise(), consulted by
 *    InterruptUnit::raise).
 *
 * Every method has a no-op default, so a probe overrides only what
 * it consumes. Cost is paid per interest, not per seam:
 *
 *  - a detached core pays one null test per site;
 *  - pipeline events — the only per-micro-op traffic — reach a probe
 *    only when takesPipelineEvents() is set. That is a property
 *    fixed at construction (not a user option), so a probe that
 *    wants lifecycle or cycle callbacks alone never costs a virtual
 *    call per event;
 *  - onCycle() is gated by three fields the probe itself maintains
 *    (see below): the core calls it only on cycles where
 *    `liveSpans` is nonzero or `nextSampleAt` has been reached, so
 *    an idle probe costs two integer compares per tick.
 *
 * Gate fields:
 *  - `liveSpans`: interrupt spans currently open on this core;
 *  - `nextSampleAt`: absolute cycle of the next sample. The tick
 *    skip stops at it (and at every cycle while `liveSpans` is
 *    nonzero), so samples land on the same cycles with skipping on
 *    or off; a fast-forwarded region needs no per-cycle
 *    bookkeeping: the first detailed tick at or past the mark fires;
 *  - `wantDetailUntil`: the probe's demand for full-detail
 *    execution through this absolute cycle. The core reads it only
 *    in fast-forward mode (the profiler pins detail across its burst
 *    window); with fast-forward off it is never read.
 *
 * Probes are read-only by contract: the golden-digest corpus pins
 * that a run with a probe attached is bit-identical to one without.
 * The exceptions are deliberate and inert by default: the detail
 * demand above (only widens where a sampled run is detailed), and
 * the two fault seams onFfTransition() / onRaise(), which only the
 * chaos harness overrides.
 *
 * ProbeTee fans one core slot out to several probes.
 */

#ifndef XUI_UARCH_PROBE_HH
#define XUI_UARCH_PROBE_HH

#include <cstdint>
#include <vector>

#include "des/time.hh"
#include "uarch/interrupt_unit.hh"
#include "uarch/op_types.hh"

namespace xui
{

class OooCore;

/** Pipeline stage / event kind for pipeline events. */
enum class TraceEvent : std::uint8_t
{
    Fetch,
    Dispatch,
    Issue,
    Complete,
    Commit,
    Squash,
    IntrAccept,
    IntrInject,
    IntrDeliver,
    IntrReturn,
};

/** Number of TraceEvent enumerators (for tables indexed by event). */
constexpr unsigned kNumTraceEvents =
    static_cast<unsigned>(TraceEvent::IntrReturn) + 1;

/** Name of a trace event (stable strings for output/tests). */
const char *traceEventName(TraceEvent ev);

/** Lifecycle stage transition of one interrupt span. */
enum class IntrStage : std::uint8_t
{
    /** Posted toward the unit (APIC arrival / timer expiry). */
    Raise,
    /** Popped from the pending queue; tracker leaves Idle. */
    Accept,
    /** Delivery microcode began streaming from the MSROM. */
    Inject,
    /** A squash killed uncommitted microcode; injected again. */
    Reinject,
    /** Delivery jump committed: the handler is architectural. */
    Deliver,
    /** uiret committed: the span is complete. */
    Return,
    /**
     * A higher-priority vector preempted the running handler: the
     * preempt-save microcode began spilling the handler frame. The
     * preempting span's save window runs from here to its Inject.
     */
    PreemptSave,
    /**
     * The preempt-restore microcode's redirect committed: the
     * preempted outer handler is running again. For a preempting
     * span this — not Return — completes the span (Return only
     * marks its uiret; the restore cost still belongs to it).
     */
    PreemptResume,
};

/** Number of IntrStage enumerators (for stage-indexed tables). */
constexpr unsigned kNumIntrStages =
    static_cast<unsigned>(IntrStage::PreemptResume) + 1;

/** Name of a lifecycle stage (stable strings for output/tests). */
const char *intrStageName(IntrStage st);

/** Observation and fault seam of one core (see file comment). */
class CoreProbe
{
  public:
    /**
     * @param pipeline_events deliver event() calls to this probe
     *        (fixed for the probe's lifetime)
     */
    explicit CoreProbe(bool pipeline_events = false)
        : pipelineEvents_(pipeline_events)
    {}
    virtual ~CoreProbe() = default;

    /** event() is delivered only when this is set. */
    bool takesPipelineEvents() const { return pipelineEvents_; }

    /**
     * One pipeline event.
     * @param ev what happened
     * @param cycle when
     * @param seq dynamic micro-op sequence number (0 for
     *        interrupt-unit events)
     * @param pc macro PC (0xffffffff for injected microcode)
     * @param cls micro-op class (Nop for interrupt-unit events)
     */
    virtual void event(TraceEvent /*ev*/, Cycles /*cycle*/,
                       std::uint64_t /*seq*/, std::uint32_t /*pc*/,
                       OpClass /*cls*/)
    {}

    /**
     * One lifecycle stage transition.
     * @param stage which transition happened
     * @param span_id correlation id assigned at raise
     * @param source where the interrupt came from
     * @param vector its user vector
     * @param cycle when (core-local cycle)
     * @param core_id which core observed it
     */
    virtual void intrStage(IntrStage /*stage*/,
                           std::uint64_t /*span_id*/,
                           IntrSource /*source*/,
                           std::uint8_t /*vector*/, Cycles /*cycle*/,
                           unsigned /*core_id*/)
    {}

    /**
     * End of a gated tick.
     * @param core the core that just finished ticking
     * @param sampled the cycle reached `nextSampleAt`
     * @param live `liveSpans` is nonzero
     */
    virtual void onCycle(const OooCore & /*core*/, bool /*sampled*/,
                         bool /*live*/)
    {}

    /**
     * Fast-forward mode transition: once when the core is about to
     * enter the functional loop (`entering`, pipeline already
     * drained) and once right after it returns to detail.
     * @return cycles of full detail to pin from `now`; a nonzero
     *         pin on entry aborts the entry.
     */
    virtual Cycles onFfTransition(bool /*entering*/, Cycles /*now*/)
    {
        return 0;
    }

    /** Outcome of one raise (fault injection; default Deliver). */
    virtual InterruptUnit::RaiseOutcome
    onRaise(IntrSource /*source*/, std::uint8_t /*vector*/)
    {
        return InterruptUnit::RaiseOutcome::Deliver;
    }

    /** Sentinel sample mark: effectively never sample. */
    static constexpr std::uint64_t kNeverSample = ~std::uint64_t(0);

    /** Absolute cycle of the next sample (maintained by owner). */
    std::uint64_t nextSampleAt = kNeverSample;

    /** Open interrupt spans on the probed core. */
    std::uint32_t liveSpans = 0;

    /** Full-detail demand through this absolute cycle (read only in
     *  fast-forward mode). */
    Cycles wantDetailUntil = 0;

  protected:
    /** Fixed by each leaf probe; a ProbeTee ORs its sinks' flags. */
    bool pipelineEvents_;
};

/**
 * Fans one core's probe slot out to several probes, in add order.
 *
 * Pipeline events go only to sinks that take them; the tee takes
 * them iff any sink does. Every sink keeps its own sampling exact:
 * onCycle() reaches a sink only on cycles where its own
 * `nextSampleAt` is reached or its own `liveSpans` is nonzero. The
 * tee's gate fields (earliest sample mark, total live spans, latest
 * detail demand) are recomputed on add() and after every forwarded
 * lifecycle, cycle, FF-transition and raise call — the callbacks
 * from which a sink may move its marks. Pipeline events are the one
 * per-micro-op path and do not recompute: a sink must not move its
 * marks from event().
 */
class ProbeTee : public CoreProbe
{
  public:
    /** Append a sink (nullptr is ignored). Not owned. */
    void add(CoreProbe *probe);

    std::size_t size() const { return sinks_.size(); }

    void event(TraceEvent ev, Cycles cycle, std::uint64_t seq,
               std::uint32_t pc, OpClass cls) override;
    void intrStage(IntrStage stage, std::uint64_t span_id,
                   IntrSource source, std::uint8_t vector,
                   Cycles cycle, unsigned core_id) override;
    void onCycle(const OooCore &core, bool sampled,
                 bool live) override;
    /** Every sink is consulted; the longest pin wins. */
    Cycles onFfTransition(bool entering, Cycles now) override;
    /** Every sink is consulted; the first non-Deliver outcome wins. */
    InterruptUnit::RaiseOutcome onRaise(IntrSource source,
                                        std::uint8_t vector) override;

  private:
    void regate();

    std::vector<CoreProbe *> sinks_;
    /** The subset of sinks_ that takes pipeline events. */
    std::vector<CoreProbe *> eventSinks_;
};

} // namespace xui

#endif // XUI_UARCH_PROBE_HH
