/**
 * @file
 * Receiver-side interrupt state: the APIC inbox, the user interrupt
 * flag, and the tracked-interrupt state machine (paper §4.2 Fig. 3).
 *
 * This class holds pure control state; the OooCore drives it from the
 * pipeline loop. Keeping the FSM separate makes the re-injection
 * rules (squash while uncommitted -> re-inject with the new next_pc)
 * unit-testable in isolation.
 */

#ifndef XUI_UARCH_INTERRUPT_UNIT_HH
#define XUI_UARCH_INTERRUPT_UNIT_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "ckpt/codec.hh"
#include "des/time.hh"
#include "intr/policy.hh"

namespace xui
{

class CoreProbe;

/** Where an accepted user interrupt came from. */
enum class IntrSource : std::uint8_t
{
    UserIpi,    ///< UIPI: notification + delivery microcode
    KbTimer,    ///< xUI KB timer: delivery microcode only
    Forwarded,  ///< xUI forwarded device interrupt: delivery only
};

/** One pending user interrupt awaiting delivery. */
struct PendingIntr
{
    IntrSource source;
    std::uint8_t vector;
    Cycles raisedAt;
    /**
     * Correlation id assigned at raise(), unique per unit and
     * monotonically increasing in raise order. Observability
     * (src/obs/) keys lifecycle spans on it; the unit itself never
     * reads it back.
     */
    std::uint64_t spanId = 0;
};

/** Tracked-interrupt front-end state machine (paper Fig. 3). */
enum class TrackerState : std::uint8_t
{
    /** No interrupt in progress. */
    Idle,
    /** Accepted; waiting for an instruction/safepoint boundary. */
    Pending,
    /** Microcode is being injected / is in flight, not committed. */
    Injected,
    /** First interrupt micro-op committed; no re-injection needed. */
    Committed,
};

/**
 * Per-core interrupt unit: pending queue, UIF, tracker FSM and the
 * bookkeeping needed for delivery-latency measurement.
 */
class InterruptUnit
{
  public:
    /** What a probe's onRaise() decided (fault injection). */
    enum class RaiseOutcome : std::uint8_t
    {
        Deliver,    ///< enqueue normally (the only path with no probe)
        Drop,       ///< swallow: nothing is enqueued, raise returns 0
        Duplicate,  ///< enqueue twice (both share one span id)
    };

    /**
     * Raise (post) an interrupt toward this core.
     * @param probe the owning core's probe (may be null); its
     *        onRaise() decides the outcome
     * @return the span (correlation) id assigned to it, or 0 when
     *         the probe dropped the raise (callers must not observe
     *         or count a span-0 raise).
     */
    std::uint64_t raise(IntrSource source, std::uint8_t vector,
                        Cycles now, CoreProbe *probe = nullptr);

    /** True when an interrupt could be accepted this cycle. */
    bool canAccept() const;

    /**
     * Accept the next pending interrupt: the tracker moves to
     * Pending and delivery begins per the configured strategy.
     * With priorities off this is the oldest pending interrupt;
     * with priorities on, the highest-priority one (oldest within
     * a level — identical to FIFO when every level is 0).
     * @pre canAccept()
     */
    PendingIntr accept();

    /**
     * Configure a vector's delivery priority (mixed-criticality
     * layer). Level 0 is the default; the priority machinery is
     * engaged only once some vector is raised above 0, so an
     * all-default table keeps the unit bit-identical to the
     * pre-priority protocol.
     */
    void setVectorPriority(std::uint8_t vector, std::uint8_t prio);

    std::uint8_t vectorPriority(std::uint8_t vector) const
    {
        return prio_[vector];
    }

    /** True once any vector was configured above level 0. */
    bool priorityEnabled() const { return prioEnabled_; }

    /**
     * Should a pending vector preempt the running handler? True only
     * with priorities engaged, a committed (architectural) delivery
     * in progress, and a pending vector whose level strictly exceeds
     * the current handler's. Priority preemption deliberately
     * ignores UIF: a latency-critical level behaves NMI-like above
     * the best-effort masking the handler prologue applies.
     */
    bool shouldPreempt() const
    {
        if (!prioEnabled_ || state_ != TrackerState::Committed ||
            pending_.empty())
            return false;
        return highestPendingPriority() > prio_[current_.vector];
    }

    /**
     * Begin a priority preemption: the running handler's interrupt
     * is pushed onto the preemption stack and the highest-priority
     * pending one becomes current (tracker back to Pending, exactly
     * as a fresh accept).
     * @pre shouldPreempt()
     */
    PendingIntr beginPreempt();

    /**
     * The nested handler finished and the restore redirect
     * committed: the preempted interrupt becomes current again
     * (tracker back to Committed — its delivery was architectural
     * before the preemption).
     */
    void onNestedReturn();

    /** True while at least one preempted handler awaits resume. */
    bool inNestedDelivery() const { return !preemptStack_.empty(); }

    std::size_t preemptDepth() const { return preemptStack_.size(); }

    /** Highest priority among pending interrupts (0 when empty). */
    std::uint8_t highestPendingPriority() const;

    /** The interrupt currently being delivered. */
    const PendingIntr &current() const { return current_; }

    bool pendingAvailable() const { return !pending_.empty(); }
    std::size_t pendingCount() const { return pending_.size(); }

    TrackerState state() const { return state_; }
    bool busy() const { return state_ != TrackerState::Idle; }

    /** UIF: user interrupt delivery enabled? (stui/clui/uiret). */
    bool uif() const { return uif_; }
    void setUif(bool v) { uif_ = v; }

    /**
     * Front-end asks: should microcode be injected at this
     * instruction boundary?
     * @param at_safepoint the next instruction is safepoint-marked
     * @param safepoint_mode the core's safepoint mode flag
     */
    bool shouldInject(bool at_safepoint, bool safepoint_mode) const;

    /** The front-end began streaming the microcode. */
    void onInjected();

    /**
     * A squash killed micro-ops. If the interrupt path has not yet
     * committed its first micro-op, delivery must be re-injected at
     * the post-recovery PC.
     * @param killed_intr_uops at least one in-flight interrupt-path
     *        micro-op was squashed
     * @return true when the front-end must re-inject
     */
    bool onSquash(bool killed_intr_uops);

    /** First interrupt-path micro-op committed. */
    void onFirstIntrCommit();

    /** uiret committed: delivery is complete. */
    void onHandlerReturn();

    /** Checkpoint the unit (it holds no harness attachments). */
    void saveState(ckpt::Writer &w) const
    {
        auto putIntr = [&w](const PendingIntr &p) {
            w.u8(static_cast<std::uint8_t>(p.source));
            w.u8(p.vector);
            w.u64(p.raisedAt);
            w.u64(p.spanId);
        };
        w.u64(pending_.size());
        for (const PendingIntr &p : pending_)
            putIntr(p);
        putIntr(current_);
        w.u8(static_cast<std::uint8_t>(state_));
        w.b(uif_);
        w.u64(nextSpanId_);
        w.bytes(prio_, sizeof(prio_));
        w.b(prioEnabled_);
        w.u64(preemptStack_.size());
        for (const PendingIntr &p : preemptStack_)
            putIntr(p);
    }

    bool loadState(ckpt::Reader &r)
    {
        auto getIntr = [&r](PendingIntr &p) {
            std::uint8_t src = 0;
            if (!r.u8(src) || src > 2)
                return r.fail();
            p.source = static_cast<IntrSource>(src);
            return r.u8(p.vector) && r.u64(p.raisedAt) &&
                   r.u64(p.spanId);
        };
        std::uint64_t n = 0;
        if (!r.u64(n) || n > (1u << 20))
            return r.fail();
        pending_.clear();
        for (std::uint64_t i = 0; i < n; ++i) {
            PendingIntr p{};
            if (!getIntr(p))
                return false;
            pending_.push_back(p);
        }
        if (!getIntr(current_))
            return false;
        std::uint8_t st = 0;
        if (!r.u8(st) || st > 3)
            return r.fail();
        state_ = static_cast<TrackerState>(st);
        if (!r.b(uif_) || !r.u64(nextSpanId_) ||
            !r.bytes(prio_, sizeof(prio_)) || !r.b(prioEnabled_))
            return false;
        if (!r.u64(n) || n > (1u << 20))
            return r.fail();
        preemptStack_.clear();
        for (std::uint64_t i = 0; i < n; ++i) {
            PendingIntr p{};
            if (!getIntr(p))
                return false;
            preemptStack_.push_back(p);
        }
        return r.ok();
    }

  private:
    /** Pop the pending entry accept()/beginPreempt() should take. */
    PendingIntr takeNext();

    std::deque<PendingIntr> pending_;
    PendingIntr current_{};
    TrackerState state_ = TrackerState::Idle;
    bool uif_ = true;
    std::uint64_t nextSpanId_ = 1;
    /** Per-vector delivery priority (0 = best-effort default). */
    std::uint8_t prio_[256] = {};
    bool prioEnabled_ = false;
    /** Preempted handlers, outermost first. */
    std::vector<PendingIntr> preemptStack_;
};

} // namespace xui

#endif // XUI_UARCH_INTERRUPT_UNIT_HH
