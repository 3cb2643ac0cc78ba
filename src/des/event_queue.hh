/**
 * @file
 * Deterministic discrete-event queue.
 *
 * Internally an indexed 4-ary min-heap of (when, seq, slot) entries.
 * Events live in a free-listed pool (reused in place, no per-event
 * heap allocation) and carry their callback in small-buffer storage;
 * each pool slot records its heap position, so cancel removes the
 * entry at once and reclaims the slot immediately. Handles are
 * generation-checked: a reused slot invalidates stale ids, so
 * cancelling a fired or already-cancelled event returns false
 * instead of corrupting the pending count.
 *
 * Events fire in (when, seq) order. Every event gets a sequence
 * number at schedule time, either the next one or one reserved
 * earlier with reserveSeqs(); same-cycle events therefore fire in
 * scheduling order, which makes whole-system simulations
 * reproducible regardless of queue internals.
 *
 * The heap costs O(log pending) per event, so it pays off only while
 * the pending set stays small: open-loop sources feed their arrivals
 * one at a time (ArrivalFeed in des/simulation.hh) instead of
 * scheduling the whole run up front.
 */

#ifndef XUI_DES_EVENT_QUEUE_HH
#define XUI_DES_EVENT_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "des/time.hh"

namespace xui
{

/** Opaque handle identifying a scheduled event, used to cancel it. */
using EventId = std::uint64_t;

/** Sentinel returned when no event exists. */
constexpr EventId kInvalidEventId = 0;

/**
 * Move-only callable with small-buffer storage: callables up to
 * kInlineBytes live inline in the event pool slot (reused across
 * events, never touching the allocator); larger ones fall back to
 * the heap.
 */
class SmallCallback
{
  public:
    static constexpr std::size_t kInlineBytes = 48;

    SmallCallback() = default;

    template <typename F,
              typename = std::enable_if_t<!std::is_same_v<
                  std::decay_t<F>, SmallCallback>>>
    SmallCallback(F &&f)
    {
        using Fn = std::decay_t<F>;
        if constexpr (sizeof(Fn) <= kInlineBytes &&
                      alignof(Fn) <= alignof(std::max_align_t) &&
                      std::is_nothrow_move_constructible_v<Fn>) {
            ::new (static_cast<void *>(buf_))
                Fn(std::forward<F>(f));
            ops_ = &inlineOps<Fn>;
        } else {
            *reinterpret_cast<Fn **>(buf_) =
                new Fn(std::forward<F>(f));
            ops_ = &heapOps<Fn>;
        }
    }

    SmallCallback(SmallCallback &&o) noexcept : ops_(o.ops_)
    {
        if (ops_)
            ops_->relocate(o.buf_, buf_);
        o.ops_ = nullptr;
    }

    SmallCallback &
    operator=(SmallCallback &&o) noexcept
    {
        if (this != &o) {
            reset();
            ops_ = o.ops_;
            if (ops_)
                ops_->relocate(o.buf_, buf_);
            o.ops_ = nullptr;
        }
        return *this;
    }

    ~SmallCallback() { reset(); }

    void
    reset()
    {
        if (ops_) {
            ops_->destroy(buf_);
            ops_ = nullptr;
        }
    }

    explicit operator bool() const { return ops_ != nullptr; }

    void
    operator()()
    {
        ops_->invoke(buf_);
    }

  private:
    struct Ops
    {
        void (*invoke)(void *);
        void (*destroy)(void *);
        /** Move the callable from src storage to dst storage. */
        void (*relocate)(void *src, void *dst);
    };

    template <typename Fn>
    static constexpr Ops inlineOps = {
        [](void *p) { (*std::launder(reinterpret_cast<Fn *>(p)))(); },
        [](void *p) {
            std::launder(reinterpret_cast<Fn *>(p))->~Fn();
        },
        [](void *src, void *dst) {
            Fn *s = std::launder(reinterpret_cast<Fn *>(src));
            ::new (dst) Fn(std::move(*s));
            s->~Fn();
        },
    };

    template <typename Fn>
    static constexpr Ops heapOps = {
        [](void *p) { (**reinterpret_cast<Fn **>(p))(); },
        [](void *p) { delete *reinterpret_cast<Fn **>(p); },
        [](void *src, void *dst) {
            *reinterpret_cast<Fn **>(dst) =
                *reinterpret_cast<Fn **>(src);
        },
    };

    alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
    const Ops *ops_ = nullptr;
};

/** Indexed 4-ary heap of events with stable same-cycle ordering. */
class EventQueue
{
  public:
    EventQueue() = default;

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time; advances as events are processed. */
    Cycles now() const { return now_; }

    /**
     * Schedule a callback at an absolute time.
     * @pre when >= now()
     * @return handle usable with cancel().
     */
    template <typename F>
    EventId
    scheduleAt(Cycles when, F &&cb)
    {
        return scheduleImpl(when, nextSeq_++,
                            SmallCallback(std::forward<F>(cb)));
    }

    /**
     * Schedule a callback at an absolute time under a sequence
     * number taken from reserveSeqs(). It fires exactly where an
     * event scheduled at reservation time would have.
     * @pre when >= now(); seq reserved and not used before.
     */
    template <typename F>
    EventId
    scheduleAt(Cycles when, std::uint64_t seq, F &&cb)
    {
        return scheduleImpl(when, seq,
                            SmallCallback(std::forward<F>(cb)));
    }

    /** Schedule a callback delta cycles from now. */
    template <typename F>
    EventId
    scheduleAfter(Cycles delta, F &&cb)
    {
        return scheduleImpl(now_ + delta, nextSeq_++,
                            SmallCallback(std::forward<F>(cb)));
    }

    /**
     * Reserve `n` consecutive sequence numbers for later
     * scheduleAt(when, seq, cb) calls.
     * @return the first reserved number.
     */
    std::uint64_t
    reserveSeqs(std::uint64_t n)
    {
        std::uint64_t first = nextSeq_;
        nextSeq_ += n;
        return first;
    }

    /**
     * Cancel a previously scheduled event: the heap entry is removed
     * and the slot reclaimed immediately.
     * @return true if the event was still pending (stale, fired,
     *         cancelled, and invalid handles all return false).
     */
    bool cancel(EventId id);

    /** Number of live pending events. */
    std::size_t pending() const { return heap_.size(); }

    /** True when no live events remain. */
    bool empty() const { return heap_.empty(); }

    /**
     * Observer invoked just before each event fires, with the
     * event's id and fire time. Used by the verification subsystem
     * to fingerprint the firing order; nullptr (default) disables
     * it. The hook must not schedule or cancel events.
     */
    using FireHook = std::function<void(EventId, Cycles)>;
    void setFireHook(FireHook hook) { fireHook_ = std::move(hook); }

    /** Total events fired since construction. */
    std::uint64_t firedCount() const { return fired_; }

    /** Sentinel returned by peekNextTime() when nothing is pending. */
    static constexpr Cycles kNoPending = ~Cycles(0);

    /**
     * Exact fire time of the next pending event without firing it
     * (kNoPending when the queue is empty).
     */
    Cycles
    peekNextTime() const
    {
        return heap_.empty() ? kNoPending : heap_.front().when;
    }

    /** One pending event, as seen by diagnostics. */
    struct PendingEvent
    {
        Cycles when;
        std::uint64_t seq;
    };

    /**
     * Snapshot of pending events sorted by (when, seq), truncated to
     * `max` entries (0 = all). Diagnostics only (watchdog hang
     * reports), never a hot path.
     */
    std::vector<PendingEvent> pendingSnapshot(std::size_t max = 0)
        const;

    /**
     * Pop and run the next event.
     * @return false when the queue is empty.
     */
    bool runOne();

    /**
     * Run events until the queue drains or the time limit is passed.
     * Events scheduled exactly at the limit still run; the simulated
     * clock never exceeds limit on return unless events at `limit`
     * scheduled more work in the past (which is forbidden).
     * @return number of events executed.
     */
    std::uint64_t runUntil(Cycles limit);

    /** Run every remaining event (careful with self-rescheduling). */
    std::uint64_t runAll();

    /**
     * Pool slots currently allocated (free or live). Bounded by the
     * peak number of simultaneously pending events: cancel and fire
     * both reclaim, so schedule/cancel churn cannot grow it
     * (regression guard for the old lazy-cancel leak).
     */
    std::size_t poolSize() const { return pool_.size(); }

  private:
    static constexpr std::uint32_t kNil = 0xffffffffu;

    struct Event
    {
        SmallCallback cb;
        std::uint32_t gen = 1;
        /** Heap position while pending, kNil otherwise. */
        std::uint32_t pos = kNil;
        /** Free-list link while free. */
        std::uint32_t nextFree = kNil;
    };

    struct HeapEntry
    {
        Cycles when;
        std::uint64_t seq;
        std::uint32_t slot;
    };

    static bool
    before(const HeapEntry &a, const HeapEntry &b)
    {
        return a.when != b.when ? a.when < b.when : a.seq < b.seq;
    }

    static EventId
    makeId(std::uint32_t idx, std::uint32_t gen)
    {
        return (static_cast<EventId>(gen) << 32) | idx;
    }

    EventId scheduleImpl(Cycles when, std::uint64_t seq,
                         SmallCallback cb);
    std::uint32_t allocEvent();
    void freeEvent(std::uint32_t idx);
    /** Store `e` at heap position `pos` and record it in its slot. */
    void put(std::uint32_t pos, const HeapEntry &e);
    /** Move `e` up from the hole at `pos` to its place. */
    void siftUp(std::uint32_t pos, const HeapEntry &e);
    /** Move `e` down from the hole at `pos` to its place. */
    void siftDown(std::uint32_t pos, const HeapEntry &e);
    /** Remove the heap entry at `pos`. */
    void removeAt(std::uint32_t pos);

    std::vector<Event> pool_;
    std::uint32_t freeHead_ = kNil;
    std::vector<HeapEntry> heap_;

    FireHook fireHook_;
    Cycles now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t fired_ = 0;
};

} // namespace xui

#endif // XUI_DES_EVENT_QUEUE_HH
