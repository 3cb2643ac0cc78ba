#include "des/event_queue.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>

namespace xui
{

EventQueue::EventQueue() : now_(0), nextSeq_(0), live_(0)
{
    for (unsigned lvl = 0; lvl < kLevels; ++lvl) {
        for (unsigned b = 0; b < kBuckets; ++b)
            heads_[lvl][b] = kNil;
        std::memset(bits_[lvl], 0, sizeof(bits_[lvl]));
    }
}

EventQueue::~EventQueue() = default;

std::uint32_t
EventQueue::allocEvent()
{
    if (freeHead_ != kNil) {
        std::uint32_t idx = freeHead_;
        freeHead_ = pool_[idx].next;
        return idx;
    }
    pool_.emplace_back();
    return static_cast<std::uint32_t>(pool_.size() - 1);
}

void
EventQueue::freeEvent(std::uint32_t idx)
{
    Event &e = pool_[idx];
    e.cb.reset();
    if (++e.gen == 0)
        e.gen = 1;
    e.level = kUnlinked;
    e.next = freeHead_;
    freeHead_ = idx;
}

void
EventQueue::place(std::uint32_t idx)
{
    Event &e = pool_[idx];
    // Pick the level by *block* distance, not raw delta: when now_
    // sits mid-block, an event a hair under a wheel's span is a
    // full revolution ahead of the current bucket, and indexing by
    // (when >> shift) & mask would alias it into the bucket being
    // cascaded — which re-places it into itself forever. Block
    // distance < kBuckets makes every index unique within its
    // wheel.
    unsigned lvl;
    unsigned b;
    if (e.when - now_ < kBuckets) {
        lvl = 0;
        b = static_cast<unsigned>(e.when & kBucketMask);
    } else if ((e.when >> 10) - (now_ >> 10) < kBuckets) {
        lvl = 1;
        b = static_cast<unsigned>((e.when >> 10) & kBucketMask);
    } else if ((e.when >> 20) - (now_ >> 20) < kBuckets) {
        lvl = 2;
        b = static_cast<unsigned>((e.when >> 20) & kBucketMask);
    } else {
        e.level = kOverflow;
        e.prev = kNil;
        e.next = overflowHead_;
        if (overflowHead_ != kNil)
            pool_[overflowHead_].prev = idx;
        overflowHead_ = idx;
        if (overflowMinValid_ &&
            (overflowMin_ == kNoEvent || e.when < overflowMin_))
            overflowMin_ = e.when;
        return;
    }
    e.level = static_cast<std::uint8_t>(lvl);
    e.bucket = static_cast<std::uint16_t>(b);
    e.prev = kNil;
    e.next = heads_[lvl][b];
    if (heads_[lvl][b] != kNil)
        pool_[heads_[lvl][b]].prev = idx;
    heads_[lvl][b] = idx;
    bits_[lvl][b >> 6] |= (std::uint64_t(1) << (b & 63));
}

void
EventQueue::unlink(std::uint32_t idx)
{
    Event &e = pool_[idx];
    assert(e.level != kUnlinked);
    if (e.level == kOverflow) {
        if (e.prev == kNil)
            overflowHead_ = e.next;
        else
            pool_[e.prev].next = e.next;
        if (e.next != kNil)
            pool_[e.next].prev = e.prev;
        if (e.when == overflowMin_)
            overflowMinValid_ = false;
    } else {
        unsigned lvl = e.level;
        unsigned b = e.bucket;
        if (e.prev == kNil)
            heads_[lvl][b] = e.next;
        else
            pool_[e.prev].next = e.next;
        if (e.next != kNil)
            pool_[e.next].prev = e.prev;
        if (heads_[lvl][b] == kNil)
            bits_[lvl][b >> 6] &=
                ~(std::uint64_t(1) << (b & 63));
    }
    e.level = kUnlinked;
    e.next = kNil;
    e.prev = kNil;
}

EventId
EventQueue::scheduleImpl(Cycles when, SmallCallback cb)
{
    assert(when >= now_ && "cannot schedule in the past");
    std::uint32_t idx = allocEvent();
    Event &e = pool_[idx];
    e.when = when;
    e.seq = nextSeq_++;
    e.cb = std::move(cb);
    place(idx);
    ++live_;
    // Scheduling into the cycle currently being drained: append to
    // the active drain list (the new seq is the largest, so the
    // list stays sorted and same-cycle FIFO holds).
    if (scratchWhen_ == now_ && when == now_)
        scratch_.push_back(ScratchRef{e.seq, idx, e.gen});
    return makeId(idx, e.gen);
}

bool
EventQueue::cancel(EventId id)
{
    if (id == kInvalidEventId)
        return false;
    std::uint32_t idx = static_cast<std::uint32_t>(id);
    std::uint32_t gen = static_cast<std::uint32_t>(id >> 32);
    if (idx >= pool_.size())
        return false;
    Event &e = pool_[idx];
    if (e.gen != gen || e.level == kUnlinked)
        return false;
    unlink(idx);
    freeEvent(idx);
    assert(live_ > 0);
    --live_;
    return true;
}

Cycles
EventQueue::chainMin(std::uint32_t head) const
{
    Cycles m = kNoEvent;
    for (std::uint32_t idx = head; idx != kNil;
         idx = pool_[idx].next)
        m = std::min(m, pool_[idx].when);
    return m;
}

namespace
{

/**
 * First set bit at or after `start` in a kBuckets-bit map, scanning
 * in wrap order; -1 when empty.
 */
int
findBit(const std::uint64_t *words, unsigned start, unsigned nwords)
{
    unsigned w0 = start >> 6;
    unsigned off = start & 63;
    std::uint64_t m = words[w0] >> off;
    if (m)
        return static_cast<int>(start + std::countr_zero(m));
    for (unsigned i = 1; i < nwords; ++i) {
        unsigned w = (w0 + i) & (nwords - 1);
        if (words[w])
            return static_cast<int>((w << 6) +
                                    std::countr_zero(words[w]));
    }
    std::uint64_t low = words[w0] & ((std::uint64_t(1) << off) - 1);
    if (off && low)
        return static_cast<int>((w0 << 6) + std::countr_zero(low));
    return -1;
}

} // namespace

Cycles
EventQueue::nextEventTime()
{
    Cycles best = kNoEvent;

    unsigned s0 = static_cast<unsigned>(now_ & kBucketMask);
    int b0 = findBit(bits_[0], s0, kWords);
    if (b0 >= 0)
        best = now_ +
               ((static_cast<unsigned>(b0) - s0) & kBucketMask);

    unsigned s1 = static_cast<unsigned>((now_ >> 10) & kBucketMask);
    int b1 = findBit(bits_[1], s1, kWords);
    if (b1 >= 0) {
        Cycles block = (now_ >> 10) +
                       ((static_cast<unsigned>(b1) - s1) &
                        kBucketMask);
        if (best == kNoEvent || (block << 10) < best) {
            Cycles m = chainMin(heads_[1][b1]);
            best = std::min(best, m);
        }
    }

    unsigned s2 = static_cast<unsigned>((now_ >> 20) & kBucketMask);
    int b2 = findBit(bits_[2], s2, kWords);
    if (b2 >= 0) {
        Cycles block = (now_ >> 20) +
                       ((static_cast<unsigned>(b2) - s2) &
                        kBucketMask);
        if (best == kNoEvent || (block << 20) < best) {
            Cycles m = chainMin(heads_[2][b2]);
            best = std::min(best, m);
        }
    }

    if (overflowHead_ != kNil) {
        if (!overflowMinValid_) {
            overflowMin_ = chainMin(overflowHead_);
            overflowMinValid_ = true;
        }
        best = std::min(best, overflowMin_);
    }
    return best;
}

void
EventQueue::cascadeAt(Cycles t)
{
    if (overflowHead_ != kNil) {
        if (!overflowMinValid_) {
            overflowMin_ = chainMin(overflowHead_);
            overflowMinValid_ = true;
        }
        if (overflowMin_ != kNoEvent &&
            (overflowMin_ >> 20) - (t >> 20) < kBuckets) {
            std::uint32_t idx = overflowHead_;
            while (idx != kNil) {
                std::uint32_t next = pool_[idx].next;
                if ((pool_[idx].when >> 20) - (t >> 20) < kBuckets) {
                    unlink(idx);
                    place(idx);
                }
                idx = next;
            }
            overflowMin_ = chainMin(overflowHead_);
            overflowMinValid_ = true;
        }
    }
    // Entries of the L2 bucket containing t are now within L1
    // range (their when is in [t, block_end)), and likewise L1's
    // current bucket drops into L0.
    unsigned c2 = static_cast<unsigned>((t >> 20) & kBucketMask);
    while (heads_[2][c2] != kNil) {
        std::uint32_t idx = heads_[2][c2];
        unlink(idx);
        place(idx);
    }
    unsigned c1 = static_cast<unsigned>((t >> 10) & kBucketMask);
    while (heads_[1][c1] != kNil) {
        std::uint32_t idx = heads_[1][c1];
        unlink(idx);
        place(idx);
    }
}

void
EventQueue::buildScratch()
{
    scratch_.clear();
    scratchPos_ = 0;
    unsigned b = static_cast<unsigned>(now_ & kBucketMask);
    for (std::uint32_t idx = heads_[0][b]; idx != kNil;
         idx = pool_[idx].next) {
        assert(pool_[idx].when == now_);
        scratch_.push_back(
            ScratchRef{pool_[idx].seq, idx, pool_[idx].gen});
    }
    std::sort(scratch_.begin(), scratch_.end(),
              [](const ScratchRef &a, const ScratchRef &b2) {
                  return a.seq < b2.seq;
              });
    scratchWhen_ = now_;
}

std::uint32_t
EventQueue::popNext()
{
    for (;;) {
        if (scratchWhen_ == now_) {
            while (scratchPos_ < scratch_.size()) {
                const ScratchRef r = scratch_[scratchPos_++];
                Event &e = pool_[r.idx];
                if (e.gen == r.gen && e.level != kUnlinked &&
                    e.when == now_) {
                    unlink(r.idx);
                    return r.idx;
                }
            }
            // Same-cycle events scheduled outside an active drain
            // (e.g. right after runUntil advanced the clock).
            if (heads_[0][now_ & kBucketMask] != kNil) {
                buildScratch();
                continue;
            }
            scratchWhen_ = kNoEvent;
        }
        Cycles w = nextEventTime();
        if (w == kNoEvent)
            return kNil;
        assert(w >= now_);
        now_ = w;
        cascadeAt(w);
        buildScratch();
    }
}

bool
EventQueue::runOne()
{
    std::uint32_t idx = popNext();
    if (idx == kNil)
        return false;
    Event &e = pool_[idx];
    EventId id = makeId(idx, e.gen);
    Cycles when = e.when;
    SmallCallback cb = std::move(e.cb);
    freeEvent(idx);
    --live_;
    ++fired_;
    if (fireHook_)
        fireHook_(id, when);
    cb();
    return true;
}

Cycles
EventQueue::peekNextTime()
{
    if (scratchWhen_ == now_) {
        while (scratchPos_ < scratch_.size()) {
            const ScratchRef &r = scratch_[scratchPos_];
            const Event &e = pool_[r.idx];
            if (e.gen == r.gen && e.level != kUnlinked &&
                e.when == now_)
                break;
            ++scratchPos_;
        }
        if (scratchPos_ < scratch_.size() ||
            heads_[0][now_ & kBucketMask] != kNil)
            return now_;
        scratchWhen_ = kNoEvent;
    }
    return nextEventTime();
}

std::vector<EventQueue::PendingEvent>
EventQueue::pendingSnapshot(std::size_t max) const
{
    auto less = [](const PendingEvent &a, const PendingEvent &b) {
        return a.when != b.when ? a.when < b.when : a.seq < b.seq;
    };
    std::vector<PendingEvent> out;
    if (max == 0) {
        out.reserve(live_);
        for (const Event &e : pool_) {
            if (e.level != kUnlinked)
                out.push_back(PendingEvent{e.when, e.seq});
        }
        std::sort(out.begin(), out.end(), less);
        return out;
    }
    // Bounded top-k: a max-heap of the k smallest (when, seq) seen
    // so far — O(pool log k) time and O(k) memory, so a watchdog
    // trip against a runaway queue with millions pending reports in
    // microseconds instead of copying and sorting the whole pool.
    out.reserve(max);
    for (const Event &e : pool_) {
        if (e.level == kUnlinked)
            continue;
        PendingEvent p{e.when, e.seq};
        if (out.size() < max) {
            out.push_back(p);
            std::push_heap(out.begin(), out.end(), less);
        } else if (less(p, out.front())) {
            std::pop_heap(out.begin(), out.end(), less);
            out.back() = p;
            std::push_heap(out.begin(), out.end(), less);
        }
    }
    std::sort_heap(out.begin(), out.end(), less);
    return out;
}

std::uint64_t
EventQueue::runUntil(Cycles limit)
{
    std::uint64_t executed = 0;
    for (;;) {
        Cycles w = peekNextTime();
        if (w == kNoEvent || w > limit)
            break;
        if (!runOne())
            break;
        ++executed;
    }
    if (now_ < limit)
        now_ = limit;
    return executed;
}

std::uint64_t
EventQueue::runAll()
{
    std::uint64_t executed = 0;
    while (runOne())
        ++executed;
    return executed;
}

} // namespace xui
