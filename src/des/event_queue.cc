#include "des/event_queue.hh"

#include <algorithm>
#include <cassert>

namespace xui
{

std::uint32_t
EventQueue::allocEvent()
{
    if (freeHead_ != kNil) {
        std::uint32_t idx = freeHead_;
        freeHead_ = pool_[idx].nextFree;
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
    e.pos = kNil;
    e.nextFree = freeHead_;
    freeHead_ = idx;
}

void
EventQueue::put(std::uint32_t pos, const HeapEntry &e)
{
    heap_[pos] = e;
    pool_[e.slot].pos = pos;
}

void
EventQueue::siftUp(std::uint32_t pos, const HeapEntry &e)
{
    while (pos > 0) {
        std::uint32_t parent = (pos - 1) / 4;
        if (!before(e, heap_[parent]))
            break;
        put(pos, heap_[parent]);
        pos = parent;
    }
    put(pos, e);
}

void
EventQueue::siftDown(std::uint32_t pos, const HeapEntry &e)
{
    const std::size_t n = heap_.size();
    for (;;) {
        std::size_t first = std::size_t(pos) * 4 + 1;
        if (first >= n)
            break;
        std::size_t last = std::min(first + 4, n);
        std::size_t best = first;
        for (std::size_t c = first + 1; c < last; ++c) {
            if (before(heap_[c], heap_[best]))
                best = c;
        }
        if (!before(heap_[best], e))
            break;
        put(pos, heap_[best]);
        pos = static_cast<std::uint32_t>(best);
    }
    put(pos, e);
}

void
EventQueue::removeAt(std::uint32_t pos)
{
    HeapEntry last = heap_.back();
    heap_.pop_back();
    if (pos == heap_.size())
        return;
    if (pos > 0 && before(last, heap_[(pos - 1) / 4]))
        siftUp(pos, last);
    else
        siftDown(pos, last);
}

EventId
EventQueue::scheduleImpl(Cycles when, std::uint64_t seq,
                         SmallCallback cb)
{
    assert(when >= now_ && "cannot schedule in the past");
    std::uint32_t idx = allocEvent();
    pool_[idx].cb = std::move(cb);
    heap_.emplace_back();
    siftUp(static_cast<std::uint32_t>(heap_.size() - 1),
           HeapEntry{when, seq, idx});
    return makeId(idx, pool_[idx].gen);
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
    const Event &e = pool_[idx];
    if (e.gen != gen || e.pos == kNil)
        return false;
    removeAt(e.pos);
    freeEvent(idx);
    return true;
}

bool
EventQueue::runOne()
{
    if (heap_.empty())
        return false;
    const HeapEntry top = heap_.front();
    removeAt(0);
    assert(top.when >= now_);
    now_ = top.when;
    Event &e = pool_[top.slot];
    EventId id = makeId(top.slot, e.gen);
    SmallCallback cb = std::move(e.cb);
    freeEvent(top.slot);
    ++fired_;
    if (fireHook_)
        fireHook_(id, top.when);
    cb();
    return true;
}

std::vector<EventQueue::PendingEvent>
EventQueue::pendingSnapshot(std::size_t max) const
{
    auto less = [](const PendingEvent &a, const PendingEvent &b) {
        return a.when != b.when ? a.when < b.when : a.seq < b.seq;
    };
    std::vector<PendingEvent> out;
    if (max == 0) {
        out.reserve(heap_.size());
        for (const HeapEntry &h : heap_)
            out.push_back(PendingEvent{h.when, h.seq});
        std::sort(out.begin(), out.end(), less);
        return out;
    }
    // Bounded top-k: a max-heap of the k smallest (when, seq) seen
    // so far — O(pending log k) time and O(k) memory, so a watchdog
    // trip against a runaway queue with millions pending reports in
    // microseconds instead of copying and sorting the whole heap.
    out.reserve(max);
    for (const HeapEntry &h : heap_) {
        PendingEvent p{h.when, h.seq};
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
    while (!heap_.empty() && heap_.front().when <= limit) {
        runOne();
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
