#include "uarch/interrupt_unit.hh"

#include <cassert>
#include <iterator>

#include "uarch/probe.hh"

namespace xui
{

std::uint64_t
InterruptUnit::raise(IntrSource source, std::uint8_t vector,
                     Cycles now, CoreProbe *probe)
{
    RaiseOutcome outcome = RaiseOutcome::Deliver;
    if (probe != nullptr)
        outcome = probe->onRaise(source, vector);
    if (outcome == RaiseOutcome::Drop)
        return 0;
    std::uint64_t id = nextSpanId_++;
    pending_.push_back(PendingIntr{source, vector, now, id});
    if (outcome == RaiseOutcome::Duplicate)
        pending_.push_back(PendingIntr{source, vector, now, id});
    return id;
}

bool
InterruptUnit::canAccept() const
{
    return uif_ && state_ == TrackerState::Idle && !pending_.empty();
}

PendingIntr
InterruptUnit::takeNext()
{
    if (!prioEnabled_) {
        PendingIntr p = pending_.front();
        pending_.pop_front();
        return p;
    }
    // Highest priority wins; the first (oldest) entry breaks ties,
    // so an all-default table degenerates to the FIFO pop above.
    auto best = pending_.begin();
    for (auto it = std::next(best); it != pending_.end(); ++it)
        if (prio_[it->vector] > prio_[best->vector])
            best = it;
    PendingIntr p = *best;
    pending_.erase(best);
    return p;
}

PendingIntr
InterruptUnit::accept()
{
    assert(canAccept());
    current_ = takeNext();
    state_ = TrackerState::Pending;
    return current_;
}

void
InterruptUnit::setVectorPriority(std::uint8_t vector,
                                 std::uint8_t prio)
{
    prio_[vector] = clampPriority(prio);
    if (prio_[vector] > 0)
        prioEnabled_ = true;
}

std::uint8_t
InterruptUnit::highestPendingPriority() const
{
    std::uint8_t best = 0;
    for (const PendingIntr &p : pending_)
        if (prio_[p.vector] > best)
            best = prio_[p.vector];
    return best;
}

PendingIntr
InterruptUnit::beginPreempt()
{
    assert(shouldPreempt());
    preemptStack_.push_back(current_);
    current_ = takeNext();
    state_ = TrackerState::Pending;
    return current_;
}

void
InterruptUnit::onNestedReturn()
{
    assert(!preemptStack_.empty());
    current_ = preemptStack_.back();
    preemptStack_.pop_back();
    state_ = TrackerState::Committed;
}

bool
InterruptUnit::shouldInject(bool at_safepoint,
                            bool safepoint_mode) const
{
    if (state_ != TrackerState::Pending)
        return false;
    if (safepoint_mode && !at_safepoint)
        return false;
    return true;
}

void
InterruptUnit::onInjected()
{
    assert(state_ == TrackerState::Pending);
    state_ = TrackerState::Injected;
}

bool
InterruptUnit::onSquash(bool killed_intr_uops)
{
    if (state_ == TrackerState::Injected && killed_intr_uops) {
        // Paper §4.2: the interrupt processing microcode remains the
        // default misspeculation recovery path until its first
        // micro-op commits.
        state_ = TrackerState::Pending;
        return true;
    }
    return false;
}

void
InterruptUnit::onFirstIntrCommit()
{
    if (state_ == TrackerState::Injected)
        state_ = TrackerState::Committed;
}

void
InterruptUnit::onHandlerReturn()
{
    state_ = TrackerState::Idle;
}

} // namespace xui
