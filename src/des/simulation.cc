#include "des/simulation.hh"

#include <algorithm>
#include <cassert>

namespace xui
{

Simulation::Simulation(std::uint64_t seed)
    : master_(seed)
{}

PeriodicEvent::PeriodicEvent(EventQueue &queue, Cycles period,
                             Callback cb)
    : queue_(queue), period_(period), cb_(std::move(cb)),
      pending_(kInvalidEventId)
{
    assert(period_ > 0);
}

PeriodicEvent::~PeriodicEvent()
{
    stop();
}

void
PeriodicEvent::start(Cycles start_time)
{
    stop();
    pending_ = queue_.scheduleAt(start_time, [this] { fire(); });
}

void
PeriodicEvent::startAfterPeriod()
{
    start(queue_.now() + period_);
}

void
PeriodicEvent::stop()
{
    if (pending_ != kInvalidEventId) {
        queue_.cancel(pending_);
        pending_ = kInvalidEventId;
    }
}

void
PeriodicEvent::fire()
{
    pending_ = kInvalidEventId;
    if (!cb_())
        return;
    // Only reschedule if the callback did not restart/stop us.
    if (pending_ == kInvalidEventId)
        pending_ = queue_.scheduleAfter(period_, [this] { fire(); });
}

ArrivalFeed::ArrivalFeed(EventQueue &queue, std::vector<Cycles> times,
                         Callback cb)
    : queue_(queue), times_(std::move(times)), cb_(std::move(cb)),
      firstSeq_(queue.reserveSeqs(times_.size()))
{
    assert(std::is_sorted(times_.begin(), times_.end()));
    if (!times_.empty())
        scheduleNext();
}

ArrivalFeed::~ArrivalFeed()
{
    queue_.cancel(pending_);
}

void
ArrivalFeed::scheduleNext()
{
    pending_ = queue_.scheduleAt(times_[next_], firstSeq_ + next_,
                                 [this] { fire(); });
}

void
ArrivalFeed::fire()
{
    std::size_t k = next_++;
    pending_ = kInvalidEventId;
    if (next_ < times_.size())
        scheduleNext();
    cb_(k);
}

} // namespace xui
