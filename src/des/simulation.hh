/**
 * @file
 * Simulation context: event queue + master RNG + periodic-event
 * and arrival-feed helpers. Every DES-tier model (kernel, runtime,
 * NIC, accelerator) holds a reference to one Simulation.
 */

#ifndef XUI_DES_SIMULATION_HH
#define XUI_DES_SIMULATION_HH

#include <cstddef>
#include <functional>
#include <vector>

#include "des/event_queue.hh"
#include "des/time.hh"
#include "stats/rng.hh"

namespace xui
{

/** Owns the event queue and the master random stream for one run. */
class Simulation
{
  public:
    explicit Simulation(std::uint64_t seed = 1);

    /** The event queue driving this simulation. */
    EventQueue &queue() { return queue_; }

    /** Current simulated time. */
    Cycles now() const { return queue_.now(); }

    /** Derive an independent RNG stream for a component. */
    Rng makeRng() { return master_.split(); }

    /** Run until the given absolute time. */
    void runUntil(Cycles limit) { queue_.runUntil(limit); }

    /**
     * Absolute time of the earliest pending event, or
     * EventQueue::kNoPending when the queue is idle. The coarse
     * wakeup primitive for hybrid co-simulation: a fast-forwarding
     * cycle tier can bulk-advance to just short of this time instead
     * of interleaving with an idle DES tier every cycle.
     */
    Cycles nextEventAt() const { return queue_.peekNextTime(); }

  private:
    EventQueue queue_;
    Rng master_;
};

/**
 * Self-rescheduling periodic event. The callback runs every `period`
 * cycles from `start` until stop() is called or the callback returns
 * false.
 */
class PeriodicEvent
{
  public:
    /** Callback; return false to stop the series. */
    using Callback = std::function<bool()>;

    PeriodicEvent(EventQueue &queue, Cycles period, Callback cb);
    ~PeriodicEvent();

    PeriodicEvent(const PeriodicEvent &) = delete;
    PeriodicEvent &operator=(const PeriodicEvent &) = delete;

    /** Begin firing at absolute time `start`. */
    void start(Cycles start);

    /** Begin firing one period from now. */
    void startAfterPeriod();

    /** Cancel any pending firing. */
    void stop();

    /** True while a firing is scheduled. */
    bool running() const { return pending_ != kInvalidEventId; }

    /** Change the period; applies from the next rescheduling. */
    void setPeriod(Cycles period) { period_ = period; }

    Cycles period() const { return period_; }

  private:
    void fire();

    EventQueue &queue_;
    Cycles period_;
    Callback cb_;
    EventId pending_;
};

/**
 * Open-loop arrival stream fed lazily: arrival k runs at times[k]
 * (non-decreasing), and firing it schedules arrival k + 1, so the
 * source holds one pending event however long its stream is. The
 * feed reserves one sequence number per arrival at construction and
 * schedules each arrival under its own, so the firing order is
 * exactly that of scheduling every arrival at construction time.
 */
class ArrivalFeed
{
  public:
    /** Runs arrival k; the clock then reads times[k]. */
    using Callback = std::function<void(std::size_t k)>;

    ArrivalFeed(EventQueue &queue, std::vector<Cycles> times,
                Callback cb);
    ~ArrivalFeed();

    ArrivalFeed(const ArrivalFeed &) = delete;
    ArrivalFeed &operator=(const ArrivalFeed &) = delete;

  private:
    void scheduleNext();
    void fire();

    EventQueue &queue_;
    std::vector<Cycles> times_;
    Callback cb_;
    std::uint64_t firstSeq_;
    std::size_t next_ = 0;
    EventId pending_ = kInvalidEventId;
};

} // namespace xui

#endif // XUI_DES_SIMULATION_HH
