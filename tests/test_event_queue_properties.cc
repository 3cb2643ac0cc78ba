/**
 * @file
 * Property and differential tests for the EventQueue (an indexed
 * 4-ary heap) and the ArrivalFeed built on it. The queue's contract
 * (time order, same-cycle FIFO, reserved sequence numbers, cancel
 * semantics, generation-checked handles, bounded pool) is checked
 * three ways:
 *
 *  - randomized differential runs against a trivially correct
 *    (when, seq)-ordered reference model, with delays from one cycle
 *    to past 2^30 cycles and schedules that mix ordinary and
 *    reserved sequence numbers; plus a differential of lazily fed
 *    arrival streams against scheduling the same arrivals up front;
 *  - targeted unit tests for the contract edges the old lazy-cancel
 *    binary heap got wrong (cancel of a fired handle corrupted the
 *    live count) or could not provide (cancel with immediate slot
 *    reclaim);
 *  - a pinned DES-tier golden workload whose firing digest was
 *    captured while the original binary heap and the calendar wheel
 *    that replaced it were built side by side and verified to agree
 *    event for event; the indexed heap reproduces it.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "des/event_queue.hh"
#include "des/simulation.hh"
#include "stats/digest.hh"
#include "stats/rng.hh"

using namespace xui;

namespace
{

/**
 * Reference model: pending events keyed by (when, seq). A correct
 * queue fires exactly the keys <= limit, in key order.
 */
class ReferenceModel
{
  public:
    void
    schedule(Cycles when, std::uint64_t seq, std::uint64_t tag)
    {
        pending_.emplace(std::make_pair(when, seq), tag);
    }

    /** @return true when (when, seq) was still pending. */
    bool
    cancel(Cycles when, std::uint64_t seq)
    {
        return pending_.erase(std::make_pair(when, seq)) > 0;
    }

    /** Pop every tag with when <= limit, in firing order. */
    void
    drainUntil(Cycles limit, std::vector<std::uint64_t> &out)
    {
        auto it = pending_.begin();
        while (it != pending_.end() && it->first.first <= limit) {
            out.push_back(it->second);
            it = pending_.erase(it);
        }
    }

    std::size_t size() const { return pending_.size(); }

    Cycles
    maxWhen() const
    {
        return pending_.empty() ? 0 : pending_.rbegin()->first.first;
    }

  private:
    std::map<std::pair<Cycles, std::uint64_t>, std::uint64_t>
        pending_;
};

/** One live handle in the differential run. */
struct LiveRef
{
    EventId id;
    Cycles when;
    std::uint64_t seq;
};

/**
 * Drive one randomized schedule/cancel/run workload against the
 * model. Delays span single cycles to beyond 2^30 cycles. About a
 * third of the schedules use a sequence number reserved earlier
 * (reserveSeqs), so seqs reach the queue out of order, as they do
 * from an ArrivalFeed.
 */
void
runDifferential(std::uint64_t seed)
{
    EventQueue q;
    ReferenceModel model;
    Rng rng(seed);

    std::vector<std::uint64_t> fired;
    std::vector<std::uint64_t> expected;
    std::vector<LiveRef> live;
    std::uint64_t nextTag = 1;
    std::uint64_t nextSeq = 0;
    /** Reserved, not yet used sequence numbers. */
    std::vector<std::uint64_t> reserved;

    for (int op = 0; op < 400; ++op) {
        std::uint64_t pick = rng.nextBounded(100);
        if (pick < 60) {
            // Delays from one cycle to past 2^30 cycles.
            Cycles delay;
            std::uint64_t span = rng.nextBounded(100);
            if (span < 50)
                delay = 1 + rng.nextBounded(600);
            else if (span < 80)
                delay = 1 + rng.nextBounded(Cycles(1) << 14);
            else if (span < 95)
                delay = 1 + rng.nextBounded(Cycles(1) << 22);
            else
                delay = (Cycles(1) << 30) + rng.nextBounded(1 << 12);
            Cycles when = q.now() + delay;
            std::uint64_t tag = nextTag++;
            auto cb = [&fired, tag] { fired.push_back(tag); };
            std::uint64_t mode = rng.nextBounded(6);
            if (mode == 0) {
                // Reserve a block for later schedules.
                std::uint64_t n = 1 + rng.nextBounded(4);
                ASSERT_EQ(q.reserveSeqs(n), nextSeq);
                for (std::uint64_t i = 0; i < n; ++i)
                    reserved.push_back(nextSeq++);
            }
            EventId id;
            std::uint64_t seq;
            if (mode <= 1 && !reserved.empty()) {
                std::size_t i = rng.nextBounded(reserved.size());
                seq = reserved[i];
                reserved[i] = reserved.back();
                reserved.pop_back();
                id = q.scheduleAt(when, seq, cb);
            } else {
                seq = nextSeq++;
                id = q.scheduleAfter(delay, cb);
            }
            ASSERT_NE(id, kInvalidEventId);
            model.schedule(when, seq, tag);
            live.push_back(LiveRef{id, when, seq});
        } else if (pick < 80 && !live.empty()) {
            // Cancel a random previously returned handle. The model
            // knows whether it already fired (or was cancelled), so
            // the return value is fully predicted.
            std::size_t i = rng.nextBounded(live.size());
            LiveRef ref = live[i];
            live[i] = live.back();
            live.pop_back();
            bool expect = model.cancel(ref.when, ref.seq);
            EXPECT_EQ(q.cancel(ref.id), expect)
                << "seed " << seed << " op " << op;
            // A second cancel of the same handle is always false.
            EXPECT_FALSE(q.cancel(ref.id));
        } else {
            Cycles limit = q.now() + rng.nextBounded(2000);
            model.drainUntil(limit, expected);
            q.runUntil(limit);
            EXPECT_EQ(q.now(), limit);
            ASSERT_EQ(fired, expected)
                << "seed " << seed << " op " << op;
        }
        ASSERT_EQ(q.pending(), model.size());
        ASSERT_EQ(q.empty(), model.size() == 0);
    }

    // Drain everything, including far-future overflow events.
    Cycles end = model.maxWhen();
    model.drainUntil(end, expected);
    q.runUntil(end);
    EXPECT_EQ(fired, expected) << "seed " << seed;
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.firedCount(), fired.size());
}

} // namespace

TEST(EventQueueProperties, DifferentialAgainstReferenceModel)
{
    for (std::uint64_t seed : {1, 2, 3, 5, 8, 13, 21, 34})
        runDifferential(seed);
}

namespace
{

/** One fired event: (tag, fire time). */
using Firing = std::pair<std::uint64_t, Cycles>;

/**
 * Two arrival sources plus other traffic, run either with every
 * arrival scheduled up front or through one ArrivalFeed per source.
 * Source s's arrival k has tag (s + 1) * 1000 + k. Each arrival
 * schedules a follow-up (tag + 100000) zero to two cycles later,
 * which ties with later arrivals; events scheduled before and after
 * the sources at arrival times tie with them as well.
 */
std::vector<Firing>
runSources(const std::vector<std::vector<Cycles>> &sources, bool lazy)
{
    EventQueue q;
    std::vector<Firing> out;
    auto record = [&out, &q](std::uint64_t tag) {
        out.emplace_back(tag, q.now());
    };
    auto arrival = [&q, &record](std::uint64_t tag) {
        record(tag);
        Cycles delay = tag % 3;
        q.scheduleAfter(delay, [&record, tag] {
            record(tag + 100000);
        });
    };
    for (Cycles t : {Cycles(0), Cycles(5), Cycles(9)})
        q.scheduleAt(t, [&record, t] { record(1 + t); });

    std::vector<std::unique_ptr<ArrivalFeed>> feeds;
    for (std::size_t s = 0; s < sources.size(); ++s) {
        const std::uint64_t base = (s + 1) * 1000;
        if (lazy) {
            feeds.push_back(std::make_unique<ArrivalFeed>(
                q, sources[s], [&arrival, base](std::size_t k) {
                    arrival(base + k);
                }));
        } else {
            for (std::size_t k = 0; k < sources[s].size(); ++k)
                q.scheduleAt(sources[s][k], [&arrival, base, k] {
                    arrival(base + k);
                });
        }
    }
    for (Cycles t : {Cycles(5), Cycles(9), Cycles(12)})
        q.scheduleAt(t, [&record, t] { record(50 + t); });
    q.runAll();
    return out;
}

} // namespace

TEST(EventQueueProperties, ArrivalFeedMatchesPreScheduling)
{
    // Lazily fed arrivals must fire exactly where the same arrivals
    // scheduled up front fire: same-cycle ties between the sources,
    // within one source, and with events scheduled before, after and
    // during the run all resolve by the reserved seqs. A feed that
    // scheduled arrival k + 1 under an ordinary (later) seq would
    // fire it after everything scheduled in between.
    const std::vector<std::vector<Cycles>> fixed = {
        {0, 5, 5, 9, 9, 12, 20},
        {5, 9, 10, 12, 12, 21},
    };
    std::vector<Firing> eager = runSources(fixed, false);
    ASSERT_EQ(eager.size(), 3u + 3u + 2u * 13u);
    EXPECT_EQ(runSources(fixed, true), eager);

    Rng rng(0xa11f);
    for (int trial = 0; trial < 50; ++trial) {
        std::vector<std::vector<Cycles>> sources(2 +
                                                 rng.nextBounded(3));
        for (auto &times : sources) {
            Cycles t = 0;
            std::size_t n = rng.nextBounded(40);
            for (std::size_t k = 0; k < n; ++k) {
                t += rng.nextBounded(4);
                times.push_back(t);
            }
        }
        ASSERT_EQ(runSources(sources, true), runSources(sources, false))
            << "trial " << trial;
    }
}

TEST(EventQueueProperties, ArrivalFeedHoldsOnePendingEvent)
{
    // The feed keeps exactly one arrival pending, so the pool stays
    // at one slot however long the stream; destroying the feed
    // cancels the pending arrival.
    EventQueue q;
    std::vector<Cycles> times;
    for (Cycles t = 0; t < 10000; t += 3)
        times.push_back(t);
    std::size_t fired = 0;
    {
        ArrivalFeed feed(q, times, [&](std::size_t k) {
            EXPECT_EQ(q.now(), times[k]);
            EXPECT_EQ(k, fired);
            ++fired;
            EXPECT_EQ(q.pending(), k + 1 < times.size() ? 1u : 0u);
        });
        EXPECT_EQ(q.pending(), 1u);
        q.runUntil(5000);
        EXPECT_EQ(fired, 1667u);
        EXPECT_EQ(q.pending(), 1u);
    }
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.poolSize(), 1u);
}

TEST(EventQueueProperties, OverflowHorizonFiresInOrder)
{
    // Events billions of cycles out (past the 2^30-cycle overflow
    // horizon of the calendar wheel this queue replaced) still fire
    // in (when, seq) order.
    EventQueue q;
    std::vector<int> order;
    q.scheduleAt((Cycles(1) << 32) + 5, [&] { order.push_back(4); });
    q.scheduleAt((Cycles(1) << 30) + 1, [&] { order.push_back(2); });
    q.scheduleAt((Cycles(1) << 32) + 5, [&] { order.push_back(5); });
    q.scheduleAt(100, [&] { order.push_back(1); });
    q.scheduleAt((Cycles(1) << 31), [&] { order.push_back(3); });
    q.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
    EXPECT_EQ(q.now(), (Cycles(1) << 32) + 5);
}

TEST(EventQueueProperties, SameCycleFifoSurvivesLevelCascade)
{
    // Ten ties scheduled for a far cycle (once cascaded through two
    // wheel levels) fire in scheduling order.
    EventQueue q;
    const Cycles when = (Cycles(1) << 21) + 123;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        q.scheduleAt(when, [&order, i] { order.push_back(i); });
    q.runAll();
    ASSERT_EQ(order.size(), 10u);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueueProperties, ScheduleIntoCycleBeingDrainedIsFifo)
{
    // An event firing at cycle T may schedule more work for cycle T
    // itself; the new work fires after everything already due at T.
    EventQueue q;
    std::vector<int> order;
    q.scheduleAt(50, [&] {
        order.push_back(0);
        q.scheduleAfter(0, [&] { order.push_back(2); });
    });
    q.scheduleAt(50, [&] { order.push_back(1); });
    q.scheduleAt(51, [&] { order.push_back(3); });
    q.runAll();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_EQ(q.now(), 51u);
}

TEST(EventQueueProperties, CancelOfFiredHandleIsInert)
{
    // Regression for the old binary-heap implementation: cancelling
    // an already-fired handle returned true and decremented the
    // live count below zero, after which runUntil() on a drained
    // queue failed to advance the clock to the limit.
    EventQueue q;
    int fires = 0;
    EventId a = q.scheduleAt(10, [&] { ++fires; });
    q.scheduleAt(30, [&] { ++fires; });
    q.runUntil(20);
    EXPECT_EQ(fires, 1);
    EXPECT_FALSE(q.cancel(a));
    EXPECT_EQ(q.pending(), 1u);
    q.runUntil(100);
    EXPECT_EQ(fires, 2);
    EXPECT_TRUE(q.empty());
    // The clock must reach the limit even after the stale cancel.
    EXPECT_EQ(q.now(), 100u);
    q.runUntil(500);
    EXPECT_EQ(q.now(), 500u);
}

TEST(EventQueueProperties, GenerationReuseNeverResurrects)
{
    // Cancelling reclaims the pool slot immediately; the next
    // schedule reuses it under a bumped generation. The stale
    // handle must neither cancel nor otherwise affect the new
    // occupant.
    EventQueue q;
    bool newFired = false;
    EventId a = q.scheduleAt(10, [] {});
    EXPECT_TRUE(q.cancel(a));
    EXPECT_EQ(q.poolSize(), 1u);
    EventId b = q.scheduleAt(20, [&] { newFired = true; });
    EXPECT_EQ(q.poolSize(), 1u) << "cancel must reclaim the slot";
    EXPECT_NE(a, b);
    EXPECT_FALSE(q.cancel(a));
    EXPECT_EQ(q.pending(), 1u);
    q.runAll();
    EXPECT_TRUE(newFired);
    // Same story for a handle invalidated by firing.
    EXPECT_FALSE(q.cancel(b));
}

TEST(EventQueueProperties, PeekNextTimeTracksHeadAcrossLevels)
{
    // peekNextTime() must report the exact next fire time without
    // firing anything, for near and far events, and must see
    // through cancellations.
    EventQueue q;
    EXPECT_EQ(q.peekNextTime(), EventQueue::kNoPending);

    EventId far = q.scheduleAt(1u << 22, [] {});
    EXPECT_EQ(q.peekNextTime(), Cycles(1) << 22);
    q.scheduleAt(500, [] {});
    EXPECT_EQ(q.peekNextTime(), 500u);
    EventId near = q.scheduleAt(7, [] {});
    EXPECT_EQ(q.peekNextTime(), 7u);

    // Cancelling the head re-exposes the next-nearest event.
    EXPECT_TRUE(q.cancel(near));
    EXPECT_EQ(q.peekNextTime(), 500u);

    // Peeking fires nothing.
    EXPECT_EQ(q.firedCount(), 0u);
    EXPECT_EQ(q.pending(), 2u);

    q.runUntil(600);
    EXPECT_EQ(q.peekNextTime(), Cycles(1) << 22);
    EXPECT_TRUE(q.cancel(far));
    EXPECT_EQ(q.peekNextTime(), EventQueue::kNoPending);
}

TEST(EventQueueProperties, PeekNextTimeAgreesWithFiringOrder)
{
    // Differential property: before every runOne(), peekNextTime()
    // must equal the time at which that event then actually fires.
    EventQueue q;
    Rng rng(0xfeedu);
    std::vector<EventId> ids;
    for (int i = 0; i < 200; ++i)
        ids.push_back(q.scheduleAt(
            1 + rng.nextBounded(100000), [] {}));
    for (int i = 0; i < 50; ++i)
        q.cancel(ids[rng.nextBounded(ids.size())]);

    while (true) {
        Cycles peek = q.peekNextTime();
        if (peek == EventQueue::kNoPending)
            break;
        ASSERT_TRUE(q.runOne());
        EXPECT_EQ(q.now(), peek);
    }
    EXPECT_TRUE(q.empty());
}

TEST(EventQueueProperties, PendingSnapshotSortedAndTruncated)
{
    // pendingSnapshot() reports live events sorted by (when, seq),
    // omits cancelled and fired ones, and truncates to `max`.
    EventQueue q;
    EventId dead = q.scheduleAt(40, [] {});
    q.scheduleAt(30, [] {});
    q.scheduleAt(10, [] {});
    q.scheduleAt(30, [] {});  // same cycle: seq breaks the tie
    q.scheduleAt(20, [] {});
    EXPECT_TRUE(q.cancel(dead));

    auto all = q.pendingSnapshot();
    ASSERT_EQ(all.size(), 4u);
    for (std::size_t i = 1; i < all.size(); ++i) {
        EXPECT_TRUE(all[i - 1].when < all[i].when ||
                    (all[i - 1].when == all[i].when &&
                     all[i - 1].seq < all[i].seq))
            << i;
    }
    EXPECT_EQ(all.front().when, 10u);
    EXPECT_EQ(all.back().when, 30u);

    auto top2 = q.pendingSnapshot(2);
    ASSERT_EQ(top2.size(), 2u);
    EXPECT_EQ(top2[0].when, all[0].when);
    EXPECT_EQ(top2[0].seq, all[0].seq);
    EXPECT_EQ(top2[1].when, all[1].when);
    EXPECT_EQ(top2[1].seq, all[1].seq);

    q.runUntil(15);  // fires the t=10 event
    auto after = q.pendingSnapshot();
    ASSERT_EQ(after.size(), 3u);
    EXPECT_EQ(after.front().when, 20u);
}

TEST(EventQueueProperties, PoolBoundedUnderScheduleCancelChurn)
{
    // One million schedule/cancel cycles must not grow the pool:
    // both cancel and fire reclaim slots eagerly. The old lazy
    // cancellation left every cancelled event in the heap until its
    // fire time, so this workload made the heap a million entries
    // deep.
    EventQueue q;
    for (int i = 0; i < 1'000'000; ++i) {
        EventId id = q.scheduleAfter(1 + (i % 777), [] {});
        ASSERT_TRUE(q.cancel(id));
    }
    EXPECT_EQ(q.pending(), 0u);
    EXPECT_LE(q.poolSize(), 2u);

    // Batched variant: peak simultaneous pending bounds the pool.
    for (int round = 0; round < 10'000; ++round) {
        EventId ids[8];
        for (int i = 0; i < 8; ++i)
            ids[i] = q.scheduleAfter(5 + i, [] {});
        for (int i = 0; i < 8; ++i)
            ASSERT_TRUE(q.cancel(ids[i]));
    }
    EXPECT_LE(q.poolSize(), 8u);
}

TEST(EventQueueProperties, LargeCallbackHeapFallback)
{
    // Callables above SmallCallback::kInlineBytes live on the heap;
    // both the fired and the cancelled path must destroy them.
    auto token = std::make_shared<int>(7);
    struct Big
    {
        std::shared_ptr<int> token;
        std::uint64_t pad[8];
        int *out;
        void operator()() const { *out = *token; }
    };
    static_assert(sizeof(Big) > SmallCallback::kInlineBytes);

    int result = 0;
    {
        EventQueue q;
        q.scheduleAt(5, Big{token, {}, &result});
        EventId dropped = q.scheduleAt(6, Big{token, {}, &result});
        EXPECT_EQ(token.use_count(), 3);
        EXPECT_TRUE(q.cancel(dropped));
        EXPECT_EQ(token.use_count(), 2) << "cancel must destroy";
        q.runAll();
        EXPECT_EQ(result, 7);
        EXPECT_EQ(token.use_count(), 1) << "fire must destroy";
    }
    EXPECT_EQ(token.use_count(), 1);
}

TEST(EventQueueProperties, DesGoldenWorkloadPinned)
{
    // Golden pin for the DES tier: periodic events on coprime
    // periods, 200 rounds of randomized scheduling with cancels of
    // still-pending handles, drained in randomized slices. The
    // three pinned values were captured with the pre-rewrite
    // binary-heap queue and the calendar queue built side by side
    // from the same translation units; both produced exactly this
    // firing sequence. (The workload deliberately cancels only
    // provably pending handles: the old queue returned true and
    // corrupted its live count when handed a fired handle, so a
    // workload tickling that bug has no meaningful old-queue
    // golden. CancelOfFiredHandleIsInert pins the fixed semantics.)
    Simulation sim;
    Rng rng(0xdecaf);
    Fnv1a digest;

    PeriodicEvent p1(sim.queue(), 7, [&] {
        digest.update(1);
        return true;
    });
    PeriodicEvent p2(sim.queue(), 13, [&] {
        digest.update(2);
        return true;
    });
    PeriodicEvent p3(sim.queue(), 97, [&] {
        digest.update(3);
        return true;
    });
    p1.start(3);
    p2.start(5);
    p3.start(11);

    for (unsigned round = 0; round < 200; ++round) {
        EventId batch[8];
        for (unsigned i = 0; i < 8; ++i) {
            Cycles delay = 1 + rng.nextBounded(300);
            std::uint64_t tag = round * 100 + i;
            batch[i] = sim.queue().scheduleAfter(
                delay, [&digest, tag] { digest.update(tag); });
        }
        // Delays are >= 1 and nothing ran since, so every handle in
        // the batch is still pending here; repeats hit the
        // already-cancelled (false) path.
        for (unsigned i = 0; i < 3; ++i) {
            bool ok = sim.queue().cancel(batch[rng.nextBounded(8)]);
            digest.update(ok ? 0xC1 : 0xC0);
        }
        sim.runUntil(sim.now() + 40 + rng.nextBounded(60));
    }
    p1.stop();
    p2.stop();
    p3.stop();
    sim.runUntil(sim.now() + 1000);

    EXPECT_EQ(sim.queue().firedCount(), 4268u);
    EXPECT_EQ(sim.now(), 14852u);
    EXPECT_EQ(digest.value(), 0x1a51570aa56d1c5bull);
}
