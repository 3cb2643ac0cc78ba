/**
 * @file
 * google-benchmark microbenchmarks for the substrate components:
 * histogram recording, event-queue throughput, cache-model access,
 * branch-predictor updates and the 256-bit vector bitmap. These
 * measure the *simulator's* own performance, guarding against
 * regressions that would make the figure benches impractically
 * slow.
 */

#include <benchmark/benchmark.h>

#include "des/event_queue.hh"
#include "intr/bitset256.hh"
#include "stats/histogram.hh"
#include "stats/rng.hh"
#include "uarch/branch_predictor.hh"
#include "uarch/cache.hh"

using namespace xui;

static void
BM_HistogramRecord(benchmark::State &state)
{
    Histogram h;
    Rng rng(3);
    for (auto _ : state)
        h.record(static_cast<std::int64_t>(
            rng.nextBounded(1ull << 40)));
}
BENCHMARK(BM_HistogramRecord);

static void
BM_HistogramPercentile(benchmark::State &state)
{
    Histogram h;
    Rng rng(4);
    for (int i = 0; i < 100000; ++i)
        h.record(static_cast<std::int64_t>(
            rng.nextBounded(1ull << 30)));
    for (auto _ : state)
        benchmark::DoNotOptimize(h.p99());
}
BENCHMARK(BM_HistogramPercentile);

static void
BM_EventQueueChurn(benchmark::State &state)
{
    EventQueue q;
    for (auto _ : state) {
        q.scheduleAfter(10, [] {});
        q.runOne();
    }
}
BENCHMARK(BM_EventQueueChurn);

static void
BM_CacheAccess(benchmark::State &state)
{
    MemHierarchy mem;
    Rng rng(5);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            mem.access(rng.nextBounded(64ull << 20)));
    }
}
BENCHMARK(BM_CacheAccess);

static void
BM_PredictorUpdate(benchmark::State &state)
{
    BranchPredictor bp;
    Rng rng(6);
    std::uint64_t pc = 0;
    for (auto _ : state) {
        bool taken = rng.nextBool(0.6);
        bool pred = bp.predict(pc);
        bp.update(pc, taken, pred);
        pc = (pc + 17) & 0xffff;
    }
}
BENCHMARK(BM_PredictorUpdate);

static void
BM_Bitset256Scan(benchmark::State &state)
{
    Bitset256 b;
    b.set(7);
    b.set(130);
    b.set(255);
    for (auto _ : state)
        benchmark::DoNotOptimize(b.findHighest());
}
BENCHMARK(BM_Bitset256Scan);

static void
BM_RngNext(benchmark::State &state)
{
    Rng rng(7);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.next());
}
BENCHMARK(BM_RngNext);

BENCHMARK_MAIN();
