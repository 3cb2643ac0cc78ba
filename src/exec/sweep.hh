/**
 * @file
 * Deterministic fan-out/reduce over independent jobs — the engine
 * behind the parallel verify corpus, the bench config grids, and
 * the golden-corpus tests.
 *
 * Contract: `run(i)` must be a pure function of the job index — in
 * this repo every job constructs its own `UarchSystem` or
 * `Simulation` and owns its RNG streams, tracer, digest, and
 * `MetricsRegistry`, so concurrent jobs share nothing mutable.
 * Under that contract the sweep guarantees:
 *
 *  - results are bit-identical for every thread count: `run` decides
 *    the values, the sweep only decides the schedule;
 *  - `reduce(i, result)` is invoked on the calling thread in strict
 *    job-index order (0, 1, ..., n-1) regardless of completion
 *    order, so order-sensitive reductions — floating-point sums,
 *    first-failure reporting, table rendering, JSON export — are
 *    deterministic too;
 *  - `jobs == 1` runs everything inline on the calling thread with
 *    no pool and no synchronization: the exact legacy serial path,
 *    run(i) immediately followed by reduce(i).
 *
 * The reduction is streaming: job i is reduced as soon as it and
 * every lower-indexed job have finished, while higher-indexed jobs
 * are still executing.
 */

#ifndef XUI_EXEC_SWEEP_HH
#define XUI_EXEC_SWEEP_HH

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "exec/thread_pool.hh"

namespace xui::exec
{

/** Worker count of `--jobs 0` / unspecified: one per hardware
 *  thread, never less than 1. */
unsigned hardwareJobs();

/** Map a requested job count to an actual one (0 means auto). */
unsigned effectiveJobs(unsigned requested);

/**
 * Strict unsigned decimal, the one numeric-flag parser of every
 * bench and tool: a non-empty all-digit value that fits in 64 bits.
 * Rejects signs, whitespace, suffixes, and overflow.
 * @return false on malformed input (`out` untouched).
 */
bool parseU64Strict(const char *text, std::uint64_t &out);

/**
 * Strict positive double: the whole text parses, the value is
 * finite and in (0, 1e12).
 * @return false on malformed input (`out` untouched).
 */
bool parsePositiveDouble(const char *text, double &out);

/**
 * Strict `--jobs N` parsing: accepts only a non-empty all-digit
 * value in [1, 1024]. Rejects 0 (use auto-detection by omitting the
 * flag instead), signs, suffixes, and overflow.
 * @return false on malformed input (`out` untouched).
 */
bool parseJobs(const char *text, unsigned &jobs);

/**
 * Run `n` independent jobs on up to `jobs` threads and reduce the
 * results in job-index order on the calling thread (see file
 * comment for the determinism contract). An exception thrown by a
 * job is rethrown to the caller from the lowest-indexed failing
 * job, after every in-flight job has drained.
 */
template <typename RunFn, typename ReduceFn>
void
sweepReduce(std::size_t n, unsigned jobs, RunFn &&run,
            ReduceFn &&reduce)
{
    using R = std::invoke_result_t<RunFn &, std::size_t>;
    jobs = effectiveJobs(jobs);
    if (jobs <= 1 || n <= 1) {
        // Legacy serial path: no pool, no threads, no locks.
        for (std::size_t i = 0; i < n; ++i)
            reduce(i, run(i));
        return;
    }

    struct Slot
    {
        std::optional<R> result;
        std::exception_ptr error;
    };
    std::vector<Slot> slots(n);
    std::vector<char> done(n, 0);
    std::mutex mu;
    std::condition_variable done_cv;

    {
        ThreadPool pool(static_cast<unsigned>(
            std::min<std::size_t>(jobs, n)));
        for (std::size_t i = 0; i < n; ++i) {
            pool.submit([&, i] {
                Slot s;
                try {
                    s.result.emplace(run(i));
                } catch (...) {
                    s.error = std::current_exception();
                }
                {
                    std::lock_guard<std::mutex> lk(mu);
                    slots[i] = std::move(s);
                    done[i] = 1;
                }
                done_cv.notify_all();
            });
        }
        for (std::size_t i = 0; i < n; ++i) {
            Slot s;
            {
                std::unique_lock<std::mutex> lk(mu);
                done_cv.wait(lk, [&] { return done[i] != 0; });
                s = std::move(slots[i]);
            }
            if (s.error) {
                pool.waitIdle();
                std::rethrow_exception(s.error);
            }
            reduce(i, std::move(*s.result));
        }
        pool.waitIdle();
    }
}

/**
 * Fan out `n` jobs and return their results in job-index order.
 * Requires the result type to be default-constructible (every
 * result struct in this repo is).
 */
template <typename RunFn>
auto
sweep(std::size_t n, unsigned jobs, RunFn &&run)
    -> std::vector<std::invoke_result_t<RunFn &, std::size_t>>
{
    using R = std::invoke_result_t<RunFn &, std::size_t>;
    std::vector<R> results(n);
    sweepReduce(n, jobs, run,
                [&results](std::size_t i, R &&r) {
                    results[i] = std::move(r);
                });
    return results;
}

} // namespace xui::exec

#endif // XUI_EXEC_SWEEP_HH
