/**
 * @file
 * In-memory span log for the traced benchmark run.
 *
 * The benchmark opens a span around each of its own calls into a
 * simulator module (`src/<layer>`), never inside one. A span records
 * its layer (the module name), the operation, start and end on the
 * host's steady clock, its parent span, its cell and its thread.
 * Host time the benchmark spends in its own callbacks while inside a
 * module (DES event handlers it scheduled) is charged to the span as
 * `excludedNs` instead of being recorded event by event.
 *
 * A layer's self time is its spans' durations minus the part of each
 * interval that child spans cover, minus `excludedNs`. The log is
 * written out once, at the end, as Chrome/Perfetto trace JSON.
 *
 * A disabled log records nothing: begin() returns kNoSpan after one
 * branch, so the untraced run pays no per-span cost.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

/** Host steady-clock time in nanoseconds. */
std::int64_t nowNs();

/** Process CPU time (all threads) in nanoseconds. */
std::int64_t cpuNs();

struct Span
{
    std::string layer;
    std::string op;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    /** Index of the parent span, or -1 for a root. */
    int parent = -1;
    /** Cell the span belongs to, or -1 outside any cell. */
    int cell = -1;
    /** Small per-thread id (0 = the thread that created the log). */
    unsigned tid = 0;
    /** Host time inside the span spent in benchmark callbacks. */
    std::int64_t excludedNs = 0;
};

class SpanLog
{
  public:
    static constexpr int kNoSpan = -1;
    /** Parent argument: use the innermost open span of this thread. */
    static constexpr int kCurrent = -2;

    explicit SpanLog(bool enabled) : enabled_(enabled) {}

    SpanLog(const SpanLog &) = delete;
    SpanLog &operator=(const SpanLog &) = delete;

    bool enabled() const { return enabled_; }

    /** Open a span; returns its index (kNoSpan when disabled). */
    int begin(const std::string &layer, const std::string &op, int cell,
              int parent = kCurrent);

    /** Close span `idx`, charging `excluded_ns` of callback time. */
    void end(int idx, std::int64_t excluded_ns = 0);

    /** RAII span; a disabled log makes it a no-op. */
    class Scope
    {
      public:
        Scope(SpanLog &log, const std::string &layer,
              const std::string &op, int cell, int parent = kCurrent)
            : log_(log), idx_(log.begin(layer, op, cell, parent))
        {
        }
        ~Scope() { log_.end(idx_, excluded_); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        int index() const { return idx_; }
        void exclude(std::int64_t ns) { excluded_ += ns; }

      private:
        SpanLog &log_;
        int idx_;
        std::int64_t excluded_ = 0;
    };

    /** Snapshot of every recorded span. */
    std::vector<Span> spans() const;

    /** Number of spans recorded so far. */
    std::size_t size() const;

    /**
     * Self time of the spans recorded from index `from` on, summed
     * per "self/layer/op" and per "self/layer" key, in nanoseconds.
     */
    std::map<std::string, double> selfNs(std::size_t from = 0) const;

    /**
     * Chrome trace-event JSON (loads in Perfetto / chrome://tracing):
     * one complete ("X") event per span, args carrying the span id,
     * parent, cell name and excluded callback time. `metadata` is
     * emitted as a top-level object of string values.
     */
    std::string perfettoJson(
        const std::vector<std::string> &cell_names,
        const std::map<std::string, std::string> &metadata) const;

  private:
    bool enabled_;
    mutable std::mutex mu_;
    std::vector<Span> spans_;
    std::int64_t origin_ = 0;
};

/**
 * Self time of spans[from..]: each span's duration minus the union of
 * its children's intervals (clipped to it) minus its excludedNs,
 * summed per "self/layer/op" and per "self/layer" key, in ns.
 */
std::map<std::string, double> selfTimesNs(const std::vector<Span> &spans,
                                          std::size_t from = 0);

/**
 * Stopwatch over wall and process-CPU time, used for the end-to-end
 * metrics in every run (traced or not).
 */
class Stopwatch
{
  public:
    Stopwatch() : wall0_(nowNs()), cpu0_(cpuNs()) {}
    double wallS() const { return static_cast<double>(nowNs() - wall0_) * 1e-9; }
    double cpuS() const { return static_cast<double>(cpuNs() - cpu0_) * 1e-9; }

  private:
    std::int64_t wall0_;
    std::int64_t cpu0_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
