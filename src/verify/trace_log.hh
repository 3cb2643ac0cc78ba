/**
 * @file
 * Compact binary pipeline-trace recording and replay comparison.
 *
 * A TraceLog holds the full event stream of a run as packed 22-byte
 * records and serializes to a versioned binary blob ("golden
 * trace"). LogTracer appends to a log while the simulator runs;
 * ReplayTracer re-attaches a previously recorded log to a fresh run
 * and reports the first divergence (index plus a human-readable
 * expected/actual rendering). Together they give golden-trace
 * regression testing: record once on a known-good build, replay on
 * every future build, and any behavioural drift — one cycle, one
 * reordered micro-op — is pinpointed rather than just detected.
 */

#ifndef XUI_VERIFY_TRACE_LOG_HH
#define XUI_VERIFY_TRACE_LOG_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "uarch/probe.hh"

namespace xui
{

/** One packed trace record. */
struct TraceRecord
{
    Cycles cycle = 0;
    std::uint64_t seq = 0;
    std::uint32_t pc = 0;
    std::uint8_t ev = 0;
    std::uint8_t cls = 0;

    bool operator==(const TraceRecord &) const = default;
};

/** In-memory event stream with binary save/load. */
class TraceLog
{
  public:
    /** File magic: "XUITRC" + 2-byte version. */
    static constexpr char kMagic[8] = {'X', 'U', 'I', 'T',
                                       'R', 'C', '0', '1'};

    void append(const TraceRecord &r) { records_.push_back(r); }

    std::size_t size() const { return records_.size(); }
    bool empty() const { return records_.empty(); }
    const TraceRecord &at(std::size_t i) const { return records_[i]; }
    const std::vector<TraceRecord> &records() const
    {
        return records_;
    }
    std::vector<TraceRecord> &records() { return records_; }

    void clear() { records_.clear(); }

    /** Order-sensitive digest of the whole stream. */
    std::uint64_t digest() const;

    /**
     * Serialize to a binary stream (magic, count, packed records).
     * @return false on stream failure.
     */
    bool save(std::ostream &os) const;

    /**
     * Replace contents from a binary stream.
     * @return false on bad magic/version, truncation, or stream
     *         failure (contents are cleared in that case).
     */
    bool load(std::istream &is);

    /** Convenience file wrappers. */
    bool saveFile(const std::string &path) const;
    bool loadFile(const std::string &path);

  private:
    std::vector<TraceRecord> records_;
};

/** Probe appending every pipeline event to a TraceLog. */
class LogTracer : public CoreProbe
{
  public:
    explicit LogTracer(TraceLog &log)
        : CoreProbe(/*pipeline_events=*/true), log_(log)
    {}

    void event(TraceEvent ev, Cycles cycle, std::uint64_t seq,
               std::uint32_t pc, OpClass cls) override;

  private:
    TraceLog &log_;
};

/**
 * Probe comparing a live run's pipeline events against a recorded
 * log.
 * Divergence is latched at the first mismatching (or extra) event;
 * later events are still counted but not re-compared so the report
 * names the root divergence, not the noise after it.
 */
class ReplayTracer : public CoreProbe
{
  public:
    /** @param golden the recorded reference stream (not owned). */
    explicit ReplayTracer(const TraceLog &golden)
        : CoreProbe(/*pipeline_events=*/true), golden_(golden)
    {}

    void event(TraceEvent ev, Cycles cycle, std::uint64_t seq,
               std::uint32_t pc, OpClass cls) override;

    /**
     * True when every live event matched the golden log and the
     * live stream is exactly as long as the golden one. Call after
     * the run; a live stream that ended short also fails.
     */
    bool ok() const
    {
        return !diverged_ && position_ == golden_.size();
    }

    /** True when some prefix diverged (regardless of lengths). */
    bool diverged() const { return diverged_; }

    /** Index of the first divergent event (valid when diverged()). */
    std::size_t divergenceIndex() const { return divergenceIndex_; }

    /** Events received from the live run. */
    std::size_t received() const { return received_; }

    /** Human-readable expected-vs-actual line (empty when ok). */
    std::string message() const;

  private:
    const TraceLog &golden_;
    std::size_t position_ = 0;
    std::size_t received_ = 0;
    bool diverged_ = false;
    std::size_t divergenceIndex_ = 0;
    TraceRecord expected_;
    TraceRecord actual_;
};

} // namespace xui

#endif // XUI_VERIFY_TRACE_LOG_HH
