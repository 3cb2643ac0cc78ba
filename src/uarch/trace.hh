/**
 * @file
 * Text rendering of a core's pipeline events — the equivalent of
 * gem5's Exec/O3 debug traces. StreamTracer is a CoreProbe
 * (uarch/probe.hh) that takes pipeline events and writes one line
 * per event; attach it like any other probe.
 */

#ifndef XUI_UARCH_TRACE_HH
#define XUI_UARCH_TRACE_HH

#include <cstdint>
#include <ostream>

#include "uarch/probe.hh"

namespace xui
{

/** Text probe: one line per pipeline event. */
class StreamTracer : public CoreProbe
{
  public:
    explicit StreamTracer(std::ostream &os)
        : CoreProbe(/*pipeline_events=*/true), os_(os)
    {}

    void event(TraceEvent ev, Cycles cycle, std::uint64_t seq,
               std::uint32_t pc, OpClass cls) override;

  private:
    std::ostream &os_;
};

} // namespace xui

#endif // XUI_UARCH_TRACE_HH
