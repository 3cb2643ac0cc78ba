/**
 * @file
 * One-stop observability session for benches and tools.
 *
 * ObsSession bundles the registry, the span tracker, the pressure
 * profiler and the trace writer behind the bench flags
 * (`--metrics-json FILE`, `--trace-json FILE`, `--counter-stride N`,
 * `--tax`). On the cycle tier it builds one ProbeTee per core
 * (uarch/probe.hh, DESIGN.md §5) holding the shared span tracker,
 * that core's profiler probe (when profiling is configured) and that
 * core's pipeline-trace sink (when tracing), and attaches it as the
 * core's probe. When neither file flag is given the session is
 * disabled: attach() calls are no-ops, every core keeps a null
 * probe, and the run is bit-for-bit identical to an uninstrumented
 * one.
 *
 * Typical bench wiring:
 *
 *     ObsSession obs(opt.metricsJson, opt.traceJson);
 *     obs.attach(sys);            // one probe tee per core
 *     ... run ...
 *     obs.publishCore(sys.core(0));
 *     return obs.finish();        // writes files, reports drops
 */

#ifndef XUI_OBS_SESSION_HH
#define XUI_OBS_SESSION_HH

#include <memory>
#include <string>
#include <vector>

#include "obs/kernel_trace.hh"
#include "obs/metrics.hh"
#include "obs/sampler.hh"
#include "obs/span.hh"
#include "obs/trace_export.hh"
#include "uarch/uarch_system.hh"

namespace xui
{

class ObsSession
{
  public:
    /**
     * @param metrics_path `--metrics-json` argument ("" = off)
     * @param trace_path `--trace-json` argument ("" = off)
     */
    ObsSession(std::string metrics_path, std::string trace_path);
    ~ObsSession();

    ObsSession(const ObsSession &) = delete;
    ObsSession &operator=(const ObsSession &) = delete;

    bool metricsEnabled() const { return !metricsPath_.empty(); }
    bool traceEnabled() const { return trace_ != nullptr; }
    bool enabled() const { return metrics_ != nullptr; }

    /**
     * Null when disabled. The registry exists whenever either flag
     * was given (the span tracker records into it); its file is only
     * written when `--metrics-json` was requested.
     */
    MetricsRegistry *metrics() { return metrics_.get(); }
    TraceJsonWriter *trace() { return trace_.get(); }
    PipelinePressureProfiler *profiler() { return profiler_.get(); }

    /**
     * Configure pipeline-pressure profiling (`--counter-stride`,
     * `--tax`). Must be called before attach(); counter tracks
     * additionally need `--trace-json`, the tax rollup needs the
     * registry (either flag). No-op when the session is disabled.
     */
    void setProfile(const ProfileConfig &cfg) { profile_ = cfg; }

    /**
     * Per-vector counter tracks for kernel.moderation.* /
     * kernel.recovery.* (pass to Kernel::attachCounterTrace).
     * Null when tracing is off.
     */
    KernelCounterTrace *kernelTrace();

    /**
     * Build the probe tee for `core` (see file comment); owned by
     * the session. For cores the session cannot attach itself, e.g.
     * one inside a ScenarioRun. Null when disabled.
     */
    CoreProbe *probeFor(const OooCore &core);

    /**
     * Attach probeFor(core) to every existing core of `sys`. No-op
     * when disabled.
     */
    void attach(UarchSystem &sys);

    /** Render DES events fired on `queue` onto track (1, tid). */
    void attach(EventQueue &queue, unsigned tid = 0,
                const std::string &name = "des");

    /** Snapshot a core's CoreStats into `core<N>.*` counters. */
    void publishCore(OooCore &core);

    /**
     * Export spans, write the requested files, and report dropped
     * trace events on stderr.
     * @return 0 on success, 1 when a file could not be written.
     */
    int finish();

  private:
    std::unique_ptr<MetricsRegistry> metrics_;
    std::unique_ptr<TraceJsonWriter> trace_;
    std::unique_ptr<IntrSpanTracker> spans_;
    std::unique_ptr<PipelinePressureProfiler> profiler_;
    std::unique_ptr<KernelCounterTrace> kernelTrace_;
    ProfileConfig profile_;
    std::vector<std::unique_ptr<ProbeTee>> tees_;
    std::vector<std::unique_ptr<PipelineTraceSink>> sinks_;
    std::vector<std::unique_ptr<DesTraceHook>> desHooks_;
    std::string metricsPath_;
    std::string tracePath_;
    bool finished_ = false;
};

} // namespace xui

#endif // XUI_OBS_SESSION_HH
