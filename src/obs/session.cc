#include "obs/session.hh"

#include <iostream>

namespace xui
{

ObsSession::ObsSession(std::string metrics_path,
                       std::string trace_path)
    : metricsPath_(std::move(metrics_path)),
      tracePath_(std::move(trace_path))
{
    if (metricsPath_.empty() && tracePath_.empty())
        return;
    metrics_ = std::make_unique<MetricsRegistry>();
    spans_ = std::make_unique<IntrSpanTracker>(*metrics_);
    if (!tracePath_.empty())
        trace_ = std::make_unique<TraceJsonWriter>();
}

ObsSession::~ObsSession() = default;

KernelCounterTrace *
ObsSession::kernelTrace()
{
    if (trace_ == nullptr)
        return nullptr;
    if (kernelTrace_ == nullptr)
        kernelTrace_ = std::make_unique<KernelCounterTrace>(*trace_);
    return kernelTrace_.get();
}

CoreProbe *
ObsSession::probeFor(const OooCore &core)
{
    if (!enabled())
        return nullptr;
    bool wantSampler =
        profile_.counterStride > 0 && trace_ != nullptr;
    bool wantTax = profile_.tax;
    if ((wantSampler || wantTax) && profiler_ == nullptr) {
        profiler_ = std::make_unique<PipelinePressureProfiler>(
            profile_, wantTax ? metrics_.get() : nullptr,
            wantSampler ? trace_.get() : nullptr);
    }
    auto tee = std::make_unique<ProbeTee>();
    tee->add(spans_.get());
    if (profiler_ != nullptr)
        tee->add(profiler_->makeProbe(core));
    if (trace_ != nullptr) {
        if (tees_.empty())
            trace_->nameProcess(kTracePidUarch, "uarch");
        trace_->nameThread(kTracePidUarch, core.id(),
                           "core" + std::to_string(core.id()));
        sinks_.push_back(
            std::make_unique<PipelineTraceSink>(*trace_, core.id()));
        tee->add(sinks_.back().get());
    }
    tees_.push_back(std::move(tee));
    return tees_.back().get();
}

void
ObsSession::attach(UarchSystem &sys)
{
    for (std::size_t i = 0; i < sys.numCores(); ++i)
        sys.core(i).setProbe(probeFor(sys.core(i)));
}

void
ObsSession::attach(EventQueue &queue, unsigned tid,
                   const std::string &name)
{
    if (trace_ == nullptr)
        return;
    trace_->nameProcess(kTracePidDes, "des");
    trace_->nameThread(kTracePidDes, tid, name);
    desHooks_.push_back(
        std::make_unique<DesTraceHook>(*trace_, tid));
    desHooks_.back()->attach(queue);
}

void
ObsSession::publishCore(OooCore &core)
{
    if (!enabled())
        return;
    const CoreStats &s = core.stats();
    std::string base = "core" + std::to_string(core.id()) + ".";
    metrics_->counter(base + "cycles").inc(s.cycles);
    metrics_->counter(base + "committed_insts")
        .inc(s.committedInsts);
    metrics_->counter(base + "committed_uops").inc(s.committedUops);
    metrics_->counter(base + "fetched_uops").inc(s.fetchedUops);
    metrics_->counter(base + "squashed_uops").inc(s.squashedUops);
    metrics_->counter(base + "squashes").inc(s.squashes);
    metrics_->counter(base + "branch_mispredicts")
        .inc(s.branchMispredicts);
    metrics_->counter(base + "intr_raised").inc(s.interruptsRaised);
    metrics_->counter(base + "intr_delivered")
        .inc(s.interruptsDelivered);
    metrics_->counter(base + "reinjections").inc(s.reinjections);
    metrics_->counter(base + "slow_path_forwards")
        .inc(s.slowPathForwards);
    metrics_->counter(base + "drain_wait_cycles")
        .inc(s.drainWaitCycles);
    if (s.cycles > 0) {
        metrics_->gauge(base + "ipc").set(
            static_cast<double>(s.committedInsts) /
            static_cast<double>(s.cycles));
    }
    // Fast-forward (sampled-detail) accounting. Only emitted when
    // the mode ever engaged, so exact-mode metrics files are
    // unchanged byte-for-byte.
    if (s.ffEntries > 0) {
        metrics_->counter(base + "ff.entries").inc(s.ffEntries);
        metrics_->counter(base + "ff.exits").inc(s.ffExits);
        metrics_->counter(base + "ff.cycles").inc(s.ffCycles);
        metrics_->counter(base + "ff.insts").inc(s.ffInsts);
        metrics_->gauge(base + "ff.cycle_fraction")
            .set(static_cast<double>(s.ffCycles) /
                 static_cast<double>(s.cycles));
        if (trace_ != nullptr) {
            // Mode-transition spans: one "X" slice per fast-forward
            // region on the core's track, so the detail windows are
            // the visible gaps between them in Perfetto.
            for (const FfSpan &span : s.ffSpans) {
                Cycles end = span.exitedAt != 0 ? span.exitedAt
                                                : core.now();
                trace_->complete(
                    "ff", "mode", span.enteredAt, end,
                    kTracePidUarch, core.id(),
                    "{\"insts\": " + std::to_string(span.insts) +
                        "}");
            }
        }
    }
}

int
ObsSession::finish()
{
    if (finished_ || !enabled())
        return 0;
    finished_ = true;
    int rc = 0;
    if (profiler_ != nullptr)
        profiler_->publish(*metrics_);
    if (trace_ != nullptr) {
        spans_->exportTo(*trace_);
        // Drop accounting: counter samples are sacrificed before
        // span events at the buffer cap, and the two losses are
        // reported separately (a lost sample costs resolution, a
        // lost span deletes an interrupt from the timeline).
        metrics_->counter("obs.trace.dropped_samples")
            .inc(trace_->droppedSamples());
        metrics_->counter("obs.trace.dropped_spans")
            .inc(trace_->droppedSpans());
        if (trace_->dropped() > 0) {
            std::cerr << "obs: dropped " << trace_->droppedSamples()
                      << " counter samples and "
                      << trace_->droppedSpans()
                      << " span events (buffer cap reached)\n";
        }
        if (!trace_->writeFile(tracePath_)) {
            std::cerr << "obs: cannot write " << tracePath_ << "\n";
            rc = 1;
        }
    }
    if (metricsEnabled() && !metrics_->writeJsonFile(metricsPath_)) {
        std::cerr << "obs: cannot write " << metricsPath_ << "\n";
        rc = 1;
    }
    return rc;
}

} // namespace xui
