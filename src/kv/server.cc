#include "kv/server.hh"

#include <memory>
#include <vector>

#include "obs/metrics.hh"
#include "obs/trace_export.hh"

namespace xui
{

KvServerResult
runKvServer(const KvServerConfig &config)
{
    Simulation sim(config.seed);
    std::unique_ptr<DesTraceHook> hook;
    if (config.traceOut != nullptr) {
        hook = std::make_unique<DesTraceHook>(*config.traceOut);
        hook->attach(sim.queue());
    }
    Runtime runtime(sim, config.costs, config.workerCores,
                    config.mode, config.quantum);
    if (config.adaptive.enabled()) {
        runtime.setAdaptiveQuantum(config.adaptive);
        if (config.metrics != nullptr)
            runtime.attachMetrics(*config.metrics);
    }
    KvLoadGen gen(config.workload, config.offeredLoadRps,
                  sim.makeRng());

    KvServerResult result;
    Cycles warmup = static_cast<Cycles>(
        config.warmupFraction * static_cast<double>(config.duration));

    // Draw the whole arrival schedule, then feed it through the
    // event queue one request at a time (open loop: arrivals never
    // wait for the server).
    std::vector<KvRequest> reqs;
    std::vector<Cycles> times;
    for (KvRequest req = gen.next(); req.arrival < config.duration;
         req = gen.next()) {
        reqs.push_back(req);
        times.push_back(req.arrival);
    }
    result.offered = reqs.size();
    ArrivalFeed feed(sim.queue(), std::move(times), [&](std::size_t k) {
        const KvRequest &req = reqs[k];
        // The UDP request reaches the server; the runtime gets a
        // uthread whose work is the request's modelled service time.
        UThread t;
        t.id = req.id;
        t.tag = req.op == KvOp::Scan ? 1 : 0;
        t.totalWork = req.serviceTime;
        t.onComplete = [&result, warmup,
                        arrival = req.arrival](const UThread &ut) {
            if (ut.enqueuedAt < warmup)
                return;
            Cycles latency = ut.finishedAt - arrival;
            if (ut.tag == 1)
                result.scanLatency.record(
                    static_cast<std::int64_t>(latency));
            else
                result.getLatency.record(
                    static_cast<std::int64_t>(latency));
        };
        runtime.submit(std::move(t));
    });

    sim.runUntil(config.duration);
    // Achieved rate is what the server sustained over the offered
    // window; the bounded drain below only completes the latency
    // samples of queued requests.
    std::uint64_t completed_in_window = runtime.completed();
    Cycles drain_limit = config.duration * 2;
    while (runtime.inFlight() > 0 && sim.now() < drain_limit) {
        if (!sim.queue().runOne())
            break;
    }

    result.completed = runtime.completed();
    double measured_span =
        cyclesToUs(config.duration) / 1e6;  // seconds
    result.achievedRps =
        static_cast<double>(completed_in_window) / measured_span;

    Cycles busy = 0;
    for (unsigned i = 0; i < runtime.numWorkers(); ++i) {
        const auto &ws = runtime.workerStats(i);
        busy += ws.appCycles + ws.notifCycles + ws.switchCycles;
    }
    result.workerUtilization =
        static_cast<double>(busy) /
        static_cast<double>(config.duration * runtime.numWorkers());
    if (config.mode == PreemptMode::UipiSwTimer) {
        result.timerCoreUtilization = std::min(
            1.0, static_cast<double>(runtime.timerCoreBusy()) /
                     static_cast<double>(config.duration));
    }

    if (config.metrics != nullptr) {
        MetricsRegistry &r = *config.metrics;
        r.counter("kv.offered").inc(result.offered);
        r.counter("kv.completed").inc(result.completed);
        r.latency("kv.get").merge(result.getLatency);
        r.latency("kv.scan").merge(result.scanLatency);
        r.gauge("kv.achieved_rps").set(result.achievedRps);
        r.gauge("kv.worker_utilization")
            .set(result.workerUtilization);
    }
    return result;
}

} // namespace xui
