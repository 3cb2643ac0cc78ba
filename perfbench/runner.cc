#include "runner.hh"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sys/resource.h>
#include <unistd.h>

#include "ckpt/build_info.hh"
#include "obs/json.hh"
#include "quantiles.hh"

namespace perfbench
{

namespace
{

/** Record `msg` for a failed check, keeping the report readable. */
void
noteFailure(Evaluation &ev, const std::string &msg)
{
    constexpr std::size_t kMaxMessages = 40;
    if (ev.failures.size() < kMaxMessages)
        ev.failures.push_back(msg);
}

bool
samePins(const CellResult &a, const CellResult &b)
{
    if (a.id != b.id || a.pins.size() != b.pins.size())
        return false;
    for (std::size_t i = 0; i < a.pins.size(); ++i)
        if (a.pins[i].key != b.pins[i].key ||
            a.pins[i].value != b.pins[i].value)
            return false;
    return true;
}

double
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double
medianOf(const std::vector<PassResult> &passes, double PassResult::*field)
{
    std::vector<double> xs;
    for (const PassResult &p : passes)
        xs.push_back(p.*field);
    return median(xs);
}

} // namespace

Evaluation
evaluate(const std::vector<PassResult> &passes, const Reference &ref,
         std::uint64_t seed)
{
    Evaluation ev;
    if (passes.empty())
        return ev;
    const PassResult &first = passes.front();
    for (std::size_t p = 0; p < passes.size(); ++p) {
        const PassResult &pass = passes[p];
        if (pass.cells.size() != first.cells.size()) {
            ++ev.failed;
            noteFailure(ev, "pass " + std::to_string(p) + " ran " +
                                std::to_string(pass.cells.size()) +
                                " cells, pass 0 ran " +
                                std::to_string(first.cells.size()));
            continue;
        }
        for (std::size_t c = 0; c < pass.cells.size(); ++c) {
            const CellResult &cell = pass.cells[c];
            std::vector<std::string> bad = cell.violations;
            for (std::string &m : ref.compare(seed, cell))
                bad.push_back("reference mismatch: " + m);
            if (p > 0 && !samePins(cell, first.cells[c]))
                bad.push_back(cell.id + ": pins differ from pass 0 "
                                        "(nondeterministic simulation)");
            ++ev.attempted;
            if (!bad.empty()) {
                ++ev.failed;
                for (const std::string &m : bad)
                    noteFailure(ev, "pass " + std::to_string(p) + ": " + m);
            }
        }
        if (p > 0 && pass.counts != first.counts) {
            ++ev.failed;
            noteFailure(ev, "pass " + std::to_string(p) +
                                ": exact counts differ from pass 0");
        }
    }
    // Counts only traced passes collect must repeat among them.
    const PassResult *traced0 = nullptr;
    for (const PassResult &pass : passes) {
        if (pass.tracedCounts.empty())
            continue;
        if (!traced0)
            traced0 = &pass;
        else if (pass.tracedCounts != traced0->tracedCounts) {
            ++ev.failed;
            noteFailure(ev, "kernel counters differ between traced passes");
        }
    }
    return ev;
}

std::map<std::string, std::string>
provenance(const RunOptions &opt)
{
    std::map<std::string, std::string> p;
    p["git_sha"] = xui::ckpt::kBuildGitSha;
    p["build_type"] = xui::ckpt::kBuildType;
    p["compiler"] = XUI_CXX_COMPILER;
    p["nproc"] = std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
    p["seed"] = std::to_string(opt.seed);
    double load[1] = {0.0};
    p["loadavg_1m"] = getloadavg(load, 1) == 1 ? fullDigits(load[0]) : "?";
    p["workload"] = opt.workload;
    p["seconds"] = fullDigits(opt.seconds);
    p["trace"] = opt.trace ? "1" : "0";
    p["source_digest"] = opt.sourceDigest.empty() ? "?" : opt.sourceDigest;
    return p;
}

RunReport
runBenchmark(const Workload &wl, const RunOptions &opt, const Reference &ref)
{
    RunReport rep;
    rep.provenance = provenance(opt);
    SpanLog spans(opt.trace);
    SpanLog off(false);
    std::vector<PassResult> all;
    std::vector<PassResult> untraced;
    std::vector<PassResult> traced;

    // Untraced runs repeat passes until the next one would overrun
    // the budget. Traced runs alternate untraced and traced passes so
    // the tracing overhead is measured under the same conditions.
    const std::int64_t t0 = nowNs();
    const std::size_t min_passes = opt.trace ? 2 : 1;
    for (std::size_t i = 0;; ++i) {
        const bool tp = opt.trace && i % 2 == 1;
        PassContext ctx;
        ctx.seed = opt.seed;
        ctx.traced = tp;
        ctx.spans = tp ? &spans : &off;
        const std::size_t mark = spans.size();
        Stopwatch sw;
        PassResult r;
        {
            SpanLog::Scope root(*ctx.spans, "bench", "pass", -1, -1);
            r = wl.run(ctx);
        }
        const double last = sw.wallS();
        if (tp) {
            for (const auto &[k, v] : spans.selfNs(mark))
                r.host[k] += v;
            traced.push_back(r);
        } else {
            untraced.push_back(r);
        }
        all.push_back(std::move(r));
        const double elapsed = static_cast<double>(nowNs() - t0) * 1e-9;
        if (i + 1 >= min_passes && elapsed + last > opt.seconds)
            break;
    }

    // The sweep's combined digest must not depend on the worker count.
    bool serial_mismatch = false;
    if (opt.trace && wl.run == runVerifySweep) {
        PassContext ctx;
        ctx.seed = opt.seed;
        ctx.spans = &off;
        ctx.workers = 1;
        PassResult serial = wl.run(ctx);
        serial_mismatch = serial.combinedDigest != all.front().combinedDigest;
        all.push_back(std::move(serial));
    }

    rep.eval = evaluate(all, ref, opt.seed);
    if (serial_mismatch) {
        ++rep.eval.failed;
        noteFailure(rep.eval, "verify_sweep digest differs between 1 and 2 "
                              "workers");
    }
    rep.untracedPasses = untraced.size();
    rep.tracedPasses = traced.size();
    for (const PassResult &p : untraced)
        rep.passWalls.push_back(p.wallS);
    rep.headline = all.front().headline;

    const double e2e[] = {medianOf(untraced, &PassResult::wallS),
                          medianOf(untraced, &PassResult::cpuS),
                          medianOf(untraced, &PassResult::setupS),
                          peakRssMiB()};
    for (std::size_t i = 0; i < endToEndMetrics().size(); ++i)
        rep.endToEnd.push_back({endToEndMetrics()[i].first, e2e[i],
                                endToEndMetrics()[i].second});

    if (opt.trace) {
        const double plain = medianOf(untraced, &PassResult::wallS);
        const double with = medianOf(traced, &PassResult::wallS);
        const double overhead = plain > 0.0 ? 100.0 * (with / plain - 1.0) : 0.0;
        rep.perLayer = layerMetrics(traced, overhead);
        if (!opt.traceOut.empty()) {
            std::vector<std::string> names;
            for (const CellResult &c : all.front().cells)
                names.push_back(c.id);
            std::ofstream out(opt.traceOut, std::ios::binary);
            out << spans.perfettoJson(names, rep.provenance);
            if (!out) {
                ++rep.eval.failed;
                noteFailure(rep.eval, "cannot write trace " + opt.traceOut);
            }
        }
    }
    return rep;
}

std::string
resultJson(const RunReport &r, const std::vector<Metric> &metrics)
{
    std::string out = std::string("{\"correct\": ") +
                      (r.correct() ? "true" : "false") +
                      ", \"attempted\": " + std::to_string(r.eval.attempted) +
                      ", \"failed\": " + std::to_string(r.eval.failed) +
                      ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        out += i ? ", " : "";
        out += "\"" + xui::jsonEscape(m.name) + "\": {\"value\": " +
               (std::isfinite(m.value) ? fullDigits(m.value) : "0") +
               ", \"unit\": \"" + xui::jsonEscape(m.unit) + "\"}";
    }
    out += "}}";
    return out;
}

} // namespace perfbench
