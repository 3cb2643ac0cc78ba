#include "harness.hh"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/json.hh"
#include "obs/json_parse.hh"
#include "obs/metrics.hh"
#include "quantiles.hh"
#include "stats/digest.hh"
#include "uarch/ooo_core.hh"

namespace perfbench
{

void
CellResult::pin(const std::string &key, std::uint64_t v)
{
    pins.push_back({key, std::to_string(v)});
}

void
CellResult::pinHex(const std::string &key, std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, v);
    pins.push_back({key, buf});
}

void
CellResult::pinReal(const std::string &key, double v)
{
    pins.push_back({key, fullDigits(v)});
}

void
CellResult::check(bool ok, const std::string &what)
{
    if (!ok)
        violations.push_back(id + ": " + what);
}

void
PassResult::maxCount(const std::string &key, double v)
{
    double &slot = counts[key];
    slot = std::max(slot, v);
}

std::string
fullDigits(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::uint64_t
cellSeed(std::uint64_t seed, std::size_t cell)
{
    return seed * 0x9e3779b97f4a7c15ull + 0x51ed27ull * (cell + 1);
}

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> all = {
        {"cycle_stall",
         "cycle tier, pointer chases stalled on cache misses: the core "
         "ticks every cycle while almost nothing issues",
         runCycleStall,
         "worst Tracked delivery latency, 50-load SP-feeding chain",
         7000.0, 35973.0, "cycles"},
        {"cycle_busy",
         "cycle tier, high-IPC and store-heavy kernels under co-simulated "
         "device interrupts: every cycle does fetch/issue/commit work",
         runCycleBusy, nullptr, 0.0, 0.0, ""},
        {"des_server",
         "DES tier only: KV server, l3fwd and timer/watchdog churn carry "
         "all host time in the event queue and OS models",
         runDesServer,
         "xUI free-cycle share, l3fwd at 40% load and 1 NIC",
         45.0, 52.6, "%"},
        {"verify_sweep",
         "verification tier: digest-traced fuzz scenarios with in-memory "
         "checkpoint/restore, fanned out over 2 worker threads",
         runVerifySweep, nullptr, 0.0, 0.0, ""},
    };
    return all;
}

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : workloads())
        if (name == w.name)
            return &w;
    return nullptr;
}

void
collectCore(xui::OooCore &core, const std::string &prefix,
            CellResult &cell, PassResult &pass)
{
    const xui::CoreStats &st = core.stats();
    xui::Fnv1a intr;
    for (const xui::IntrRecord &r : st.intrRecords) {
        intr.update(static_cast<std::uint64_t>(r.source));
        intr.update(r.vector);
        intr.update(r.raisedAt);
        intr.update(r.acceptedAt);
        intr.update(r.deliveryExecAt);
        pass.intrLatency.push_back(
            static_cast<double>(r.deliveryExecAt - r.raisedAt));
    }
    // Per-cell miss counts show which modelled level each working set
    // actually exercises.
    const xui::MemHierarchy &mem = core.mem();
    cell.pin(prefix + "cycle", core.now());
    cell.pin(prefix + "committed_uops", st.committedUops);
    cell.pin(prefix + "delivered", st.interruptsDelivered);
    cell.pinHex(prefix + "intr_digest", intr.value());
    cell.pin(prefix + "l1d_misses", mem.l1().misses());
    cell.pin(prefix + "llc_misses", mem.llc().misses());

    // Conservation: every raise is delivered or still in flight
    // (queued in the interrupt unit or being delivered now).
    xui::InterruptUnit &unit = core.intrUnit();
    const std::uint64_t in_flight =
        unit.pendingCount() + (unit.busy() ? 1 : 0);
    cell.check(st.interruptsDelivered <= st.interruptsRaised &&
                   st.interruptsRaised - st.interruptsDelivered <= in_flight,
               prefix + "raised " + std::to_string(st.interruptsRaised) +
                   " != delivered " +
                   std::to_string(st.interruptsDelivered) + " + in flight " +
                   std::to_string(in_flight));
    cell.check(st.intrRecords.size() <= st.interruptsDelivered &&
                   st.interruptsDelivered - st.intrRecords.size() <= 1,
               prefix + "interrupt records disagree with deliveries");
    cell.check(st.committedUops <= st.fetchedUops,
               prefix + "committed more uops than fetched");

    pass.add("uarch.sim_cycles", static_cast<double>(st.cycles));
    pass.add("uarch.committed_uops", static_cast<double>(st.committedUops));
    pass.add("uarch.committed_insts",
             static_cast<double>(st.committedInsts));
    pass.add("uarch.fetched_uops", static_cast<double>(st.fetchedUops));
    pass.add("uarch.l1d_hits", static_cast<double>(mem.l1().hits()));
    pass.add("uarch.l1d_misses", static_cast<double>(mem.l1().misses()));
    pass.add("uarch.llc_hits", static_cast<double>(mem.llc().hits()));
    pass.add("uarch.llc_misses", static_cast<double>(mem.llc().misses()));
    pass.add("intr.raised", static_cast<double>(st.interruptsRaised));
    pass.add("intr.delivered", static_cast<double>(st.interruptsDelivered));
    pass.add("intr.reinjections", static_cast<double>(st.reinjections));
}

void
collectKernelCounters(const xui::MetricsRegistry &reg, PassResult &pass)
{
    static const std::pair<const char *, const char *> kNames[] = {
        {"kernel.kbtimer.fired", "os.kbtimer_fired"},
        {"kernel.senduipi.fast", "os.senduipi_fast"},
        {"kernel.context_switches", "os.context_switches"},
        {"kernel.forward.fast", "os.forward_fast"},
        {"kernel.forward.slow", "os.forward_slow"},
    };
    for (const auto &[src, dst] : kNames) {
        const xui::Counter *c = reg.findCounter(src);
        pass.tracedCounts[dst] += c ? static_cast<double>(c->value()) : 0.0;
    }
}

bool
Reference::load(const std::string &path, std::string &error)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        error = "cannot read " + path;
        return false;
    }
    std::ostringstream text;
    text << in.rdbuf();
    if (!parse(text.str(), error)) {
        error = path + ": " + error;
        return false;
    }
    return true;
}

bool
Reference::parse(const std::string &text, std::string &error)
{
    xui::JsonValue root;
    if (!xui::jsonParse(text, root, error))
        return false;
    const xui::JsonValue *cells = root.find("cells");
    if (!cells || cells->kind != xui::JsonValue::Kind::Object) {
        error = "no \"cells\" object";
        return false;
    }
    for (const auto &[seed_text, by_cell] : cells->object) {
        char *end = nullptr;
        const std::uint64_t seed = std::strtoull(seed_text.c_str(), &end, 10);
        if (seed_text.empty() || *end != '\0' ||
            by_cell.kind != xui::JsonValue::Kind::Object) {
            error = "bad seed entry \"" + seed_text + "\"";
            return false;
        }
        for (const auto &[cell, pins] : by_cell.object) {
            auto &dst = pins_[seed][cell];
            for (const auto &[key, value] : pins.object) {
                if (value.kind != xui::JsonValue::Kind::String) {
                    error = "pin " + cell + "/" + key +
                            " is not a string";
                    return false;
                }
                dst[key] = value.string;
            }
        }
    }
    return true;
}

bool
Reference::hasSeed(std::uint64_t seed) const
{
    return pins_.count(seed) != 0;
}

std::vector<std::string>
Reference::compare(std::uint64_t seed, const CellResult &cell) const
{
    std::vector<std::string> out;
    auto s = pins_.find(seed);
    if (s == pins_.end())
        return out;
    auto c = s->second.find(cell.id);
    if (c == s->second.end()) {
        out.push_back(cell.id + ": no reference pins for this cell");
        return out;
    }
    if (c->second.size() != cell.pins.size())
        out.push_back(cell.id + ": reference has " +
                      std::to_string(c->second.size()) + " pins, run has " +
                      std::to_string(cell.pins.size()));
    for (const Pin &p : cell.pins) {
        auto r = c->second.find(p.key);
        if (r == c->second.end())
            out.push_back(cell.id + ": pin " + p.key + " not in reference");
        else if (r->second != p.value)
            out.push_back(cell.id + ": " + p.key + " = " + p.value +
                          ", reference " + r->second);
    }
    return out;
}

std::string
pinsJson(std::uint64_t seed, const PassResult &pass)
{
    std::string out = "{\"" + std::to_string(seed) + "\": {";
    for (std::size_t i = 0; i < pass.cells.size(); ++i) {
        const CellResult &c = pass.cells[i];
        out += i ? ",\n  " : "\n  ";
        out += "\"" + xui::jsonEscape(c.id) + "\": {";
        for (std::size_t j = 0; j < c.pins.size(); ++j) {
            out += j ? ", " : "";
            out += "\"" + xui::jsonEscape(c.pins[j].key) + "\": \"" +
                   xui::jsonEscape(c.pins[j].value) + "\"";
        }
        out += "}";
    }
    out += "\n}}\n";
    return out;
}

const std::vector<std::pair<std::string, std::string>> &
endToEndMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> all = {
        {"wall_s", "s"},
        {"cpu_s", "s"},
        {"setup_s", "s"},
        {"peak_rss_mb", "MiB"},
    };
    return all;
}

const std::vector<std::pair<std::string, std::string>> &
perLayerMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> all = {
        {"uarch.sim_cycles", "count"},
        {"uarch.committed_uops", "count"},
        {"uarch.ns_per_kcycle", "ns"},
        {"uarch.ns_per_uop", "ns"},
        {"uarch.ipc", "inst/cycle"},
        {"uarch.useful_uop_ratio", "ratio"},
        {"uarch.l1d_miss_ratio", "ratio"},
        {"uarch.llc_miss_ratio", "ratio"},
        {"uarch.self_s", "s"},
        {"intr.raised", "count"},
        {"intr.delivered", "count"},
        {"intr.reinjections", "count"},
        {"intr.latency_p50_cycles", "cycles"},
        {"intr.latency_p99_cycles", "cycles"},
        {"des.events", "count"},
        {"des.ns_per_event", "ns"},
        {"des.pool_size", "count"},
        {"des.self_s", "s"},
        {"kv.ns_per_request", "ns"},
        {"kv.completed_frac", "ratio"},
        {"kv.get_p99_us", "us"},
        {"kv.self_s", "s"},
        {"os.kbtimer_fired", "count"},
        {"os.senduipi_fast", "count"},
        {"os.context_switches", "count"},
        {"os.forward_fast", "count"},
        {"os.forward_slow", "count"},
        {"os.self_s", "s"},
        {"net.ns_per_packet", "ns"},
        {"net.setup_s", "s"},
        {"net.forwarded_frac", "ratio"},
        {"net.interrupts", "count"},
        {"net.self_s", "s"},
        {"verify.trace_events", "count"},
        {"verify.ns_per_trace_event", "ns"},
        {"verify.self_s", "s"},
        {"ckpt.snapshot_bytes", "bytes"},
        {"ckpt.save_ms", "ms"},
        {"ckpt.load_ms", "ms"},
        {"exec.busy_frac", "ratio"},
        {"exec.jobs", "count"},
        {"workloads.build_ms", "ms"},
        {"bench.self_s", "s"},
        {"obs.trace_overhead_pct", "%"},
    };
    return all;
}

namespace
{

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

} // namespace

std::vector<Metric>
layerMetrics(const std::vector<PassResult> &traced, double overhead_pct)
{
    std::map<std::string, double> v;
    if (!traced.empty()) {
        const PassResult &p = traced.front();
        auto count = [&p](const std::string &k) {
            auto it = p.counts.find(k);
            return it == p.counts.end() ? 0.0 : it->second;
        };
        // Host measurements: median over traced passes.
        auto host = [&traced](const std::string &k) {
            std::vector<double> xs;
            for (const PassResult &t : traced) {
                auto it = t.host.find(k);
                xs.push_back(it == t.host.end() ? 0.0 : it->second);
            }
            return median(xs);
        };

        const double cycles = count("uarch.sim_cycles");
        const double uops = count("uarch.committed_uops");
        v["uarch.sim_cycles"] = cycles;
        v["uarch.committed_uops"] = uops;
        v["uarch.ns_per_kcycle"] =
            ratio(host("self/uarch/simulate"), cycles / 1000.0);
        v["uarch.ns_per_uop"] = ratio(host("self/uarch/simulate"), uops);
        v["uarch.ipc"] = ratio(count("uarch.committed_insts"), cycles);
        v["uarch.useful_uop_ratio"] = ratio(uops, count("uarch.fetched_uops"));
        v["uarch.l1d_miss_ratio"] =
            ratio(count("uarch.l1d_misses"),
                  count("uarch.l1d_hits") + count("uarch.l1d_misses"));
        v["uarch.llc_miss_ratio"] =
            ratio(count("uarch.llc_misses"),
                  count("uarch.llc_hits") + count("uarch.llc_misses"));
        v["intr.raised"] = count("intr.raised");
        v["intr.delivered"] = count("intr.delivered");
        v["intr.reinjections"] = count("intr.reinjections");
        v["intr.latency_p50_cycles"] = percentile(p.intrLatency, 50.0);
        v["intr.latency_p99_cycles"] = percentile(p.intrLatency, 99.0);
        v["des.events"] = count("des.events");
        v["des.ns_per_event"] = ratio(host("self/des/runUntil"),
                                      count("des.run_until_events"));
        v["des.pool_size"] = count("des.pool_size");
        v["kv.ns_per_request"] =
            ratio(host("self/kv/runKvServer"), count("kv.offered"));
        v["kv.completed_frac"] =
            ratio(count("kv.completed"), count("kv.offered"));
        v["kv.get_p99_us"] = count("kv.get_p99_us");
        for (const auto &[k, x] : p.tracedCounts)
            v[k] = x;
        v["net.ns_per_packet"] =
            ratio(host("self/net/run"), count("net.offered"));
        v["net.setup_s"] = host("self/net/setup") * 1e-9;
        v["net.forwarded_frac"] =
            ratio(count("net.forwarded"), count("net.offered"));
        v["net.interrupts"] = count("net.interrupts");
        v["verify.trace_events"] = count("verify.trace_events");
        v["verify.ns_per_trace_event"] = ratio(
            host("self/verify/simulate"), count("verify.events_processed"));
        const double snaps = count("ckpt.snapshots");
        v["ckpt.snapshot_bytes"] = ratio(count("ckpt.snapshot_bytes"), snaps);
        v["ckpt.save_ms"] = ratio(host("self/ckpt/save"), snaps) * 1e-6;
        v["ckpt.load_ms"] = ratio(host("self/ckpt/load"), snaps) * 1e-6;
        v["exec.busy_frac"] =
            ratio(host("exec.job_ns"), host("exec.capacity_ns"));
        v["exec.jobs"] = count("exec.jobs");
        v["workloads.build_ms"] = host("self/workloads") * 1e-6;
        for (const char *layer : {"uarch", "des", "kv", "os", "net",
                                  "verify", "bench"})
            v[std::string(layer) + ".self_s"] =
                host(std::string("self/") + layer) * 1e-9;
        v["obs.trace_overhead_pct"] = overhead_pct;
    }
    std::vector<Metric> out;
    for (const auto &[name, unit] : perLayerMetrics())
        out.push_back({name, v.count(name) ? v[name] : 0.0, unit});
    return out;
}

} // namespace perfbench
