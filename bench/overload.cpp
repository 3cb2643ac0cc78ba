/**
 * @file
 * Overload-survival reference benchmark (BENCH_overload.json).
 *
 * Runs the saturation frontiers the fig7/fig8 overload sections
 * expose — l3fwd under each delivery policy at and past saturation,
 * the KV server with fixed vs adaptive quantum — on fixed seeds and
 * quick-sized durations, prints the frontier, and emits
 * BENCH_overload.json (cwd) as the committed reference. The run
 * also enforces the overload-survival acceptance bar: with ITR
 * moderation enabled at the 2x point, l3fwd must sustain at least
 * the unmoderated policy's peak throughput (exit 1 otherwise), so
 * CI fails if moderation ever costs peak throughput.
 */

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "kv/server.hh"
#include "net/l3fwd.hh"
#include "overload_util.hh"
#include "stats/table.hh"

using namespace xui;

namespace
{

struct L3Point
{
    std::string policy;
    double load = 0.0;
    L3FwdResult r;
};

struct KvPoint
{
    std::string policy;
    double loadRps = 0.0;
    KvServerResult r;
};

void
writeJson(const char *path, const std::vector<L3Point> &l3,
          const std::vector<KvPoint> &kv, bool sustains,
          const bench::Options &opts)
{
    std::FILE *f = std::fopen(path, "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", path);
        return;
    }
    std::fprintf(f, "{\n  \"bench\": \"overload\",\n");
    std::fprintf(f, "  \"quick\": %s,\n",
                 opts.quick ? "true" : "false");
    std::fprintf(f, "  \"seed\": %llu,\n",
                 static_cast<unsigned long long>(opts.seed));
    std::fprintf(f, "  \"l3fwd\": [\n");
    for (std::size_t i = 0; i < l3.size(); ++i) {
        const L3Point &p = l3[i];
        std::fprintf(
            f,
            "    {\"policy\": \"%s\", \"load\": %.2f, "
            "\"forwarded\": %llu, \"dropped\": %llu, "
            "\"throughput_mpps\": %.4f, \"p95_us\": %.2f, "
            "\"p99_us\": %.2f, \"coalesced\": %llu, "
            "\"missed\": %llu, \"missed_recovered\": %llu}%s\n",
            p.policy.c_str(), p.load,
            static_cast<unsigned long long>(p.r.forwarded),
            static_cast<unsigned long long>(p.r.dropped),
            p.r.throughputMpps,
            cyclesToUs(static_cast<Cycles>(p.r.latency.p95())),
            cyclesToUs(static_cast<Cycles>(p.r.latency.p99())),
            static_cast<unsigned long long>(p.r.coalesced),
            static_cast<unsigned long long>(p.r.missed),
            static_cast<unsigned long long>(p.r.missedRecovered),
            i + 1 < l3.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"kv\": [\n");
    for (std::size_t i = 0; i < kv.size(); ++i) {
        const KvPoint &p = kv[i];
        std::fprintf(
            f,
            "    {\"policy\": \"%s\", \"load_rps\": %.0f, "
            "\"achieved_rps\": %.0f, \"get_p99_us\": %.1f, "
            "\"scan_p99_us\": %.1f}%s\n",
            p.policy.c_str(), p.loadRps, p.r.achievedRps,
            cyclesToUs(static_cast<Cycles>(p.r.getLatency.p99())),
            cyclesToUs(static_cast<Cycles>(p.r.scanLatency.p99())),
            i + 1 < kv.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"moderated_sustains_unmoderated_peak\": %s\n",
                 sustains ? "true" : "false");
    std::fprintf(f, "}\n");
    std::fclose(f);
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Options opts;
    exec::FlagSet flags;
    bench::declareQuickSeed(flags, opts);
    bench::declareItrNs(flags, opts);
    bench::declareOfferedLoad(flags, opts);
    flags.parse(argc, argv);
    bench::banner(
        "Overload survival reference (BENCH_overload.json)",
        "delivery policies, ITR moderation, adaptive quantum past "
        "saturation");

    double multiplier =
        opts.offeredLoad > 0.0 ? opts.offeredLoad : 2.0;
    Cycles l3_duration = (opts.quick ? 20 : 50) * kCyclesPerMs;
    Cycles kv_duration = (opts.quick ? 60 : 150) * kCyclesPerMs;

    const std::vector<std::string> l3_policies{
        "off", "next_or_missed_edge", "next_or_missed_level",
        "next_only_edge", "next_only_level", "moderated"};
    const std::vector<double> l3_loads{1.0, multiplier};

    std::vector<L3Point> l3;
    double off_peak = 0.0;
    double moderated_at_max = 0.0;
    for (const std::string &policy : l3_policies) {
        bench::PolicyChoice pc;
        bool ok = bench::parsePolicyName(policy.c_str(), pc);
        (void)ok;
        for (double load : l3_loads) {
            L3FwdConfig cfg;
            cfg.mode = RxMode::XuiForwarded;
            cfg.numNics = 2;
            cfg.duration = l3_duration;
            cfg.routeCount = 4000;
            cfg.load = load;
            cfg.seed = opts.seed;
            bench::applyPolicy(cfg, pc, opts.itrNs);
            L3Point p;
            p.policy = policy;
            p.load = load;
            p.r = runL3Fwd(cfg);
            if (policy == "off")
                off_peak = std::max(off_peak, p.r.throughputMpps);
            if (policy == "moderated" && load == multiplier)
                moderated_at_max = p.r.throughputMpps;
            l3.push_back(std::move(p));
        }
    }

    TablePrinter lt("l3fwd frontier (2 NICs, loads are fractions "
                    "of capacity)");
    lt.setHeader({"Policy", "Load", "Mpps", "Dropped", "p99 us",
                  "Coalesced", "Missed"});
    for (const L3Point &p : l3) {
        lt.addRow(
            {p.policy, TablePrinter::num(p.load, 2),
             TablePrinter::num(p.r.throughputMpps, 3),
             TablePrinter::num(static_cast<double>(p.r.dropped), 0),
             TablePrinter::num(
                 cyclesToUs(static_cast<Cycles>(p.r.latency.p99())),
                 2),
             TablePrinter::num(
                 static_cast<double>(p.r.coalesced), 0),
             TablePrinter::num(static_cast<double>(p.r.missed),
                               0)});
    }
    lt.print(std::cout);
    std::cout << '\n';

    const std::vector<std::string> kv_policies{"off", "adaptive"};
    std::vector<KvPoint> kv;
    for (const std::string &policy : kv_policies) {
        bench::PolicyChoice pc;
        bool ok = bench::parsePolicyName(policy.c_str(), pc);
        (void)ok;
        for (double load : l3_loads) {
            KvServerConfig cfg;
            cfg.mode = PreemptMode::XuiKbTimer;
            cfg.offeredLoadRps = load * bench::kKvSaturationRps;
            cfg.duration = kv_duration;
            cfg.seed = opts.seed;
            bench::applyPolicy(cfg, pc);
            KvPoint p;
            p.policy = policy;
            p.loadRps = cfg.offeredLoadRps;
            p.r = runKvServer(cfg);
            kv.push_back(std::move(p));
        }
    }

    TablePrinter kt("KV server frontier (xUI KB timer)");
    kt.setHeader({"Policy", "Load rps", "Achieved rps",
                  "GET p99 us", "SCAN p99 us"});
    for (const KvPoint &p : kv) {
        kt.addRow(
            {p.policy, TablePrinter::num(p.loadRps, 0),
             TablePrinter::num(p.r.achievedRps, 0),
             TablePrinter::num(
                 cyclesToUs(
                     static_cast<Cycles>(p.r.getLatency.p99())),
                 1),
             TablePrinter::num(
                 cyclesToUs(
                     static_cast<Cycles>(p.r.scanLatency.p99())),
                 1)});
    }
    kt.print(std::cout);

    bool sustains = moderated_at_max >= off_peak;
    std::cout << "\nmoderated @" << multiplier
              << "x: " << moderated_at_max
              << " Mpps vs unmoderated peak " << off_peak
              << " Mpps -> "
              << (sustains ? "sustains the peak"
                           : "FAILS the overload-survival bar")
              << '\n';

    writeJson("BENCH_overload.json", l3, kv, sustains, opts);
    std::printf("wrote BENCH_overload.json\n");
    return sustains ? 0 : 1;
}
