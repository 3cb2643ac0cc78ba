/**
 * @file
 * Benchmark binary: runs one workload for a fixed time and prints
 * its metrics, with the result as a JSON object on the last line.
 *
 *   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *             [--reference FILE] [--trace-out FILE]
 *             [--source-digest HEX] [--dump-pins FILE]
 *
 * --trace 0 reports the end-to-end metrics (wall_s, cpu_s, setup_s,
 * peak_rss_mb); --trace 1 reports the per-layer metrics from spans
 * the benchmark records around its calls into each module.
 * --dump-pins runs one untraced pass and writes its per-cell pins,
 * the format of the committed reference table.
 *
 * Exit status: 0 when every cell passed its checks, 1 when a check
 * failed, 2 on bad arguments or an unoptimised build.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "ckpt/build_info.hh"
#include "obs/json.hh"
#include "quantiles.hh"
#include "runner.hh"

using namespace perfbench;

namespace
{

int
usage(const char *msg)
{
    std::cerr << "perfbench: " << msg << "\n"
              << "usage: perfbench --workload NAME [--seed N] [--seconds S] "
                 "[--trace 0|1] [--reference FILE] [--trace-out FILE] "
                 "[--source-digest HEX] [--dump-pins FILE]\nworkloads:";
    for (const Workload &w : workloads())
        std::cerr << " " << w.name;
    std::cerr << "\n";
    return 2;
}

bool
parseUnsigned(const char *text, std::uint64_t &out)
{
    char *end = nullptr;
    if (!*text || *text == '-')
        return false;
    out = std::strtoull(text, &end, 10);
    return *end == '\0';
}

void
printMetrics(const char *title, const std::vector<Metric> &ms)
{
    std::printf("%s\n", title);
    for (const Metric &m : ms)
        std::printf("  %-28s %16.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    RunOptions opt;
    std::string ref_path = "perfbench/reference.json";
    std::string dump_path;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + a).c_str());
        const char *v = argv[++i];
        std::uint64_t n = 0;
        if (a == "--workload") {
            opt.workload = v;
        } else if (a == "--seed") {
            if (!parseUnsigned(v, opt.seed))
                return usage("--seed takes a non-negative integer");
        } else if (a == "--seconds") {
            if (!parseUnsigned(v, n) || n == 0 || n > 3600)
                return usage("--seconds takes an integer in 1..3600");
            opt.seconds = static_cast<double>(n);
        } else if (a == "--trace") {
            if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)
                return usage("--trace takes 0 or 1");
            opt.trace = v[0] == '1';
        } else if (a == "--reference") {
            ref_path = v;
        } else if (a == "--trace-out") {
            opt.traceOut = v;
        } else if (a == "--source-digest") {
            opt.sourceDigest = v;
        } else if (a == "--dump-pins") {
            dump_path = v;
        } else {
            return usage(("unknown flag " + a).c_str());
        }
    }
    const Workload *wl = findWorkload(opt.workload);
    if (!wl)
        return usage(("unknown workload '" + opt.workload + "'").c_str());

#ifndef __OPTIMIZE__
    std::cerr << "perfbench: refusing to time an unoptimised build\n";
    return 2;
#endif
    if (std::string(xui::ckpt::kBuildType) == "Debug") {
        std::cerr << "perfbench: refusing to time a Debug build\n";
        return 2;
    }

    Reference ref;
    std::string err;
    if (!ref.load(ref_path, err)) {
        std::cerr << "perfbench: " << err << "\n";
        return 2;
    }

    if (!dump_path.empty()) {
        PassContext ctx;
        ctx.seed = opt.seed;
        SpanLog off(false);
        ctx.spans = &off;
        std::vector<PassResult> passes;
        passes.push_back(wl->run(ctx));
        const Evaluation ev = evaluate(passes, Reference{}, opt.seed);
        for (const std::string &f : ev.failures)
            std::cerr << "FAIL " << f << "\n";
        if (ev.failed)
            return 1;
        std::ofstream out(dump_path, std::ios::binary);
        out << pinsJson(opt.seed, passes.front());
        return out ? 0 : 1;
    }

    const RunReport rep = runBenchmark(*wl, opt, ref);

    std::printf("provenance {");
    bool first = true;
    for (const auto &[k, v] : rep.provenance) {
        std::printf("%s\"%s\": \"%s\"", first ? "" : ", ",
                    xui::jsonEscape(k).c_str(), xui::jsonEscape(v).c_str());
        first = false;
    }
    std::printf("}\n");
    std::printf("workload %s: %s; every cell starts from empty modelled "
                "caches\n",
                wl->name, wl->why);
    std::printf("passes: %zu untraced, %zu traced; cells checked %llu, "
                "failed %llu; reference pins %s for seed %llu\n",
                rep.untracedPasses, rep.tracedPasses,
                static_cast<unsigned long long>(rep.eval.attempted),
                static_cast<unsigned long long>(rep.eval.failed),
                ref.hasSeed(opt.seed) ? "checked" : "absent (invariants only)",
                static_cast<unsigned long long>(opt.seed));
    for (const std::string &f : rep.eval.failures)
        std::printf("FAIL %s\n", f.c_str());
    std::vector<Metric> e2e = rep.endToEnd;
    e2e.push_back({"fail_frac", rep.failFrac(), "ratio"});
    std::printf("wall_s per untraced pass:");
    for (double w : rep.passWalls)
        std::printf(" %.4f", w);
    std::printf("  (IQR/median %.1f%%)\n", 100.0 * iqrShare(rep.passWalls));
    printMetrics("end-to-end (median over untraced passes):", e2e);
    if (wl->headlineWhat)
        std::printf("accuracy: %s = %.6g %s (paper ~%g, EXPERIMENTS.md "
                    "full-mode bench %g)\n",
                    wl->headlineWhat, rep.headline, wl->headlineUnit,
                    wl->paperValue, wl->repoValue);
    else
        std::printf("accuracy: model unvalidated (no paper value for this "
                    "workload)\n");
    if (opt.trace)
        printMetrics("per-layer (traced passes):", rep.perLayer);

    std::printf("%s\n",
                resultJson(rep, opt.trace ? rep.perLayer : rep.endToEnd)
                    .c_str());
    return rep.correct() ? 0 : 1;
}
