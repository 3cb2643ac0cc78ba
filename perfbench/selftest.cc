/**
 * @file
 * Tests of the benchmark's own code: the order statistics on known
 * vectors (quartiles checked against Python's
 * statistics.quantiles(n=4)), span self time, a planted wrong
 * reference digest failing its cell, and the result line and trace
 * file parsing with the repo's JSON parser.
 *
 * Run from the repository root: python3 perfbench/run.py --self-test
 * Exit status 0 when every check passes.
 */

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json_parse.hh"
#include "quantiles.hh"
#include "runner.hh"

using namespace perfbench;

namespace
{

int g_failed = 0;
int g_checks = 0;

void
check(bool ok, const std::string &what)
{
    ++g_checks;
    if (!ok) {
        ++g_failed;
        std::printf("FAIL %s\n", what.c_str());
    }
}

bool
near(double a, double b)
{
    return std::fabs(a - b) < 1e-12;
}

void
testQuantiles()
{
    check(median({7, 1, 5, 3, 9, 11, 2}) == 5.0, "median odd");
    check(median({4, 1, 3, 2}) == 2.5, "median even");
    check(median({}) == 0.0, "median empty");

    // Expected values from Python: statistics.quantiles(v, n=4).
    const auto q1 = quartiles({1, 2, 3, 4});
    check(near(q1[0], 1.25) && near(q1[1], 2.5) && near(q1[2], 3.75),
          "quartiles [1..4]");
    const auto q2 = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
    check(near(q2[0], 2.75) && near(q2[1], 5.5) && near(q2[2], 8.25),
          "quartiles [1..10]");
    const auto q3 = quartiles({3.5, 1.25});
    check(near(q3[0], 0.6875) && near(q3[1], 2.375) && near(q3[2], 4.0625),
          "quartiles of two values");
    const auto q4 = quartiles({7, 1, 5, 3, 9, 11, 2});
    check(near(q4[0], 2.0) && near(q4[1], 5.0) && near(q4[2], 9.0),
          "quartiles unsorted odd");
    check(near(iqrShare({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), 5.5 / 5.5),
          "iqr share");

    std::vector<double> hundred;
    for (int i = 1; i <= 100; ++i)
        hundred.push_back(i);
    check(percentile(hundred, 50) == 50 && percentile(hundred, 99) == 99 &&
              percentile(hundred, 100) == 100,
          "nearest-rank percentiles of 1..100");
    check(percentile({5}, 99) == 5, "percentile of one value");
    check(percentile({30, 10, 20}, 50) == 20, "percentile unsorted");
}

void
testSelfTime()
{
    // Parent [0,100) with overlapping children [20,50) and [40,70)
    // and 5 ns of excluded callback time: self = 100 - 50 - 5.
    std::vector<Span> s(3);
    s[0] = {"des", "runUntil", 0, 100, -1, 0, 0, 5};
    s[1] = {"os", "a", 20, 50, 0, 0, 0, 0};
    s[2] = {"os", "b", 40, 70, 0, 0, 0, 0};
    auto self = selfTimesNs(s);
    check(self["self/des"] == 45.0, "parent self time");
    check(self["self/des/runUntil"] == 45.0, "parent op self time");
    check(self["self/os"] == 60.0, "children self time");
    check(selfTimesNs(s, 1)["self/des"] == 0.0, "self time from an offset");
}

/** One real pass: a correct reference passes, a planted one fails. */
void
testPlantedReference()
{
    const Workload *wl = findWorkload("cycle_stall");
    SpanLog off(false);
    PassContext ctx;
    ctx.seed = 3;
    ctx.spans = &off;
    std::vector<PassResult> passes{wl->run(ctx)};
    const std::size_t cells = passes[0].cells.size();

    std::string text = "{\"cells\": " + pinsJson(3, passes[0]) + "}";
    Reference good;
    std::string err;
    check(good.parse(text, err), "reference round-trips: " + err);
    Evaluation ok = evaluate(passes, good, 3);
    check(ok.attempted == cells && ok.failed == 0,
          "matching reference passes every cell");

    // Plant a wrong interrupt digest in the third cell.
    PassResult planted = passes[0];
    bool changed = false;
    for (Pin &p : planted.cells[2].pins)
        if (p.key == "intr_digest") {
            p.value[p.value.size() - 1] =
                p.value.back() == '0' ? '1' : '0';
            changed = true;
        }
    check(changed, "cell has an interrupt digest pin");
    Reference bad;
    check(bad.parse("{\"cells\": " + pinsJson(3, planted) + "}", err),
          "planted reference parses");
    Evaluation ev = evaluate(passes, bad, 3);
    check(ev.attempted == cells && ev.failed == 1,
          "planted digest fails exactly its cell");
    RunReport rep;
    rep.eval = ev;
    check(rep.failFrac() > 0.0 && !rep.correct(),
          "planted digest raises fail_frac");

    // A seed without reference pins is checked by invariants only.
    check(evaluate(passes, bad, 4).failed == 0,
          "seed without pins passes on invariants");
    // A broken invariant fails its cell.
    std::vector<PassResult> broken = passes;
    broken[0].cells[0].violations.push_back("planted violation");
    check(evaluate(broken, good, 3).failed == 1, "invariant failure counts");
}

/** A short traced run: result line and trace file must parse. */
void
testJsonOutputs()
{
    RunOptions opt;
    opt.workload = "des_server";
    opt.seed = 5;
    opt.seconds = 1;
    opt.trace = true;
    opt.traceOut = ".bench_build/perfbench-selftest-trace.json";
    const RunReport rep = runBenchmark(*findWorkload(opt.workload), opt,
                                       Reference{});
    check(rep.correct(), "des_server traced run passes its checks");

    for (bool traced : {false, true}) {
        const std::string line =
            resultJson(rep, traced ? rep.perLayer : rep.endToEnd);
        xui::JsonValue v;
        std::string err;
        check(xui::jsonParse(line, v, err), "result line parses: " + err);
        check(v.kind == xui::JsonValue::Kind::Object &&
                  v.object.size() == 4 && v.find("correct") &&
                  v.find("attempted") && v.find("failed") &&
                  v.find("metrics"),
              "result line has exactly the four keys");
        const xui::JsonValue *m = v.find("metrics");
        const std::size_t want =
            traced ? perLayerMetrics().size() : std::size_t(4);
        check(m && m->object.size() == want, "result line metric count");
        if (m && !m->object.empty())
            check(m->object[0].second.find("value") &&
                      m->object[0].second.find("unit"),
                  "metric has value and unit");
    }

    xui::JsonValue trace;
    std::string err;
    check(xui::jsonParseFile(opt.traceOut, trace, err),
          "trace file parses: " + err);
    const xui::JsonValue *events = trace.find("traceEvents");
    check(events && events->array.size() > 10, "trace has span events");
    std::remove(opt.traceOut.c_str());
}

/** BENCHMARK.json must list exactly the metrics the binary reports. */
void
testBenchmarkJson()
{
    xui::JsonValue doc;
    std::string err;
    check(xui::jsonParseFile("BENCHMARK.json", doc, err),
          "BENCHMARK.json parses: " + err);
    auto names = [&doc](const char *key) {
        std::vector<std::pair<std::string, std::string>> out;
        if (const xui::JsonValue *list = doc.find(key))
            for (const xui::JsonValue &m : list->array) {
                const xui::JsonValue *n = m.find("name");
                const xui::JsonValue *u = m.find("unit");
                out.emplace_back(n ? n->string : "", u ? u->string : "");
            }
        return out;
    };
    check(names("per_layer") == perLayerMetrics(),
          "BENCHMARK.json per_layer matches the binary's per-layer metrics");
    check(names("end_to_end") == endToEndMetrics(),
          "BENCHMARK.json end_to_end matches the binary's metrics");
    std::vector<std::string> wl;
    if (const xui::JsonValue *list = doc.find("workloads"))
        for (const xui::JsonValue &w : list->array)
            wl.push_back(w.find("name") ? w.find("name")->string : "");
    // A workload may be left out of the gated list, never invented.
    check(!wl.empty(), "BENCHMARK.json lists workloads");
    for (const std::string &name : wl)
        check(findWorkload(name) != nullptr,
              "BENCHMARK.json workload " + name + " exists in the binary");
}

} // namespace

int
main()
{
    testBenchmarkJson();
    testQuantiles();
    testSelfTime();
    testPlantedReference();
    testJsonOutputs();
    std::printf("perfbench self-test: %d checks, %d failed\n", g_checks,
                g_failed);
    return g_failed == 0 ? 0 : 1;
}
