/**
 * @file
 * Table 2 reproduction: key performance metrics of UIPI, measured on
 * the cycle-tier simulator and printed against the paper's Sapphire
 * Rapids measurements. Also prints the §2 mechanism comparison
 * (signals / polling / UIPI).
 */

#include <iostream>

#include "bench_util.hh"
#include "core/calibration.hh"
#include "obs_util.hh"
#include "os/cost_model.hh"
#include "stats/table.hh"

using namespace xui;

int
main(int argc, char **argv)
{
    bench::Options opts;
    exec::FlagSet flags;
    bench::declareQuickSeed(flags, opts);
    bench::declareObs(flags, opts);
    flags.parse(argc, argv);
    bench::banner("Table 2: Key performance metrics of UIPIs",
                  "xUI paper, Table 2 + Section 2 measurements");

    CalibrationResult c = calibrateFromCycleSim(opts.quick);

    TablePrinter t("Table 2 (cycles @ 2 GHz)");
    t.setHeader({"Metric", "Paper (SPR)", "Simulated", "Notes"});
    t.addRow({"End-to-End Latency", "1360",
              TablePrinter::num(c.endToEndLatency, 0),
              "senduipi start -> handler entry"});
    t.addRow({"Receiver Cost", "720",
              TablePrinter::num(c.receiverCostFlush, 0),
              "flush-based delivery occupancy"});
    t.addRow({"SENDUIPI", "383",
              TablePrinter::num(c.senduipiCost, 0),
              "tight senduipi loop throughput"});
    t.addRow({"CLUI", "2", TablePrinter::num(c.cluiCost, 0), ""});
    t.addRow({"STUI", "32", TablePrinter::num(c.stuiCost, 0), ""});
    t.print(std::cout);

    CostModel costs;
    TablePrinter m("\nSection 2: notification mechanism comparison "
                   "(receiver-side cycles per event)");
    m.setHeader({"Mechanism", "Paper", "This repo", "Notes"});
    m.addRow({"Signal", "~4800 (2.4us)",
              TablePrinter::integer(
                  static_cast<std::int64_t>(costs.signalReceive)),
              "OS context switches dominate"});
    m.addRow({"UIPI (flush)", "600-900",
              TablePrinter::num(c.receiverCostFlush, 0),
              "3x-5x cheaper than signals"});
    m.addRow({"Polling hit", "~100",
              TablePrinter::integer(
                  static_cast<std::int64_t>(costs.pollNotify)),
              "miss + branch mispredict"});
    m.addRow({"Polling check", "~3",
              TablePrinter::integer(
                  static_cast<std::int64_t>(costs.pollCheck)),
              "L1 hit + predicted branch"});
    m.addRow({"xUI tracked IPI", "231",
              TablePrinter::num(c.receiverCostTracked, 0), ""});
    m.addRow({"xUI KB timer", "105",
              TablePrinter::num(c.receiverCostKbTimer, 0),
              "no UPID access"});
    m.print(std::cout);

    ObsSession obs(opts.metricsJson, opts.traceJson);
    bench::runObsScenario(obs, opts);
    return obs.finish();
}
