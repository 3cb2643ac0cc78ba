/**
 * @file
 * Scenario runner for the verification subsystem: one fully
 * described fuzz workload (program seed, system seed, delivery
 * strategy, timer pressure) executed under digest instrumentation.
 * Everything the checkers need — timing digest, architectural
 * digest, commit-order main-code PC stream, interrupt conservation
 * and timeline facts — comes back in one ScenarioResult, so the
 * determinism checker, the cross-seed equivalence checker, and the
 * cross-mode differential harness are all thin comparisons on top
 * of the same runner.
 */

#ifndef XUI_VERIFY_SCENARIO_HH
#define XUI_VERIFY_SCENARIO_HH

#include <cstdint>
#include <string>
#include <vector>

#include "des/time.hh"
#include "uarch/core_params.hh"
#include "uarch/ooo_core.hh"
#include "verify/fuzz.hh"

namespace xui
{

/** One verification workload, fully reproducible from this struct. */
struct ScenarioConfig
{
    /** Seed for the fuzz program shape. */
    std::uint64_t programSeed = 1;
    /** Seed for the UarchSystem master RNG (per-core streams). */
    std::uint64_t systemSeed = 1;
    DeliveryStrategy strategy = DeliveryStrategy::Tracked;
    bool safepointMode = false;
    /**
     * Run-to-next-wakeup in the core's run loops (CoreParams::
     * tickSkip). Exposed here so the differential harness can pin
     * digest equality of skipping vs. per-cycle ticking.
     */
    bool tickSkip = true;
    /**
     * Fast-forward (sampled-detail) mode (CoreParams::fastForward).
     * Off keeps the digest-pinned exact mode; on runs the
     * functional loop between interrupt activity with
     * `detailWindow` cycles of full detail after every lifecycle
     * event and `ffWarmup` cycles ahead of each predicted arrival.
     * Adversarially small windows force mode transitions into every
     * gap the controller can legally use.
     */
    bool fastForward = false;
    Cycles detailWindow = 512;
    Cycles ffWarmup = 256;
    FuzzProgramOptions program{};
    /** KB-timer period driving interrupt pressure. */
    Cycles timerPeriod = usToCycles(2);
    /** Run until this many macro instructions commit... */
    std::uint64_t targetInsts = 20000;
    /** ...bounded by this many cycles. */
    Cycles maxCycles = 20'000'000;
    /** Extra cycles of continued interrupt pressure afterwards. */
    Cycles extraCycles = 20000;
};

/** Everything observed from one scenario run. */
struct ScenarioResult
{
    /** Order-sensitive digest of every trace event (with cycles). */
    std::uint64_t fullDigest = 0;
    /** Timing-independent digest of the program-commit PC stream. */
    std::uint64_t archDigest = 0;
    std::uint64_t eventCount = 0;
    /** Commit-order PC stream of main-code (pre-handler) commits. */
    std::vector<std::uint32_t> mainPcs;
    /** Committed uops inside the handler region. */
    std::uint64_t handlerCommits = 0;

    std::uint64_t committedInsts = 0;
    std::uint64_t committedUops = 0;
    std::uint64_t fetchedUops = 0;
    std::uint64_t squashedUops = 0;
    std::uint64_t raised = 0;
    std::uint64_t delivered = 0;
    std::uint64_t reinjections = 0;
    Cycles cycles = 0;

    /** Fast-forward accounting (zero in exact-mode runs). */
    std::uint64_t ffEntries = 0;
    std::uint64_t ffExits = 0;
    std::uint64_t ffInsts = 0;
    Cycles ffCycles = 0;

    /**
     * Full per-interrupt timeline records, copied out of CoreStats
     * so the statistical-equivalence checker (statcheck.hh) can
     * compare delivery-latency distributions across runs.
     */
    std::vector<IntrRecord> intrRecords;

    /** Mean raise -> handler-start latency (deliveryExecAt). */
    double meanHandlerStartLatency = 0.0;
    /** Mean raise -> delivery-commit latency (Fig. 2 e2e view). */
    double meanDeliveryCommitLatency = 0.0;

    /**
     * Per-run sanity facts: interrupt conservation (no lost or
     * duplicated deliveries) and per-record timeline monotonicity.
     * Violations are rendered into `violations`.
     */
    std::vector<std::string> violations;

    bool ok() const { return violations.empty(); }
};

/**
 * Run one scenario to completion: a ScenarioRun (scenario_run.hh)
 * built from `cfg`, with `probe` (when non-null) attached beside the
 * digest — e.g. a LogTracer to record the run or a ReplayTracer to
 * compare it against a recording. Callers that need the core before
 * the run starts construct ScenarioRun directly.
 */
ScenarioResult runScenario(const ScenarioConfig &cfg,
                           CoreProbe *probe = nullptr);

/** Report from a double-run determinism check. */
struct DeterminismReport
{
    bool ok = false;
    std::uint64_t digestA = 0;
    std::uint64_t digestB = 0;
    std::uint64_t eventsA = 0;
    std::uint64_t eventsB = 0;
    std::string message;
};

/**
 * Run `cfg` twice from identical seeds and compare the full timing
 * digests — the whole-pipeline determinism regression.
 */
DeterminismReport checkDeterminism(const ScenarioConfig &cfg);

/** Report from an architectural-equivalence comparison. */
struct ArchEquivalenceReport
{
    bool ok = false;
    /** Length of the common prefix actually compared. */
    std::size_t comparedPrefix = 0;
    std::string message;
};

/**
 * Compare the commit-order main-code PC streams of two runs of the
 * same program. The shorter stream must be a prefix of the longer
 * one (runs stop at instruction/cycle bounds, so lengths differ),
 * and the common prefix must be at least `minPrefix` long.
 */
ArchEquivalenceReport
checkArchEquivalence(const ScenarioResult &a, const ScenarioResult &b,
                     std::size_t minPrefix);

} // namespace xui

#endif // XUI_VERIFY_SCENARIO_HH
