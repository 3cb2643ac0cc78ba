/**
 * @file
 * Shared helpers for the bench binaries: the flag declarations they
 * draw from and the header banner.
 *
 * Every bench declares, on one exec::FlagSet, only the flags some
 * code path in it reads; `--help` prints exactly that list, and any
 * other flag exits 2 with usage (src/exec/flags.hh). The helpers
 * below declare each shared flag once — its name, metavar, help
 * line, Options target, and check — so the benches, the tests, and
 * the generated usage all agree on them.
 */

#ifndef XUI_BENCH_BENCH_UTIL_HH
#define XUI_BENCH_BENCH_UTIL_HH

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "exec/flags.hh"
#include "intr/policy.hh"

namespace xui::bench
{

/**
 * Parsed `--policy NAME` choice. The names map onto the delivery
 * policies in src/intr/policy.hh plus the two mechanism knobs:
 *  - off (default): the legacy protocol, bit-identical runs;
 *  - next_only_edge / next_only_level / next_or_missed_edge /
 *    next_or_missed_level: a (behavior x trigger) combination;
 *  - moderated: ITR moderation + coalescing (see --itr-ns);
 *  - adaptive: load-adaptive preemption quantum (fig7 runtime).
 */
struct PolicyChoice
{
    std::string name = "off";
    /** True for every choice other than "off". */
    bool enabled = false;
    DeliveryPolicy policy{};
    bool moderated = false;
    bool adaptive = false;
};

/** @return false when `v` names no policy (`out` untouched). */
inline bool
parsePolicyName(const char *v, PolicyChoice &out)
{
    PolicyChoice c;
    c.name = v;
    c.enabled = true;
    if (std::strcmp(v, "off") == 0) {
        c.enabled = false;
    } else if (std::strcmp(v, "next_only_edge") == 0) {
        c.policy = {DeliveryBehavior::NextOnly, TriggerMode::Edge};
    } else if (std::strcmp(v, "next_only_level") == 0) {
        c.policy = {DeliveryBehavior::NextOnly, TriggerMode::Level};
    } else if (std::strcmp(v, "next_or_missed_edge") == 0) {
        c.policy = {DeliveryBehavior::NextOrMissed,
                    TriggerMode::Edge};
    } else if (std::strcmp(v, "next_or_missed_level") == 0) {
        c.policy = {DeliveryBehavior::NextOrMissed,
                    TriggerMode::Level};
    } else if (std::strcmp(v, "moderated") == 0) {
        c.moderated = true;
    } else if (std::strcmp(v, "adaptive") == 0) {
        c.adaptive = true;
    } else {
        return false;
    }
    out = c;
    return true;
}

struct Options
{
    bool quick = false;
    std::uint64_t seed = 1;
    /** `--metrics-json FILE`: write a metrics snapshot ("" = off). */
    std::string metricsJson;
    /** `--trace-json FILE`: write a Chrome trace ("" = off). */
    std::string traceJson;
    /**
     * `--counter-stride N`: sample counter tracks every N cycles
     * into the trace (0 = off; needs --trace-json to emit).
     */
    std::uint64_t counterStride = 0;
    /** `--tax`: interrupt-tax stall attribution (core.tax.*). */
    bool tax = false;
    /** `--jobs N`: sweep worker threads (0 = hardware threads). */
    unsigned jobs = 0;
    /** `--policy NAME`: delivery policy for the overload section. */
    PolicyChoice policy;
    /** True when --policy was given (even as "off"): the frontier
     *  then runs only that policy instead of the full panel. */
    bool policyGiven = false;
    /** `--itr-ns N`: moderation rate limit (0 = bench default). */
    std::uint64_t itrNs = 0;
    /**
     * `--offered-load X`: open-loop load multiplier relative to
     * saturation (1.0 = saturation, 2.0 = 2x overload). When set
     * (> 0) the bench runs its saturation-frontier section instead
     * of the default figure sweep.
     */
    double offeredLoad = 0.0;
    /**
     * `--rt-vector V`: latency-critical user vector (< 64) for the
     * mixed-criticality co-tenancy section (maxlat bench). 256 =
     * unset; the bench runs its default sweep.
     */
    std::uint64_t rtVector = 256;
    /** `--priority P`: the RT vector's priority level (< 4). */
    std::uint64_t rtPriority = kNumPriorityLevels - 1;
    /**
     * `--ff`: also run the sampled (fast-forward) pass for every
     * FF-capable scenario that does not run it by default (e.g.
     * simspeed's fig2), gating its accuracy like the always-on
     * pairs. Exact-mode measurements are unaffected.
     */
    bool ff = false;
    /**
     * `--detail-window N`: cycles of full detail kept around every
     * interrupt lifecycle event in sampled passes (>= 1).
     */
    std::uint64_t detailWindow = 512;
    /**
     * `--checkpoint-every N`: snapshot the checkpoint-capable
     * scenario every N committed cycles into a crash-consistent
     * on-disk generation set (0 = off). The bench reports snapshot
     * cost alongside its usual rates (EXPERIMENTS.md recovery-time
     * table).
     */
    std::uint64_t checkpointEvery = 0;
    /**
     * `--restore FILE`: resume the checkpoint-capable scenario from
     * a snapshot file instead of starting fresh. Provenance-strict:
     * a snapshot from a different binary is refused loudly.
     */
    std::string restorePath;
};

/** `--quick` and `--seed N`: every bench. */
inline void
declareQuickSeed(exec::FlagSet &f, Options &o)
{
    f.flag("--quick", "shorter runs (the CI smoke sizes)", o.quick)
        .uint("--seed", "N", "base RNG seed (default 1)", o.seed);
}

/** `--metrics-json` / `--trace-json`: the obs session's exports. */
inline void
declareExports(exec::FlagSet &f, Options &o)
{
    f.file("--metrics-json", "write a metrics snapshot", o.metricsJson)
        .file("--trace-json", "write a Perfetto-loadable Chrome trace",
              o.traceJson);
}

/**
 * declareExports() plus `--counter-stride` / `--tax`: benches whose
 * obs run goes through runObsScenario() / applyProfileFlags().
 */
inline void
declareObs(exec::FlagSet &f, Options &o)
{
    declareExports(f, o);
    f.uint("--counter-stride", "N",
           "sample counter tracks every N cycles (into --trace-json)",
           o.counterStride)
        .flag("--tax", "attribute interrupt-tax stall cycles (core.tax.*)",
              o.tax);
}

/**
 * `--policy NAME`, limited to `names` ("a|b|..."), each a name
 * parsePolicyName() accepts: the frontier then runs only that
 * policy instead of the full panel.
 */
inline void
declarePolicy(exec::FlagSet &f, Options &o, const char *names)
{
    f.custom("--policy", names,
             "run the --offered-load frontier under one policy",
             [&o, names](const char *v) {
                 std::string all = std::string("|") + names + "|";
                 if (all.find(std::string("|") + v + "|") ==
                         std::string::npos ||
                     !parsePolicyName(v, o.policy))
                     return std::string("unknown --policy '") + v +
                            "' (expected " + names + ")";
                 o.policyGiven = true;
                 return std::string();
             });
}

/** `--offered-load X`: run the saturation frontier up to X. */
inline void
declareOfferedLoad(exec::FlagSet &f, Options &o)
{
    f.positive("--offered-load", "X",
               "load multiplier over saturation for the frontier",
               o.offeredLoad);
}

/** `--itr-ns N`: the moderation rate limit. */
inline void
declareItrNs(exec::FlagSet &f, Options &o)
{
    f.uint("--itr-ns", "N",
           "ITR moderation interval in ns (0 = the 1000 ns default)",
           o.itrNs);
}

/** `--rt-vector V` / `--priority P`: the co-tenancy section. */
inline void
declareRtVector(exec::FlagSet &f, Options &o)
{
    f.uint("--rt-vector", "V",
           "run the co-tenancy section with RT vector V", o.rtVector,
           0, 63)
        .uint("--priority", "P", "the RT vector's priority level",
              o.rtPriority, 0, kNumPriorityLevels - 1);
}

inline void
banner(const char *title, const char *paper_ref)
{
    std::printf("\n================================================="
                "=====================\n");
    std::printf("%s\n", title);
    std::printf("Reproduces: %s\n", paper_ref);
    std::printf("==================================================="
                "===================\n\n");
}

} // namespace xui::bench

#endif // XUI_BENCH_BENCH_UTIL_HH
