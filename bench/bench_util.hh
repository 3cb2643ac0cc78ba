/**
 * @file
 * Shared helpers for the bench binaries: flag parsing and header
 * banners. Every bench accepts `--quick` (shorter runs for CI),
 * `--seed N`, `--jobs N` (worker threads for the config-grid sweep;
 * 0/unset = one per hardware thread, 1 = the legacy serial path —
 * results are bit-identical either way), and the observability
 * flags `--metrics-json FILE` / `--trace-json FILE` (src/obs:
 * metrics snapshot and Perfetto-loadable Chrome trace export).
 * The pipeline-pressure profiler rides on the same session:
 * `--counter-stride N` samples core occupancy/rate/memory counter
 * tracks into the trace every N cycles (burst mode drops to every
 * cycle around interrupt spans), and `--tax` attributes every cycle
 * under a live interrupt span to flush/refill/ucode/handler/shadow
 * buckets (`core.tax.*` in the metrics snapshot).
 * Checkpoint/restore rides on the same session: `--checkpoint-every
 * N` snapshots the checkpoint-capable scenario into a
 * crash-consistent generation set, `--restore FILE` resumes from a
 * snapshot (provenance-strict), and `--version` prints the build's
 * git SHA, build type, and snapshot format version (the values
 * stamped into every snapshot header).
 * Unknown flags, flags missing their value, and malformed numeric
 * values (signs, non-digits, trailing junk; 0 where it would mean an
 * empty run, e.g. `--jobs 0`) are errors: usage goes to stderr and
 * the bench exits with status 2.
 */

#ifndef XUI_BENCH_BENCH_UTIL_HH
#define XUI_BENCH_BENCH_UTIL_HH

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "ckpt/build_info.hh"
#include "ckpt/snapshot.hh"
#include "exec/sweep.hh"
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

inline const char *
policyUsageNames()
{
    return "off|next_only_edge|next_only_level|next_or_missed_edge|"
           "next_or_missed_level|moderated|adaptive";
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

inline void
printUsage(std::FILE *out, const char *prog)
{
    std::fprintf(out,
                 "usage: %s [--quick] [--seed N] [--jobs N] "
                 "[--metrics-json FILE] [--trace-json FILE]\n"
                 "       [--counter-stride N] [--tax]\n"
                 "       [--policy %s]\n"
                 "       [--itr-ns N] [--offered-load X]\n"
                 "       [--rt-vector V] [--priority P]\n"
                 "       [--ff] [--detail-window N]\n"
                 "       [--checkpoint-every N] [--restore FILE]\n"
                 "       [--version]\n",
                 prog, policyUsageNames());
}

inline Options
parseArgs(int argc, char **argv)
{
    Options opts;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--quick") == 0) {
            opts.quick = true;
        } else if (std::strcmp(arg, "--seed") == 0) {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s: --seed needs a value\n",
                             argv[0]);
                printUsage(stderr, argv[0]);
                std::exit(2);
            }
            const char *v = argv[++i];
            if (!exec::parseU64Strict(v, opts.seed)) {
                std::fprintf(stderr,
                             "%s: --seed needs a non-negative "
                             "integer, got '%s'\n",
                             argv[0], v);
                printUsage(stderr, argv[0]);
                std::exit(2);
            }
        } else if (std::strcmp(arg, "--jobs") == 0) {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s: --jobs needs a value\n",
                             argv[0]);
                printUsage(stderr, argv[0]);
                std::exit(2);
            }
            const char *v = argv[++i];
            if (!exec::parseJobs(v, opts.jobs)) {
                std::fprintf(stderr,
                             "%s: --jobs needs an integer >= 1, "
                             "got '%s'\n",
                             argv[0], v);
                printUsage(stderr, argv[0]);
                std::exit(2);
            }
        } else if (std::strcmp(arg, "--metrics-json") == 0) {
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "%s: --metrics-json needs a file\n",
                             argv[0]);
                printUsage(stderr, argv[0]);
                std::exit(2);
            }
            opts.metricsJson = argv[++i];
        } else if (std::strcmp(arg, "--policy") == 0) {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s: --policy needs a value\n",
                             argv[0]);
                printUsage(stderr, argv[0]);
                std::exit(2);
            }
            const char *v = argv[++i];
            if (!parsePolicyName(v, opts.policy)) {
                std::fprintf(stderr,
                             "%s: unknown --policy '%s' (expected "
                             "%s)\n",
                             argv[0], v, policyUsageNames());
                printUsage(stderr, argv[0]);
                std::exit(2);
            }
            opts.policyGiven = true;
        } else if (std::strcmp(arg, "--itr-ns") == 0) {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s: --itr-ns needs a value\n",
                             argv[0]);
                printUsage(stderr, argv[0]);
                std::exit(2);
            }
            const char *v = argv[++i];
            if (!exec::parseU64Strict(v, opts.itrNs)) {
                std::fprintf(stderr,
                             "%s: --itr-ns needs a non-negative "
                             "integer, got '%s'\n",
                             argv[0], v);
                printUsage(stderr, argv[0]);
                std::exit(2);
            }
        } else if (std::strcmp(arg, "--offered-load") == 0) {
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "%s: --offered-load needs a value\n",
                             argv[0]);
                printUsage(stderr, argv[0]);
                std::exit(2);
            }
            const char *v = argv[++i];
            if (!exec::parsePositiveDouble(v, opts.offeredLoad)) {
                std::fprintf(stderr,
                             "%s: --offered-load needs a positive "
                             "number, got '%s'\n",
                             argv[0], v);
                printUsage(stderr, argv[0]);
                std::exit(2);
            }
        } else if (std::strcmp(arg, "--rt-vector") == 0) {
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "%s: --rt-vector needs a value\n",
                             argv[0]);
                printUsage(stderr, argv[0]);
                std::exit(2);
            }
            const char *v = argv[++i];
            if (!exec::parseU64Strict(v, opts.rtVector) ||
                opts.rtVector >= 64) {
                std::fprintf(stderr,
                             "%s: --rt-vector needs an integer in "
                             "[0, 63], got '%s'\n",
                             argv[0], v);
                printUsage(stderr, argv[0]);
                std::exit(2);
            }
        } else if (std::strcmp(arg, "--priority") == 0) {
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "%s: --priority needs a value\n",
                             argv[0]);
                printUsage(stderr, argv[0]);
                std::exit(2);
            }
            const char *v = argv[++i];
            if (!exec::parseU64Strict(v, opts.rtPriority) ||
                opts.rtPriority >= kNumPriorityLevels) {
                std::fprintf(stderr,
                             "%s: --priority needs an integer in "
                             "[0, %u], got '%s'\n",
                             argv[0], kNumPriorityLevels - 1, v);
                printUsage(stderr, argv[0]);
                std::exit(2);
            }
        } else if (std::strcmp(arg, "--counter-stride") == 0) {
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "%s: --counter-stride needs a value\n",
                             argv[0]);
                printUsage(stderr, argv[0]);
                std::exit(2);
            }
            const char *v = argv[++i];
            if (!exec::parseU64Strict(v, opts.counterStride)) {
                std::fprintf(stderr,
                             "%s: --counter-stride needs a "
                             "non-negative integer, got '%s'\n",
                             argv[0], v);
                printUsage(stderr, argv[0]);
                std::exit(2);
            }
        } else if (std::strcmp(arg, "--ff") == 0) {
            opts.ff = true;
        } else if (std::strcmp(arg, "--detail-window") == 0) {
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "%s: --detail-window needs a value\n",
                             argv[0]);
                printUsage(stderr, argv[0]);
                std::exit(2);
            }
            const char *v = argv[++i];
            if (!exec::parseU64Strict(v, opts.detailWindow) ||
                opts.detailWindow == 0) {
                std::fprintf(stderr,
                             "%s: --detail-window needs an integer "
                             ">= 1, got '%s'\n",
                             argv[0], v);
                printUsage(stderr, argv[0]);
                std::exit(2);
            }
        } else if (std::strcmp(arg, "--checkpoint-every") == 0) {
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "%s: --checkpoint-every needs a "
                             "value\n",
                             argv[0]);
                printUsage(stderr, argv[0]);
                std::exit(2);
            }
            const char *v = argv[++i];
            if (!exec::parseU64Strict(v, opts.checkpointEvery) ||
                opts.checkpointEvery == 0) {
                std::fprintf(stderr,
                             "%s: --checkpoint-every needs an "
                             "integer >= 1, got '%s'\n",
                             argv[0], v);
                printUsage(stderr, argv[0]);
                std::exit(2);
            }
        } else if (std::strcmp(arg, "--restore") == 0) {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s: --restore needs a file\n",
                             argv[0]);
                printUsage(stderr, argv[0]);
                std::exit(2);
            }
            opts.restorePath = argv[++i];
        } else if (std::strcmp(arg, "--version") == 0) {
            std::printf("%s %s (%s), snapshot format %u\n", argv[0],
                        ckpt::kBuildGitSha, ckpt::kBuildType,
                        static_cast<unsigned>(ckpt::kFormatVersion));
            std::exit(0);
        } else if (std::strcmp(arg, "--tax") == 0) {
            opts.tax = true;
        } else if (std::strcmp(arg, "--trace-json") == 0) {
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "%s: --trace-json needs a file\n",
                             argv[0]);
                printUsage(stderr, argv[0]);
                std::exit(2);
            }
            opts.traceJson = argv[++i];
        } else if (std::strcmp(arg, "--help") == 0) {
            printUsage(stdout, argv[0]);
            std::exit(0);
        } else {
            std::fprintf(stderr, "%s: unknown argument '%s'\n",
                         argv[0], arg);
            printUsage(stderr, argv[0]);
            std::exit(2);
        }
    }
    return opts;
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
