/**
 * @file
 * Core configuration — defaults reproduce the paper's Table 3
 * baseline (modeling an Intel Xeon Gold 5420+ Sapphire Rapids core at
 * 2.0 GHz).
 */

#ifndef XUI_UARCH_CORE_PARAMS_HH
#define XUI_UARCH_CORE_PARAMS_HH

#include "des/time.hh"
#include "uarch/cache.hh"
#include "uarch/mcrom.hh"

namespace xui
{

/** Interrupt-delivery strategies the core can use (§3.5, §4.2). */
enum class DeliveryStrategy : std::uint8_t
{
    /** Squash all in-flight work, then run the handler (Intel). */
    Flush,
    /** Retire all in-flight work first, then run the handler. */
    Drain,
    /** xUI: inject handler micro-ops at fetch; never discard work. */
    Tracked,
};

/** Functional-unit and latency configuration. */
struct ExecParams
{
    unsigned intAluUnits = 6;   ///< Table 3: Int ALU(6)
    unsigned intMultUnits = 2;  ///< Table 3: Mult(2)
    unsigned fpUnits = 3;       ///< Table 3: FPALU/Mult(3)
    unsigned loadPorts = 2;
    unsigned storePorts = 1;

    unsigned intAluLatency = 1;
    unsigned intMultLatency = 3;
    unsigned fpAluLatency = 3;
    unsigned fpMultLatency = 4;
    unsigned branchLatency = 1;
    unsigned rdtscLatency = 18;
    unsigned storeLatency = 1;
    unsigned nopLatency = 1;
    unsigned mcodeLatency = 1;
};

/** Full core configuration (Table 3 defaults). */
struct CoreParams
{
    unsigned fetchWidth = 6;    ///< Table 3: Fetch Width 6 uops
    unsigned decodeWidth = 6;   ///< Table 3: Decode Width 6 uops
    unsigned issueWidth = 10;   ///< Table 3: Issue Width 10 uops
    unsigned retireWidth = 10;  ///< Table 3: Retire Width 10 uops
    unsigned squashWidth = 10;  ///< Table 3: Squash Width 10 uops
    unsigned robSize = 384;     ///< Table 3: ROB Size 384 entries
    unsigned iqSize = 168;      ///< Table 3: IQ 168 entries
    unsigned lqSize = 128;      ///< Table 3: LQ Size 128 entries
    unsigned sqSize = 72;       ///< Table 3: SQ Size 72 entries

    /** Fetch-to-dispatch pipeline depth (refill cost of redirects). */
    unsigned frontendDepth = 10;

    /** Extra fetch bubble on a predicted-taken branch (BTB hit). */
    unsigned takenBranchBubble = 1;

    ExecParams exec;
    MemHierarchyParams mem;
    McodeParams mcode;

    DeliveryStrategy strategy = DeliveryStrategy::Flush;
    /** Hardware safepoint mode (§4.4): deliver only at safepoints. */
    bool safepointMode = false;

    /**
     * Run-to-next-activity: runCycles, runUntilCommitted and
     * UarchSystem::run jump over every cycle in which no pipeline
     * stage, interrupt source or probe can act — a halted core, or
     * one stalled behind cache-missing loads — instead of ticking
     * through them (OooCore::nextActivityCycle()). Purely a
     * simulator-speed knob — the architectural timeline is
     * bit-identical either way (the determinism suite pins digests
     * and every CoreStats field with the flag both on and off).
     */
    bool tickSkip = true;

    /**
     * Fast-forward (sampled-detail) execution, SMARTS-style. With
     * this on, the core leaves the detailed out-of-order pipeline
     * between interrupt activity and runs a functional in-order
     * loop timed by an IPC model calibrated online from the
     * surrounding detailed phases — no ROB/IQ/LSQ or
     * branch-predictor bookkeeping, no per-cycle event churn. Full
     * detail resumes inside a window around every interrupt
     * lifecycle event (raise, inject, deliver, return, preempt
     * save/restore), and the pipeline is re-warmed `ffWarmup`
     * cycles ahead of every predicted arrival. Off by default:
     * ff-off runs take none of the new paths and stay bit-identical
     * (golden corpus). See DESIGN.md §13.
     */
    bool fastForward = false;

    /**
     * Detail window: cycles of full out-of-order detail kept after
     * every interrupt lifecycle event before fast-forward may
     * resume.
     */
    Cycles detailWindow = 512;

    /**
     * Cycles of detailed execution run ahead of every *predicted*
     * interrupt arrival (KB-timer deadline, in-flight IPI) so the
     * pipeline, caches, and predictor are warm when the event
     * fires; without it, every raise would land in an empty
     * pipeline and bias delivery latencies low.
     */
    Cycles ffWarmup = 256;

    unsigned predictorTableBits = 14;
    unsigned predictorHistoryBits = 12;
};

} // namespace xui

#endif // XUI_UARCH_CORE_PARAMS_HH
