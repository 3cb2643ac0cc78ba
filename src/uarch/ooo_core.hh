/**
 * @file
 * Cycle-level out-of-order core model.
 *
 * A single class models the pipeline of a Sapphire-Rapids-like core
 * (Table 3 configuration): a fetch unit with branch prediction and
 * microcode injection, rename/dispatch into a ROB with IQ/LQ/SQ
 * occupancy limits, out-of-order issue to typed functional units, a
 * real cache hierarchy for loads, mispredict squash with bounded
 * squash width, and instruction-granular commit.
 *
 * Interrupt delivery implements all three strategies the paper
 * studies (§3.5, §4.2):
 *  - Flush: squash everything in flight, charge the microcode-entry
 *    latency, resume after the handler at the last committed PC;
 *  - Drain: stop fetching and wait for the ROB to empty first;
 *  - Tracked (xUI): redirect the next-PC mux to the MSROM at the next
 *    instruction (or safepoint) boundary, tag injected micro-ops, and
 *    re-inject after any squash that kills them before first commit.
 */

#ifndef XUI_UARCH_OOO_CORE_HH
#define XUI_UARCH_OOO_CORE_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "ckpt/codec.hh"
#include "des/time.hh"
#include "intr/forwarding.hh"
#include "intr/kb_timer.hh"
#include "intr/upid.hh"
#include "stats/rng.hh"
#include "uarch/branch_predictor.hh"
#include "uarch/cache.hh"
#include "uarch/core_params.hh"
#include "uarch/interrupt_unit.hh"
#include "uarch/mcrom.hh"
#include "uarch/probe.hh"
#include "uarch/program.hh"

namespace xui
{

class UarchSystem;

/** Timeline of one delivered interrupt (drives Fig. 2 / Fig. 4). */
struct IntrRecord
{
    IntrSource source{};
    std::uint8_t vector = 0;
    /** Correlation id assigned at raise (see PendingIntr::spanId). */
    std::uint64_t spanId = 0;
    Cycles raisedAt = 0;
    Cycles acceptedAt = 0;
    Cycles injectedAt = 0;
    Cycles firstUopCommitAt = 0;
    /** Delivery jump executed: the handler starts fetching. */
    Cycles deliveryExecAt = 0;
    Cycles deliveryCommitAt = 0;
    Cycles uiretCommitAt = 0;
    /**
     * Priority preemption fields (zero unless `preempting`): the
     * nested span's save window runs saveStartAt -> injectedAt and
     * its restore window uiretCommitAt -> restoredAt; restoredAt —
     * when the preempted handler resumed — closes the record.
     */
    Cycles saveStartAt = 0;
    Cycles restoredAt = 0;
    /** This delivery preempted a lower-priority handler. */
    bool preempting = false;
};

/** Sender-side timeline of one senduipi (drives Table 2 / Fig. 2). */
struct SendRecord
{
    Cycles dispatchedAt = 0;
    Cycles icrCommitAt = 0;
};

/** One closed fast-forward region (sampled-detail mode). */
struct FfSpan
{
    Cycles enteredAt = 0;
    Cycles exitedAt = 0;
    /** Macro instructions executed functionally in the region. */
    std::uint64_t insts = 0;
};

/** Aggregate core counters. */
struct CoreStats
{
    Cycles cycles = 0;
    std::uint64_t committedInsts = 0;
    std::uint64_t committedUops = 0;
    std::uint64_t fetchedUops = 0;
    std::uint64_t issuedUops = 0;
    std::uint64_t squashedUops = 0;
    std::uint64_t squashes = 0;
    std::uint64_t branchMispredicts = 0;
    std::uint64_t interruptsRaised = 0;
    std::uint64_t interruptsDelivered = 0;
    std::uint64_t reinjections = 0;
    std::uint64_t slowPathForwards = 0;
    std::uint64_t drainWaitCycles = 0;
    /** Priority preemptions begun (higher vector over a handler). */
    std::uint64_t preemptions = 0;
    /** Preempted handlers resumed (restore redirects committed). */
    std::uint64_t preemptRestores = 0;
    /** Fast-forward (sampled-detail) mode: regions entered/left,
     *  cycles covered functionally, instructions executed there. */
    std::uint64_t ffEntries = 0;
    std::uint64_t ffExits = 0;
    std::uint64_t ffInsts = 0;
    Cycles ffCycles = 0;
    std::vector<IntrRecord> intrRecords;
    std::vector<SendRecord> sendRecords;
    /** Closed fast-forward regions, in time order (mode-transition
     *  spans for the observability exporter). */
    std::vector<FfSpan> ffSpans;
};

/** The out-of-order core. */
class OooCore
{
  public:
    /**
     * @param id core / APIC identifier
     * @param params pipeline configuration
     * @param program the static program this core runs
     * @param rng private stream for address/branch randomness
     */
    OooCore(unsigned id, const CoreParams &params,
            const Program *program, Rng rng);

    /** Attach the multi-core fabric (needed only for senduipi). */
    void setSystem(UarchSystem *system) { system_ = system; }

    /**
     * Attach the core's probe (uarch/probe.hh; nullptr detaches).
     * Not owned. Fan several probes in through a ProbeTee.
     */
    void setProbe(CoreProbe *probe) { probe_ = probe; }

    /** Advance one cycle. */
    void tick();

    /** Run for a fixed number of cycles. */
    void runCycles(Cycles n);

    /**
     * Run until `insts` macro instructions have committed.
     * @return cycles elapsed; stops early at max_cycles.
     */
    Cycles runUntilCommitted(std::uint64_t insts,
                             Cycles max_cycles = ~0ull);

    /**
     * True when a tick would change nothing but the cycle counter:
     * the pipeline is empty and halted, no microcode or interrupt
     * work is in flight, and no interrupt can be accepted. The
     * run-to-next-wakeup loops skip such cycles in one jump.
     */
    bool quiesced() const;

    /**
     * Earliest future cycle at which a quiesced core can become
     * active again (KB-timer deadline or in-flight IPI arrival);
     * kNoWake when nothing is scheduled.
     */
    Cycles nextWakeCycle() const;

    /** No wake source pending (sentinel of nextWakeCycle()). */
    static constexpr Cycles kNoWake = ~Cycles(0);

    /**
     * Jump the clock of a quiesced core forward to `c` without
     * ticking the pipeline.
     * @pre quiesced() and c < nextWakeCycle()
     */
    void skipTo(Cycles c);

    Cycles now() const { return cycle_; }
    unsigned id() const { return id_; }
    bool halted() const;

    /** Fast-forward (sampled-detail) functional loop is active. */
    bool fastForwarding() const { return ffMode_; }

    /** The detail window is open through this cycle (diagnostic;
     *  meaningful only with params().fastForward). */
    Cycles detailUntil() const { return ffDetailUntil_; }

    /** Interrupt plumbing. */
    InterruptUnit &intrUnit() { return intr_; }
    KbTimer &kbTimer() { return kbTimer_; }
    ForwardingUnit &forwarding() { return forwarding_; }
    Dupid &dupid() { return dupid_; }
    Upid &upid() { return upid_; }

    /** The UINV vector discriminating UIPI notifications. */
    void setUinv(std::uint8_t v) { uinv_ = v; }
    std::uint8_t uinv() const { return uinv_; }

    /** A conventional IPI arrives at this core's APIC at `when`. */
    void receiveIpi(std::uint8_t vector, Cycles when);

    /** A device interrupt arrives now (forwarding logic applies). */
    void deviceInterrupt(std::uint8_t vector);

    CoreStats &stats() { return stats_; }
    const CoreParams &params() const { return params_; }
    MemHierarchy &mem() { return mem_; }
    const MemHierarchy &mem() const { return mem_; }
    BranchPredictor &predictor() { return predictor_; }

    /** Count of in-flight (un-committed) micro-ops. */
    std::size_t robOccupancy() const { return rob_.size(); }

    /** Issue-queue occupancy (un-issued micro-ops in the ROB). */
    unsigned iqOccupancy() const { return iqCount_; }
    /** Load-queue occupancy. */
    unsigned lqOccupancy() const { return lqCount_; }
    /** Store-queue occupancy. */
    unsigned sqOccupancy() const { return sqCount_; }
    /** Micro-ops buffered between fetch and dispatch. */
    std::size_t fetchBufferDepth() const
    {
        return fetchBuffer_.size();
    }
    /** Fetch is blocked (microcode entry / mispredict refill). */
    bool frontendStalled() const
    {
        return frontendStallUntil_ > cycle_ || awaitRedirect_;
    }
    /** Drain-strategy wait for an empty ROB is in progress. */
    bool drainWaiting() const { return drainWaiting_; }

    const CoreStats &stats() const { return stats_; }

    /**
     * Checkpoint the complete core state (implemented in
     * core_ckpt.cc). Capture happens at an inter-tick boundary; the
     * payload covers every run-to-run-visible member — pipeline
     * structures, interrupt plumbing, caches, predictor, RNG, stats
     * — except harness attachments (probe, system), which the
     * restoring harness re-wires itself.
     */
    void saveState(ckpt::Writer &w) const;

    /**
     * Restore from a payload produced by saveState() on a core
     * constructed with the same (params, program, id). Derived
     * structures (rename table, readiness ring, completion wheel,
     * IQ list) are rebuilt rather than deserialized.
     * @return false on malformed or mismatched data (the core is
     *         then unusable and must be discarded).
     */
    bool loadState(ckpt::Reader &r);

  private:
    /** One in-flight micro-op. */
    struct RobEntry
    {
        MicroOp uop;
        std::uint64_t seq = 0;
        std::uint32_t pc = kUcodePc;
        std::uint32_t nextPc = 0;
        std::uint64_t imm = 0;
        bool issued = false;
        bool done = false;
        Cycles readyAt = 0;
        std::uint64_t addr = 0;
        bool isBranch = false;
        /** Perfectly-biased branch: statically predicted, kept out
         * of the dynamic predictor and its history. */
        bool staticBranch = false;
        bool predictedTaken = false;
        bool actualTaken = false;
        bool mispredicted = false;
        bool wrongPath = false;
        /** This op advanced execCount_[pc] at fetch (Loop branch /
         * Stride address); a squash must undo the increment so the
         * re-fetched instance observes the same architectural
         * iteration count. */
        bool countedExec = false;
        std::uint32_t correctTarget = 0;
        std::uint64_t historyBefore = 0;
        std::uint64_t dep1 = 0;
        std::uint64_t dep2 = 0;
        /**
         * Lower bound on the first cycle this entry's dependencies
         * can all be ready. The issue scan skips the entry with one
         * compare until then; the bound is refreshed whenever a
         * dependency check fails, so skipping never delays an issue
         * (a dep ready at cycle c yields a bound <= c).
         */
        Cycles notBefore = 0;
    };

    static constexpr std::uint32_t kUcodePc = 0xffffffff;

    /** Pipeline stages (called in reverse order from tick()). */
    void commitStage();
    void writebackStage();
    void issueStage();
    void dispatchStage();
    void fetchStage();

    /** Interrupt accept / injection helpers. */
    void checkInterruptAccept();
    void beginInjection();
    void beginPreemptInjection();
    void loadUcodeForCurrent();
    /** Load preempt-save + delivery microcode (nested delivery). */
    void loadUcodeNested();
    /** Load the preempt-restore routine (after a nested uiret);
     *  the routine's imm latches its redirect target. */
    void loadUcodeRestore(std::uint32_t resume_pc);
    /** Resume pc the next writing-back uiret should use, accounting
     *  for restores already issued but not yet committed. */
    std::uint32_t resumeTargetForReturn() const;
    void squashAll();
    /** Undo a squashed restore routine's restoresInFlight_ slot. */
    void uncountRestore(const MicroOp &uop);
    /** Undo a squashed entry's speculative execCount_ increment. */
    void uncountExec(const RobEntry &entry);
    void squashYoungerThan(std::uint64_t seq,
                           std::uint32_t recovery_pc,
                           std::uint64_t history);
    void rebuildRenameTable();
    /** Checkpoint helpers (core_ckpt.cc). */
    static void saveUop(ckpt::Writer &w, const MicroOp &uop);
    static bool loadUop(ckpt::Reader &r, MicroOp &uop);
    static void saveRobEntry(ckpt::Writer &w, const RobEntry &e);
    static bool loadRobEntry(ckpt::Reader &r, RobEntry &e);
    static void saveIntrRecord(ckpt::Writer &w, const IntrRecord &rec);
    static bool loadIntrRecord(ckpt::Reader &r, IntrRecord &rec);
    /** Rebuild ring + completion wheel from rob_ after loadState. */
    void rebuildExecStructures();
    void applyCommitEffect(const RobEntry &entry);
    bool depReady(std::uint64_t dep) const;
    /** Earliest cycle `dep` can be ready (0 when ready now). */
    Cycles depBound(std::uint64_t dep) const;
    /** Enqueue a just-issued micro-op for writeback at readyAt. */
    void scheduleWriteback(std::uint64_t seq, Cycles ready_at);
    /** Drop `seq`'s ring slot when it leaves the ROB. */
    void releaseRingSlot(const RobEntry &entry);
    unsigned memAccessLatency(RobEntry &entry);
    std::uint64_t genAddress(const MacroOp &op, std::uint32_t pc);
    bool evalBranch(const MacroOp &op, std::uint32_t pc);
    void fetchProgramOp();
    void fetchUcodeUop();
    unsigned fuPoolOf(OpClass cls) const;
    unsigned classLatency(const MicroOp &uop) const;

    /** Fast-forward (sampled-detail) controller; see DESIGN.md §13.
     *  All of these are reached only when params_.fastForward. */
    void maybeEnterFastForward();
    void enterFastForward();
    void exitFastForward();
    /** One functional cycle (the per-tick fast-forward step). */
    void ffTick();
    /** One functional macro instruction.
     *  @return false when fast-forward must stop (halt reached or a
     *          microcoded op needs the detailed pipeline). */
    bool ffExecuteOne();
    /** Bulk functional run toward absolute cycle `end`, stopping
     *  ffWarmup cycles short of the next predicted interrupt
     *  arrival. */
    void ffAdvance(Cycles end);

    /** Emit a pipeline event when the probe takes them. */
    void
    trace(TraceEvent ev, std::uint64_t seq = 0,
          std::uint32_t pc = kUcodePc, OpClass cls = OpClass::Nop)
    {
        if (probe_ != nullptr && probe_->takesPipelineEvents())
            probe_->event(ev, cycle_, seq, pc, cls);
    }

    /** Raise toward the unit, observing and counting the span. */
    void raiseIntr(IntrSource source, std::uint8_t vector);

    /** Emit a lifecycle stage when a probe is attached. */
    void
    observe(IntrStage stage, std::uint64_t span_id,
            IntrSource source, std::uint8_t vector)
    {
        // Sampled-detail mode: every lifecycle event re-opens the
        // detail window, so full out-of-order fidelity covers
        // raise→accept→inject→deliver→return and the preempt
        // save/restore edges plus detailWindow cycles after each.
        if (params_.fastForward) {
            ffDetailUntil_ = cycle_ + params_.detailWindow;
            ffDrainPending_ = false;
        }
        if (probe_ != nullptr)
            probe_->intrStage(stage, span_id, source, vector, cycle_,
                              id_);
    }

    unsigned id_;
    CoreParams params_;
    const Program *program_;
    Rng rng_;
    UarchSystem *system_ = nullptr;
    CoreProbe *probe_ = nullptr;

    /**
     * Microcode routine tables; const so a core shared read-only
     * across sweep worker threads cannot mutate them after
     * construction (parallel sweeps give every job its own core,
     * but the freeze makes the invariant structural).
     */
    const Mcrom mcrom_;
    MemHierarchy mem_;
    BranchPredictor predictor_;
    InterruptUnit intr_;
    KbTimer kbTimer_;
    ForwardingUnit forwarding_;
    Dupid dupid_;
    Upid upid_;
    std::uint8_t uinv_ = 0xec;

    Cycles cycle_ = 0;
    std::uint64_t nextSeq_ = 1;

    // Fetch state.
    std::uint32_t fetchPc_;
    bool fetchHalted_ = false;
    Cycles frontendStallUntil_ = 0;
    bool onWrongPath_ = false;
    std::deque<MicroOp> ucodeQueue_;
    std::uint64_t ucodeImm_ = 0;
    std::uint32_t ucodeMacroPc_ = kUcodePc;
    std::uint32_t ucodeNextPc_ = 0;
    bool drainWaiting_ = false;
    /** Fetch is blocked on a microcode jump/return executing. */
    bool awaitRedirect_ = false;

    // Saved return point for uiret (the paper's tracked next_pc).
    std::uint32_t resumePc_ = 0;
    std::uint32_t lastCommittedNextPc_ = 0;

    // Fetch buffer: fetched micro-ops in flight to dispatch.
    std::deque<RobEntry> fetchBuffer_;

    // Backend.
    std::deque<RobEntry> rob_;
    std::vector<RobEntry *> iqList_;
    std::vector<std::uint64_t> renameTable_;
    std::vector<std::uint64_t> execCount_;

    // Producer readiness ring, indexed by seq & kRingMask. Avoids a
    // hash lookup per dependency per cycle. ringEntry_ additionally
    // resolves a live seq to its ROB entry (deque elements are
    // pointer-stable); slots are invalidated (ringSeq_ = 0) when the
    // entry commits or is squashed, so a matching slot always points
    // at an in-flight entry.
    static constexpr std::size_t kRingSize = 1 << 14;
    static constexpr std::uint64_t kRingMask = kRingSize - 1;
    std::vector<std::uint64_t> ringSeq_;
    std::vector<Cycles> ringReadyAt_;
    std::vector<RobEntry *> ringEntry_;

    // Completion wheel: bucket per cycle of the seqs whose execution
    // finishes then, so writeback touches only completing entries
    // instead of scanning the whole ROB. Latencies beyond the span
    // wait in farWb_ (checked once per cycle, normally empty).
    // Buckets hold seqs, validated against the ring when drained, so
    // squashed entries need no wheel surgery.
    static constexpr std::size_t kWbSpan = 2048;
    static constexpr std::uint64_t kWbMask = kWbSpan - 1;
    std::vector<std::vector<std::uint64_t>> wbWheel_;
    std::vector<std::uint64_t> farWb_;
    std::vector<std::uint64_t> wbScratch_;

    /** Max micro-ops buffered between fetch and dispatch. */
    static constexpr std::size_t kFetchBufferCap = 48;

    // Occupancy counters (recomputed after squashes).
    unsigned iqCount_ = 0;
    unsigned lqCount_ = 0;
    unsigned sqCount_ = 0;

    // Per-cycle FU tokens.
    unsigned fuTokens_[5] = {0, 0, 0, 0, 0};

    // In-flight IPIs addressed to this core.
    struct IpiArrival
    {
        std::uint8_t vector;
        Cycles when;
    };
    std::deque<IpiArrival> ipiInbox_;

    // Current interrupt record being assembled.
    IntrRecord currentRecord_;
    bool recordOpen_ = false;

    // Priority preemption: per-level saved core context, innermost
    // last (parallels InterruptUnit::preemptStack_).
    struct PreemptFrame
    {
        std::uint32_t resumePc;
        IntrRecord record;
        bool recordOpen;
    };
    std::vector<PreemptFrame> preemptFrames_;
    /** Preempt-restore routines in flight (uiret writeback ->
     *  ResumeFromPreempt commit or squash). Blocks further
     *  preemptions, and — because writeback is out of order —
     *  disambiguates nested from outermost uirets: an outer uiret
     *  can complete before the inner restore commits and pops
     *  preemptFrames_, so the frame stack alone is stale there. */
    unsigned restoresInFlight_ = 0;

    // Fast-forward (sampled-detail) state. Touched only when
    // params_.fastForward is set, which is what keeps ff-off runs
    // structurally bit-identical to a build without the feature.
    /** The functional loop is running instead of the pipeline. */
    bool ffMode_ = false;
    /** Window expired: program fetch is gated so the pipeline can
     *  drain empty, the precondition for a clean mode handoff. */
    bool ffDrainPending_ = false;
    /** Detail window open through this cycle. */
    Cycles ffDetailUntil_ = 0;
    /** Committed instructions per cycle, Q16 fixed point,
     *  recalibrated from each detailed phase at fast-forward
     *  entry. */
    std::uint64_t ffIpcQ16_ = 1u << 16;
    /** Fractional instruction credit carried across ff cycles. */
    std::uint64_t ffFracQ16_ = 0;
    /** Start of the current calibration sample (last mode switch
     *  into detail). */
    Cycles ffCalibStartCycle_ = 0;
    std::uint64_t ffCalibStartInsts_ = 0;
    /** stats_.ffInsts at entry of the open ff span. */
    std::uint64_t ffSpanStartInsts_ = 0;

    /** Detailed phases shorter than this give no IPC sample. */
    static constexpr std::uint64_t kFfCalibMinInsts = 64;
    /** IPC model clamp: [1/16, 8] insts per cycle, Q16. */
    static constexpr std::uint64_t kFfMinIpcQ16 = (1u << 16) / 16;
    static constexpr std::uint64_t kFfMaxIpcQ16 = 8ull << 16;
    /** Skippable gaps shorter than warmup + this are not worth the
     *  drain + re-warm round trip. */
    static constexpr Cycles kFfMinRegion = 64;

    CoreStats stats_;
};

} // namespace xui

#endif // XUI_UARCH_OOO_CORE_HH
