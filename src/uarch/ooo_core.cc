#include "uarch/ooo_core.hh"

#include <algorithm>
#include <cassert>

#include "uarch/uarch_system.hh"

namespace xui
{

OooCore::OooCore(unsigned id, const CoreParams &params,
                 const Program *program, Rng rng)
    : id_(id),
      params_(params),
      program_(program),
      rng_(rng),
      mcrom_(params.mcode),
      mem_(params.mem),
      predictor_(params.predictorTableBits,
                 params.predictorHistoryBits),
      fetchPc_(program->entry()),
      resumePc_(program->entry()),
      lastCommittedNextPc_(program->entry()),
      renameTable_(reg::kCount, 0),
      execCount_(program->size(), 0),
      ringSeq_(kRingSize, 0),
      ringReadyAt_(kRingSize, 0),
      ringEntry_(kRingSize, nullptr),
      wbWheel_(kWbSpan)
{
    assert(program != nullptr);
    iqList_.reserve(512);
}

bool
OooCore::halted() const
{
    return fetchHalted_ && rob_.empty() && fetchBuffer_.empty();
}

void
OooCore::receiveIpi(std::uint8_t vector, Cycles when)
{
    ipiInbox_.push_back(IpiArrival{vector, when});
}

void
OooCore::raiseIntr(IntrSource source, std::uint8_t vector)
{
    std::uint64_t span = intr_.raise(source, vector, cycle_, probe_);
    if (span != 0) {
        observe(IntrStage::Raise, span, source, vector);
        ++stats_.interruptsRaised;
    }
}

void
OooCore::deviceInterrupt(std::uint8_t vector)
{
    ForwardOutcome outcome = forwarding_.onInterrupt(vector);
    switch (outcome) {
      case ForwardOutcome::FastPath:
        raiseIntr(IntrSource::Forwarded, vector);
        break;
      case ForwardOutcome::SlowPath:
        dupid_.post(vector);
        ++stats_.slowPathForwards;
        break;
      case ForwardOutcome::NotForwarded:
        // Conventional kernel interrupt; outside this tier's scope.
        break;
    }
}

unsigned
OooCore::fuPoolOf(OpClass cls) const
{
    switch (cls) {
      case OpClass::IntMult:
        return 1;
      case OpClass::FpAlu:
      case OpClass::FpMult:
        return 2;
      case OpClass::MemRead:
        return 3;
      case OpClass::MemWrite:
        return 4;
      default:
        return 0;
    }
}

unsigned
OooCore::classLatency(const MicroOp &uop) const
{
    if (uop.fixedLatency)
        return uop.fixedLatency;
    const ExecParams &e = params_.exec;
    switch (uop.cls) {
      case OpClass::IntAlu:
        return e.intAluLatency;
      case OpClass::IntMult:
        return e.intMultLatency;
      case OpClass::FpAlu:
        return e.fpAluLatency;
      case OpClass::FpMult:
        return e.fpMultLatency;
      case OpClass::Branch:
        return e.branchLatency;
      case OpClass::Rdtsc:
        return e.rdtscLatency;
      case OpClass::MemWrite:
        return e.storeLatency;
      case OpClass::Nop:
        return e.nopLatency;
      case OpClass::McodeOverhead:
        return e.mcodeLatency;
      case OpClass::SerializeMsr:
        return 1;
      case OpClass::MemRead:
        return 1;  // actual latency computed at issue
    }
    return 1;
}

void
OooCore::tick()
{
    if (ffMode_) {
        // Sampled-detail mode: hand back to the detailed pipeline
        // ffWarmup cycles ahead of the next predicted interrupt
        // arrival (so the window around the lifecycle runs with a
        // warm pipeline), or immediately when something was raised
        // externally while fast-forwarding.
        Cycles wake = nextWakeCycle();
        bool event_near = wake != kNoWake &&
                          wake <= cycle_ + 1 + params_.ffWarmup;
        if (event_near || intr_.pendingAvailable() || intr_.busy())
            exitFastForward();
        else {
            ffTick();
            return;
        }
    }

    ++cycle_;
    ++stats_.cycles;

    // Refill per-cycle functional-unit tokens.
    fuTokens_[0] = params_.exec.intAluUnits;
    fuTokens_[1] = params_.exec.intMultUnits;
    fuTokens_[2] = params_.exec.fpUnits;
    fuTokens_[3] = params_.exec.loadPorts;
    fuTokens_[4] = params_.exec.storePorts;

    // Interrupt arrivals at the local APIC.
    while (!ipiInbox_.empty() && ipiInbox_.front().when <= cycle_) {
        IpiArrival a = ipiInbox_.front();
        ipiInbox_.pop_front();
        if (a.vector == uinv_)
            raiseIntr(IntrSource::UserIpi, a.vector);
        else
            deviceInterrupt(a.vector);
    }

    // KB timer expiry (one pending firing at a time, like an IRR
    // bit: repeated expirations collapse).
    if (kbTimer_.expired(cycle_)) {
        bool already = false;
        if (intr_.busy() &&
            intr_.current().source == IntrSource::KbTimer)
            already = true;
        kbTimer_.acknowledge();
        if (!already)
            raiseIntr(IntrSource::KbTimer, kbTimer_.vector());
    }

    commitStage();
    writebackStage();
    issueStage();
    dispatchStage();
    checkInterruptAccept();
    fetchStage();

    // End-of-tick observation: every lifecycle callback of this
    // cycle has already fired, so the probe sees a consistent
    // (cycle, open-span, occupancy) snapshot. Read-only by
    // contract; the fast path is two integer compares against
    // probe-maintained absolute marks (no per-tick mutation).
    if (probe_ != nullptr) {
        bool live = probe_->liveSpans != 0;
        bool sampled = cycle_ >= probe_->nextSampleAt;
        if (live || sampled)
            probe_->onCycle(*this, sampled, live);
    }

    if (params_.fastForward)
        maybeEnterFastForward();
}

bool
OooCore::quiesced() const
{
    return fetchHalted_ && rob_.empty() && fetchBuffer_.empty() &&
           ucodeQueue_.empty() && !drainWaiting_ &&
           !awaitRedirect_ && !intr_.busy() && !intr_.canAccept();
}

Cycles
OooCore::nextWakeCycle() const
{
    Cycles w = kNoWake;
    if (kbTimer_.enabled() && kbTimer_.armed())
        w = std::max(kbTimer_.deadline(), cycle_ + 1);
    for (const IpiArrival &a : ipiInbox_)
        w = std::min(w, std::max(a.when, cycle_ + 1));
    return w;
}

void
OooCore::skipTo(Cycles c)
{
    assert(c >= cycle_);
    stats_.cycles += c - cycle_;
    cycle_ = c;
}

void
OooCore::runCycles(Cycles n)
{
    Cycles end = cycle_ + n;
    while (cycle_ < end) {
        if (ffMode_) {
            // Bulk functional run: covers the whole gap to the next
            // predicted event (or the horizon) without the per-tick
            // dispatch overhead.
            ffAdvance(end);
            if (cycle_ >= end)
                break;
        } else if (params_.tickSkip && quiesced()) {
            // Idle until the next wake source (or the horizon):
            // every skipped tick would only have bumped counters.
            Cycles w = nextWakeCycle();
            Cycles to = w == kNoWake ? end : std::min(w - 1, end);
            if (to > cycle_) {
                skipTo(to);
                if (cycle_ >= end)
                    break;
            }
        }
        tick();
    }
}

Cycles
OooCore::runUntilCommitted(std::uint64_t insts, Cycles max_cycles)
{
    Cycles start = cycle_;
    std::uint64_t target = stats_.committedInsts + insts;
    while (stats_.committedInsts < target &&
           cycle_ - start < max_cycles && !halted()) {
        if (ffMode_) {
            // Bound the bulk run by the cycles the IPC model
            // expects the remaining instructions to take, so the
            // functional loop overshoots the commit target by at
            // most one chunk.
            Cycles left = max_cycles - (cycle_ - start);
            std::uint64_t rem = target - stats_.committedInsts;
            Cycles est = ((rem << 16) / ffIpcQ16_) + 1;
            ffAdvance(cycle_ + std::min(left, est));
            if (stats_.committedInsts >= target)
                break;
        }
        tick();
    }
    return cycle_ - start;
}

// ---------------------------------------------------------------------
// Fast-forward (sampled-detail) controller
// ---------------------------------------------------------------------

void
OooCore::maybeEnterFastForward()
{
    // The detail window must have expired, with no interrupt work
    // in any stage of its lifecycle. A halted core is left to the
    // cheaper quiesced-skip machinery.
    if (cycle_ < ffDetailUntil_ || fetchHalted_ || intr_.busy() ||
        intr_.pendingAvailable() || drainWaiting_ ||
        restoresInFlight_ != 0) {
        ffDrainPending_ = false;
        return;
    }
    // The profiler's burst window pins detail: sampled-detail runs
    // keep full fidelity wherever the sampler is bursting.
    if (probe_ != nullptr && probe_->wantDetailUntil > cycle_) {
        ffDrainPending_ = false;
        return;
    }
    // Gaps too short to amortize the drain + re-warm round trip
    // stay detailed.
    Cycles wake = nextWakeCycle();
    if (wake != kNoWake &&
        wake <= cycle_ + params_.ffWarmup + kFfMinRegion) {
        ffDrainPending_ = false;
        return;
    }
    // Gate program fetch and wait for the pipeline to empty: the
    // architectural state (fetchPc_, execCount_, timer, caches) is
    // then the whole handoff.
    ffDrainPending_ = true;
    if (rob_.empty() && fetchBuffer_.empty() &&
        ucodeQueue_.empty() && !awaitRedirect_ &&
        frontendStallUntil_ <= cycle_) {
        if (probe_ != nullptr) {
            Cycles pin = probe_->onFfTransition(true, cycle_);
            if (pin > 0) {
                // The probe pinned detail at the boundary:
                // abort this entry and stay detailed.
                ffDetailUntil_ =
                    std::max(ffDetailUntil_, cycle_ + pin);
                ffDrainPending_ = false;
                return;
            }
        }
        enterFastForward();
    }
}

void
OooCore::enterFastForward()
{
    assert(rob_.empty() && fetchBuffer_.empty() &&
           ucodeQueue_.empty() && !onWrongPath_);
    ffDrainPending_ = false;
    ffMode_ = true;
    // Calibrate the IPC model from the detailed phase just ended.
    Cycles dc = cycle_ - ffCalibStartCycle_;
    std::uint64_t di = stats_.committedInsts - ffCalibStartInsts_;
    if (di >= kFfCalibMinInsts && dc > 0) {
        std::uint64_t q = (di << 16) / dc;
        ffIpcQ16_ = std::clamp(q, kFfMinIpcQ16, kFfMaxIpcQ16);
    }
    ffFracQ16_ = 0;
    ++stats_.ffEntries;
    ffSpanStartInsts_ = stats_.ffInsts;
    stats_.ffSpans.push_back(FfSpan{cycle_, 0, 0});
}

void
OooCore::exitFastForward()
{
    if (!ffMode_)
        return;
    ffMode_ = false;
    ++stats_.ffExits;
    FfSpan &span = stats_.ffSpans.back();
    span.exitedAt = cycle_;
    span.insts = stats_.ffInsts - ffSpanStartInsts_;
    // The detailed phase starting now is the next IPC sample.
    ffCalibStartCycle_ = cycle_;
    ffCalibStartInsts_ = stats_.committedInsts;
    if (probe_ != nullptr) {
        Cycles pin = probe_->onFfTransition(false, cycle_);
        if (pin > 0)
            ffDetailUntil_ = std::max(ffDetailUntil_, cycle_ + pin);
    }
}

bool
OooCore::ffExecuteOne()
{
    const MacroOp &op = program_->at(fetchPc_);
    std::uint32_t pc = fetchPc_;
    switch (op.opcode) {
      case MacroOpcode::Halt:
        // Halt never commits a micro-op in detail mode either; the
        // rest of the region is idle time.
        fetchHalted_ = true;
        return false;
      case MacroOpcode::SendUipi:
      case MacroOpcode::Uiret:
      case MacroOpcode::Clui:
      case MacroOpcode::Stui:
      case MacroOpcode::TestUi:
      case MacroOpcode::SetTimer:
      case MacroOpcode::ClearTimer:
        // Microcoded: timer arms, UIF changes, and notifications
        // must run through the detailed pipeline. fetchPc_ is left
        // pointing at the op, so detail picks it up verbatim.
        exitFastForward();
        return false;
      case MacroOpcode::Load:
      case MacroOpcode::Store:
        // Architectural address-stream side effects (execCount_,
        // RNG draws) happen exactly as a correct-path detailed
        // fetch would, and the access keeps the cache tags warm
        // for the next detailed phase.
        mem_.access(genAddress(op, pc));
        fetchPc_ = pc + 1;
        break;
      case MacroOpcode::Branch:
        fetchPc_ = evalBranch(op, pc) ? op.target : pc + 1;
        break;
      default:
        fetchPc_ = pc + 1;
        break;
    }
    ++stats_.committedInsts;
    ++stats_.committedUops;
    ++stats_.fetchedUops;
    ++stats_.ffInsts;
    lastCommittedNextPc_ = fetchPc_;
    // Plain program macro-ops expand to exactly one micro-op, so one
    // Commit event here keeps the architectural commit-PC stream
    // (DigestTracer::archDigest, collectCommitPcs) comparable with a
    // full-detail run of the same program. Timing-sensitive fields
    // (cycle, seq, class) are not reproduced — only the arch stream
    // is contractual across modes.
    trace(TraceEvent::Commit, nextSeq_++, pc, OpClass::Nop);
    return true;
}

void
OooCore::ffTick()
{
    ++cycle_;
    ++stats_.cycles;
    ++stats_.ffCycles;
    if (fetchHalted_)
        return;
    ffFracQ16_ += ffIpcQ16_;
    std::uint64_t credit = ffFracQ16_ >> 16;
    ffFracQ16_ &= 0xffff;
    while (credit-- > 0) {
        if (!ffExecuteOne())
            break;
    }
}

void
OooCore::ffAdvance(Cycles end)
{
    // Stop ffWarmup + 1 cycles short of the next predicted arrival
    // so the detailed pipeline is warm when the raise fires; the
    // remaining approach is ticked in detail by the caller.
    Cycles wake = nextWakeCycle();
    Cycles stop = end;
    if (wake != kNoWake) {
        Cycles lead = params_.ffWarmup + 1;
        stop = std::min(stop, wake > lead ? wake - lead : cycle_);
    }
    while (cycle_ < stop && ffMode_) {
        if (fetchHalted_) {
            // Nothing left to execute: jump like the quiesced skip.
            stats_.ffCycles += stop - cycle_;
            stats_.cycles += stop - cycle_;
            cycle_ = stop;
            break;
        }
        ffTick();
    }
}

// ---------------------------------------------------------------------
// Commit
// ---------------------------------------------------------------------

void
OooCore::commitStage()
{
    for (unsigned n = 0; n < params_.retireWidth; ++n) {
        if (rob_.empty())
            break;
        RobEntry &head = rob_.front();
        if (!head.done || head.readyAt > cycle_)
            break;

        applyCommitEffect(head);
        trace(TraceEvent::Commit, head.seq, head.pc, head.uop.cls);

        if (head.uop.fromIntrPath) {
            if (recordOpen_ && currentRecord_.firstUopCommitAt == 0)
                currentRecord_.firstUopCommitAt = cycle_;
            intr_.onFirstIntrCommit();
        }

        ++stats_.committedUops;
        if (head.uop.eom && head.pc != kUcodePc) {
            ++stats_.committedInsts;
            lastCommittedNextPc_ = head.nextPc;
        }
        if (head.uop.cls == OpClass::MemRead && lqCount_ > 0)
            --lqCount_;
        if (head.uop.cls == OpClass::MemWrite) {
            if (sqCount_ > 0)
                --sqCount_;
            // Drain the store to the cache (tags only).
            if (head.uop.mem != MemMode::None)
                mem_.access(head.addr);
        }
        McodeEffect effect = head.uop.effect;
        releaseRingSlot(head);
        rob_.pop_front();

        // UIF-changing instructions are serializing: they end the
        // retire group so the interrupt-accept logic observes the
        // new flag value at a cycle boundary (the stui window).
        if (effect == McodeEffect::SetUif ||
            effect == McodeEffect::ClearUif)
            break;
    }
}

void
OooCore::applyCommitEffect(const RobEntry &entry)
{
    switch (entry.uop.effect) {
      case McodeEffect::None:
      case McodeEffect::ReadUitt:
      case McodeEffect::PostUpid:
        break;
      case McodeEffect::WriteIcr:
        // Handled at execute (writeback stage).
        break;
      case McodeEffect::ReadUpidToUirr:
        upid_.fetchAndClearPir();
        upid_.clearOutstanding();
        break;
      case McodeEffect::ClearUif:
        intr_.setUif(false);
        break;
      case McodeEffect::SetUif:
        intr_.setUif(true);
        break;
      case McodeEffect::JumpHandler:
        trace(TraceEvent::IntrDeliver);
        ++stats_.interruptsDelivered;
        if (recordOpen_) {
            currentRecord_.deliveryCommitAt = cycle_;
            observe(IntrStage::Deliver, currentRecord_.spanId,
                    currentRecord_.source, currentRecord_.vector);
        }
        break;
      case McodeEffect::ReturnFromHandler:
        trace(TraceEvent::IntrReturn);
        if (intr_.inNestedDelivery()) {
            // Nested (preempting) delivery: the preempt-restore
            // routine still runs before the outer handler resumes,
            // so the span stays open until ResumeFromPreempt and
            // the tracker keeps its nested current.
            if (recordOpen_) {
                currentRecord_.uiretCommitAt = cycle_;
                observe(IntrStage::Return, currentRecord_.spanId,
                        currentRecord_.source,
                        currentRecord_.vector);
            }
            break;
        }
        intr_.onHandlerReturn();
        if (recordOpen_) {
            currentRecord_.uiretCommitAt = cycle_;
            observe(IntrStage::Return, currentRecord_.spanId,
                    currentRecord_.source, currentRecord_.vector);
            stats_.intrRecords.push_back(currentRecord_);
            recordOpen_ = false;
        }
        break;
      case McodeEffect::PreemptSaveDone:
        // The preempted frame spill is architectural: this is the
        // nested span's injection point (its "microcode entry").
        if (recordOpen_ && currentRecord_.injectedAt == 0) {
            currentRecord_.injectedAt = cycle_;
            observe(IntrStage::Inject, currentRecord_.spanId,
                    currentRecord_.source, currentRecord_.vector);
        }
        break;
      case McodeEffect::ResumeFromPreempt: {
        assert(!preemptFrames_.empty());
        assert(restoresInFlight_ > 0);
        if (recordOpen_) {
            currentRecord_.restoredAt = cycle_;
            observe(IntrStage::PreemptResume, currentRecord_.spanId,
                    currentRecord_.source, currentRecord_.vector);
            stats_.intrRecords.push_back(currentRecord_);
        }
        ++stats_.preemptRestores;
        PreemptFrame f = preemptFrames_.back();
        preemptFrames_.pop_back();
        resumePc_ = f.resumePc;
        currentRecord_ = f.record;
        recordOpen_ = f.recordOpen;
        --restoresInFlight_;
        intr_.onNestedReturn();
        break;
      }
      case McodeEffect::SetTimerArm: {
        bool periodic = (entry.imm >> 63) & 1;
        Cycles cycles = entry.imm & ~(1ull << 63);
        kbTimer_.setTimer(cycle_, cycles,
                          periodic ? KbTimerMode::Periodic
                                   : KbTimerMode::OneShot);
        break;
      }
      case McodeEffect::ClearTimerArm:
        kbTimer_.clearTimer();
        break;
    }
}

// ---------------------------------------------------------------------
// Writeback / branch resolution
// ---------------------------------------------------------------------

void
OooCore::releaseRingSlot(const RobEntry &entry)
{
    std::size_t slot = entry.seq & kRingMask;
    if (ringSeq_[slot] == entry.seq) {
        ringSeq_[slot] = 0;
        ringEntry_[slot] = nullptr;
    }
}

void
OooCore::scheduleWriteback(std::uint64_t seq, Cycles ready_at)
{
    if (ready_at - cycle_ < kWbSpan)
        wbWheel_[ready_at & kWbMask].push_back(seq);
    else
        farWb_.push_back(seq);
}

void
OooCore::writebackStage()
{
    // Long-latency stragglers enter the wheel once in range.
    if (!farWb_.empty()) {
        std::size_t kept = 0;
        for (std::uint64_t seq : farWb_) {
            std::size_t slot = seq & kRingMask;
            if (ringSeq_[slot] != seq)
                continue;  // squashed while waiting
            Cycles ready = ringEntry_[slot]->readyAt;
            if (ready - cycle_ < kWbSpan)
                wbWheel_[ready & kWbMask].push_back(seq);
            else
                farWb_[kept++] = seq;
        }
        farWb_.resize(kept);
    }

    // Drain this cycle's completion bucket in age (seq) order —
    // exactly the order the old whole-ROB scan visited them. Stale
    // seqs (squashed entries, previous laps of the wheel) fail the
    // ring check and drop out here.
    std::vector<std::uint64_t> &bucket = wbWheel_[cycle_ & kWbMask];
    if (bucket.empty())
        return;
    wbScratch_.clear();
    for (std::uint64_t seq : bucket) {
        std::size_t slot = seq & kRingMask;
        if (ringSeq_[slot] != seq)
            continue;
        const RobEntry &e = *ringEntry_[slot];
        if (!e.issued || e.done)
            continue;
        assert(e.readyAt == cycle_);
        wbScratch_.push_back(seq);
    }
    bucket.clear();
    std::sort(wbScratch_.begin(), wbScratch_.end());

    for (std::uint64_t seq : wbScratch_) {
        // Revalidate: a mispredict earlier in this loop squashes
        // younger entries, which are exactly the seqs that follow.
        std::size_t slot = seq & kRingMask;
        if (ringSeq_[slot] != seq)
            continue;
        RobEntry &entry = *ringEntry_[slot];
        entry.done = true;
        trace(TraceEvent::Complete, entry.seq, entry.pc,
              entry.uop.cls);
        if (entry.uop.effect == McodeEffect::WriteIcr) {
            // The write to the ICR happens at execution; the APIC
            // emits the notification IPI then, not at retirement.
            // Safe to act on: SerializeMsr issues only from the ROB
            // head, so it is never on a speculative path.
            if (!stats_.sendRecords.empty() &&
                stats_.sendRecords.back().icrCommitAt == 0)
                stats_.sendRecords.back().icrCommitAt = cycle_;
            if (system_)
                system_->senduipiCommit(*this, entry.imm);
            continue;
        }
        if (entry.uop.effect == McodeEffect::JumpHandler) {
            if (recordOpen_ && currentRecord_.deliveryExecAt == 0)
                currentRecord_.deliveryExecAt = cycle_;
            fetchPc_ = program_->handlerEntry();
            awaitRedirect_ = false;
            frontendStallUntil_ = std::max<Cycles>(
                frontendStallUntil_,
                cycle_ + params_.takenBranchBubble);
            continue;
        }
        if (entry.uop.effect == McodeEffect::ReturnFromHandler) {
            // Writeback happens out of order: an outer handler's
            // uiret can complete before the inner restore routine's
            // ResumeFromPreempt commits and pops the frame stack, so
            // the tracker's nesting state alone is stale here. A
            // uiret is a nested return exactly when fewer restore
            // routines are outstanding than there are preempt
            // frames; otherwise every open frame already has its
            // restore in flight and this is the outermost return.
            if (restoresInFlight_ < intr_.preemptDepth()) {
                // Nested uiret: fetch must not resume the program —
                // stream the preempt-restore routine instead; its
                // chain-tail Branch (ResumeFromPreempt) carries the
                // redirect back into the preempted handler.
                std::uint32_t target = resumeTargetForReturn();
                entry.nextPc = target;
                loadUcodeRestore(target);
                ++restoresInFlight_;
                continue;
            }
            fetchPc_ = resumeTargetForReturn();
            // Record the real return target: uiret is a program
            // instruction, so its commit updates
            // lastCommittedNextPc_, and the fall-through pc+1 would
            // be wrong (out of bounds for a handler at the end of
            // the program) if a Flush-mode accept lands before the
            // next program op commits.
            entry.nextPc = fetchPc_;
            awaitRedirect_ = false;
            frontendStallUntil_ = std::max<Cycles>(
                frontendStallUntil_,
                cycle_ + params_.takenBranchBubble);
            continue;
        }
        if (entry.uop.effect == McodeEffect::ResumeFromPreempt) {
            // Restore redirect: back into the preempted handler at
            // the pc the preemption interrupted. The target was
            // latched into the routine's imm when the restore was
            // issued — reading resumePc_ here would race with an
            // earlier restore's commit-time frame pop when returns
            // stack more than one deep.
            fetchPc_ = static_cast<std::uint32_t>(entry.imm);
            entry.nextPc = fetchPc_;
            awaitRedirect_ = false;
            frontendStallUntil_ = std::max<Cycles>(
                frontendStallUntil_,
                cycle_ + params_.takenBranchBubble);
            continue;
        }
        if (!entry.isBranch)
            continue;
        if (!entry.wrongPath && !entry.staticBranch &&
            entry.uop.effect == McodeEffect::None) {
            predictor_.update(entry.pc, entry.actualTaken,
                              entry.predictedTaken);
        }
        if (entry.mispredicted) {
            ++stats_.branchMispredicts;
            // Restore history to the pre-branch state, then apply
            // the correct outcome.
            predictor_.restoreHistory(entry.historyBefore);
            predictor_.update(entry.pc, entry.actualTaken,
                              entry.predictedTaken);
            squashYoungerThan(entry.seq, entry.correctTarget,
                              predictor_.history());
            break;  // younger entries are gone; stop iterating
        }
    }
}

void
OooCore::uncountRestore(const MicroOp &uop)
{
    // A squashed restore routine (its chain-tail ResumeFromPreempt
    // never commits) releases its outstanding-restore slot so the
    // re-fetched uiret issues the routine again.
    if (uop.effect == McodeEffect::ResumeFromPreempt) {
        assert(restoresInFlight_ > 0);
        --restoresInFlight_;
    }
}

void
OooCore::uncountExec(const RobEntry &entry)
{
    if (entry.countedExec && entry.pc < program_->size() &&
        execCount_[entry.pc] > 0)
        --execCount_[entry.pc];
}

void
OooCore::squashYoungerThan(std::uint64_t seq,
                           std::uint32_t recovery_pc,
                           std::uint64_t history)
{
    std::uint64_t killed_rob = 0;
    bool killed_intr = false;
    trace(TraceEvent::Squash, seq);

    while (!rob_.empty() && rob_.back().seq > seq) {
        if (rob_.back().uop.fromIntrPath)
            killed_intr = true;
        uncountRestore(rob_.back().uop);
        uncountExec(rob_.back());
        releaseRingSlot(rob_.back());
        rob_.pop_back();
        ++killed_rob;
    }
    for (const auto &f : fetchBuffer_) {
        if (f.uop.fromIntrPath)
            killed_intr = true;
        uncountRestore(f.uop);
        uncountExec(f);
    }
    for (const auto &u : ucodeQueue_) {
        if (u.fromIntrPath)
            killed_intr = true;
        uncountRestore(u);
    }
    stats_.squashedUops += killed_rob + fetchBuffer_.size();
    ++stats_.squashes;
    fetchBuffer_.clear();
    ucodeQueue_.clear();

    rebuildRenameTable();

    onWrongPath_ = false;
    fetchHalted_ = false;
    awaitRedirect_ = false;
    fetchPc_ = recovery_pc;
    predictor_.restoreHistory(history);

    Cycles penalty =
        (killed_rob + params_.squashWidth - 1) / params_.squashWidth;
    Cycles until = cycle_ + penalty + 1;
    if (until > frontendStallUntil_)
        frontendStallUntil_ = until;

    if (intr_.onSquash(killed_intr)) {
        ++stats_.reinjections;
        const PendingIntr &cur = intr_.current();
        observe(IntrStage::Reinject, cur.spanId, cur.source,
                cur.vector);
    }
}

void
OooCore::squashAll()
{
    std::uint64_t killed_rob = rob_.size();
    stats_.squashedUops += killed_rob + fetchBuffer_.size();
    if (killed_rob + fetchBuffer_.size() > 0)
        ++stats_.squashes;
    for (const auto &entry : rob_) {
        uncountRestore(entry.uop);
        uncountExec(entry);
        releaseRingSlot(entry);
    }
    for (const auto &entry : fetchBuffer_) {
        uncountRestore(entry.uop);
        uncountExec(entry);
    }
    for (const auto &u : ucodeQueue_)
        uncountRestore(u);
    rob_.clear();
    fetchBuffer_.clear();
    ucodeQueue_.clear();
    rebuildRenameTable();
    onWrongPath_ = false;
    fetchHalted_ = false;
    awaitRedirect_ = false;

    Cycles penalty =
        (killed_rob + params_.squashWidth - 1) / params_.squashWidth;
    Cycles until = cycle_ + penalty;
    if (until > frontendStallUntil_)
        frontendStallUntil_ = until;
}

void
OooCore::rebuildRenameTable()
{
    for (auto &r : renameTable_)
        r = 0;
    iqCount_ = 0;
    lqCount_ = 0;
    sqCount_ = 0;
    iqList_.clear();
    for (auto &entry : rob_) {
        if (entry.uop.dest != reg::kNone)
            renameTable_[entry.uop.dest] = entry.seq;
        if (!entry.issued) {
            ++iqCount_;
            iqList_.push_back(&entry);
        }
        if (entry.uop.cls == OpClass::MemRead)
            ++lqCount_;
        if (entry.uop.cls == OpClass::MemWrite)
            ++sqCount_;
    }
}

// ---------------------------------------------------------------------
// Issue / execute
// ---------------------------------------------------------------------

unsigned
OooCore::memAccessLatency(RobEntry &entry)
{
    if (entry.uop.mem == MemMode::Remote)
        return mem_.remoteAccess(entry.addr);

    // Store-to-load forwarding from older in-flight stores.
    if (sqCount_ > 0) {
        for (auto it = rob_.rbegin(); it != rob_.rend(); ++it) {
            if (it->seq >= entry.seq)
                continue;
            if (it->uop.cls == OpClass::MemWrite &&
                it->addr == entry.addr)
                return 2;
        }
    }
    return mem_.access(entry.addr);
}

bool
OooCore::depReady(std::uint64_t dep) const
{
    if (dep == 0)
        return true;
    std::size_t slot = dep & kRingMask;
    // Slot reused by a much younger micro-op: the producer retired
    // thousands of micro-ops ago, so the value is ready.
    if (ringSeq_[slot] != dep)
        return true;
    return ringReadyAt_[slot] <= cycle_;
}

Cycles
OooCore::depBound(std::uint64_t dep) const
{
    if (dep == 0)
        return 0;
    std::size_t slot = dep & kRingMask;
    if (ringSeq_[slot] != dep)
        return 0;  // producer retired (or slot long since reused)
    Cycles ready = ringReadyAt_[slot];
    if (ready != ~Cycles(0))
        return ready;  // issued: completion cycle is exact
    // Producer not issued yet: it cannot produce before its own
    // dependencies resolve plus one cycle of execution — and never
    // this cycle. Its notBefore may be stale-low, which only means
    // we re-check sooner than strictly necessary — never later.
    return std::max(ringEntry_[slot]->notBefore + 1, cycle_ + 1);
}

void
OooCore::issueStage()
{
    unsigned issued = 0;
    std::size_t kept = 0;
    const std::size_t n = iqList_.size();
    for (std::size_t i = 0; i < n; ++i) {
        RobEntry *entry = iqList_[i];

        // Dependencies provably unready: one compare and move on.
        if (entry->notBefore > cycle_) {
            iqList_[kept++] = entry;
            continue;
        }

        bool can = issued < params_.issueWidth;

        // Serializing micro-ops issue only from the ROB head.
        if (can && entry->uop.cls == OpClass::SerializeMsr &&
            entry != &rob_.front())
            can = false;

        if (can) {
            Cycles bound =
                std::max(depBound(entry->dep1),
                         depBound(entry->dep2));
            if (bound > cycle_) {
                entry->notBefore = bound;
                can = false;
            }
        }

        unsigned pool = fuPoolOf(entry->uop.cls);
        if (can && fuTokens_[pool] == 0)
            can = false;

        if (!can) {
            iqList_[kept++] = entry;
            continue;
        }

        --fuTokens_[pool];
        unsigned latency;
        if (entry->uop.cls == OpClass::MemRead)
            latency = memAccessLatency(*entry);
        else
            latency = classLatency(entry->uop);
        assert(latency >= 1 && "zero-latency ops would complete in "
                               "the issue cycle, before writeback");

        entry->issued = true;
        entry->readyAt = cycle_ + latency;
        ++stats_.issuedUops;
        trace(TraceEvent::Issue, entry->seq, entry->pc,
              entry->uop.cls);
        ringReadyAt_[entry->seq & kRingMask] = entry->readyAt;
        scheduleWriteback(entry->seq, entry->readyAt);
        if (iqCount_ > 0)
            --iqCount_;
        ++issued;
    }
    iqList_.resize(kept);
}

// ---------------------------------------------------------------------
// Dispatch (rename + ROB allocation)
// ---------------------------------------------------------------------

void
OooCore::dispatchStage()
{
    for (unsigned n = 0; n < params_.decodeWidth; ++n) {
        if (fetchBuffer_.empty())
            break;
        RobEntry &front = fetchBuffer_.front();
        if (front.readyAt > cycle_)
            break;
        if (rob_.size() >= params_.robSize)
            break;
        if (iqCount_ >= params_.iqSize)
            break;
        if (front.uop.cls == OpClass::MemRead &&
            lqCount_ >= params_.lqSize)
            break;
        if (front.uop.cls == OpClass::MemWrite &&
            sqCount_ >= params_.sqSize)
            break;

        RobEntry entry = front;
        fetchBuffer_.pop_front();
        entry.readyAt = 0;
        entry.issued = false;
        entry.done = false;

        if (entry.uop.src1 != reg::kNone)
            entry.dep1 = renameTable_[entry.uop.src1];
        if (entry.uop.src2 != reg::kNone)
            entry.dep2 = renameTable_[entry.uop.src2];
        if (entry.uop.dest != reg::kNone)
            renameTable_[entry.uop.dest] = entry.seq;

        if (entry.uop.effect == McodeEffect::ReadUitt)
            stats_.sendRecords.push_back(SendRecord{cycle_, 0});

        ++iqCount_;
        if (entry.uop.cls == OpClass::MemRead)
            ++lqCount_;
        if (entry.uop.cls == OpClass::MemWrite)
            ++sqCount_;

        entry.notBefore = 0;

        trace(TraceEvent::Dispatch, entry.seq, entry.pc,
              entry.uop.cls);
        rob_.push_back(entry);
        RobEntry &placed = rob_.back();
        std::size_t slot = placed.seq & kRingMask;
        ringSeq_[slot] = placed.seq;
        ringReadyAt_[slot] = ~0ull;
        ringEntry_[slot] = &placed;
        iqList_.push_back(&placed);
    }
}

// ---------------------------------------------------------------------
// Interrupt acceptance
// ---------------------------------------------------------------------

void
OooCore::checkInterruptAccept()
{
    if (!intr_.canAccept())
        return;

    PendingIntr p = intr_.accept();
    trace(TraceEvent::IntrAccept);
    observe(IntrStage::Accept, p.spanId, p.source, p.vector);
    currentRecord_ = IntrRecord{};
    currentRecord_.source = p.source;
    currentRecord_.vector = p.vector;
    currentRecord_.spanId = p.spanId;
    currentRecord_.raisedAt = p.raisedAt;
    currentRecord_.acceptedAt = cycle_;
    recordOpen_ = true;

    switch (params_.strategy) {
      case DeliveryStrategy::Flush: {
        squashAll();
        resumePc_ = lastCommittedNextPc_;
        fetchPc_ = resumePc_;
        loadUcodeForCurrent();
        intr_.onInjected();
        currentRecord_.injectedAt = cycle_;
        observe(IntrStage::Inject, p.spanId, p.source, p.vector);
        frontendStallUntil_ = std::max<Cycles>(
            frontendStallUntil_,
            cycle_ + params_.mcode.flushUcodeEntryLatency);
        break;
      }
      case DeliveryStrategy::Drain:
        drainWaiting_ = true;
        break;
      case DeliveryStrategy::Tracked:
        // Fetch injects at the next instruction (or safepoint)
        // boundary.
        break;
    }
}

void
OooCore::loadUcodeForCurrent()
{
    ucodeQueue_.clear();
    const PendingIntr &cur = intr_.current();
    if (cur.source == IntrSource::UserIpi) {
        for (const auto &u : mcrom_.notify())
            ucodeQueue_.push_back(u);
    }
    // KB timer and forwarded interrupts skip notification
    // processing entirely (§4.3, §4.5): no UPID traffic.
    for (const auto &u : mcrom_.delivery())
        ucodeQueue_.push_back(u);
    ucodeMacroPc_ = kUcodePc;
    ucodeNextPc_ = 0;
    ucodeImm_ = 0;
}

void
OooCore::loadUcodeNested()
{
    // Nested (preempting) delivery: spill the preempted handler's
    // frame first, then the usual notification/delivery microcode.
    ucodeQueue_.clear();
    for (const auto &u : mcrom_.preemptSave())
        ucodeQueue_.push_back(u);
    const PendingIntr &cur = intr_.current();
    if (cur.source == IntrSource::UserIpi) {
        for (const auto &u : mcrom_.notify())
            ucodeQueue_.push_back(u);
    }
    for (const auto &u : mcrom_.delivery())
        ucodeQueue_.push_back(u);
    ucodeMacroPc_ = kUcodePc;
    ucodeNextPc_ = 0;
    ucodeImm_ = 0;
}

void
OooCore::loadUcodeRestore(std::uint32_t resume_pc)
{
    ucodeQueue_.clear();
    for (const auto &u : mcrom_.preemptRestore())
        ucodeQueue_.push_back(u);
    ucodeMacroPc_ = kUcodePc;
    ucodeNextPc_ = 0;
    // The routine carries its own redirect target: by the time its
    // ResumeFromPreempt executes, earlier restores may have popped
    // frames and moved resumePc_ under it.
    ucodeImm_ = resume_pc;
}

std::uint32_t
OooCore::resumeTargetForReturn() const
{
    // Resume targets form a stack: the open frames hold the outer
    // targets (outermost first) and resumePc_ holds the innermost.
    // Each outstanding restore consumes one target from the top, so
    // the next return resumes at position depth - restoresInFlight_.
    std::size_t depth = intr_.preemptDepth();
    assert(restoresInFlight_ <= depth);
    if (restoresInFlight_ == 0)
        return resumePc_;
    return preemptFrames_[depth - restoresInFlight_].resumePc;
}

void
OooCore::beginInjection()
{
    trace(TraceEvent::IntrInject);
    resumePc_ = fetchPc_;
    if (intr_.inNestedDelivery())
        loadUcodeNested();  // re-injection after a nested squash
    else
        loadUcodeForCurrent();
    intr_.onInjected();
    if (currentRecord_.injectedAt == 0 && !currentRecord_.preempting) {
        currentRecord_.injectedAt = cycle_;
        const PendingIntr &cur = intr_.current();
        observe(IntrStage::Inject, cur.spanId, cur.source,
                cur.vector);
    }
    frontendStallUntil_ = std::max<Cycles>(
        frontendStallUntil_,
        cycle_ + params_.mcode.trackedUcodeEntryLatency);
}

void
OooCore::beginPreemptInjection()
{
    trace(TraceEvent::IntrAccept);
    PendingIntr p = intr_.beginPreempt();
    ++stats_.preemptions;
    observe(IntrStage::Accept, p.spanId, p.source, p.vector);

    preemptFrames_.push_back(
        PreemptFrame{resumePc_, currentRecord_, recordOpen_});
    currentRecord_ = IntrRecord{};
    currentRecord_.source = p.source;
    currentRecord_.vector = p.vector;
    currentRecord_.spanId = p.spanId;
    currentRecord_.raisedAt = p.raisedAt;
    currentRecord_.acceptedAt = cycle_;
    currentRecord_.preempting = true;
    currentRecord_.saveStartAt = cycle_;
    recordOpen_ = true;
    observe(IntrStage::PreemptSave, p.spanId, p.source, p.vector);

    trace(TraceEvent::IntrInject);
    resumePc_ = fetchPc_;
    loadUcodeNested();
    intr_.onInjected();
    // injectedAt (and the Inject observation) for a preempting span
    // comes from the PreemptSaveDone commit: its ucode entry ends
    // when the frame spill is architectural.
    frontendStallUntil_ = std::max<Cycles>(
        frontendStallUntil_,
        cycle_ + params_.mcode.trackedUcodeEntryLatency);
}

// ---------------------------------------------------------------------
// Fetch
// ---------------------------------------------------------------------

std::uint64_t
OooCore::genAddress(const MacroOp &op, std::uint32_t pc)
{
    const AddrPattern &a = op.addr;
    switch (a.kind) {
      case AddrKind::Fixed:
        return a.base;
      case AddrKind::Stride: {
        std::uint64_t n = execCount_[pc];
        if (!onWrongPath_)
            ++execCount_[pc];
        std::uint64_t range = a.range ? a.range : 1;
        std::uint64_t span = n * a.stride;
        // Power-of-two ranges (the common case in the workload
        // kernels) mask instead of dividing: same value, and this
        // runs once per memory op on the fast-forward path.
        if ((range & (range - 1)) == 0)
            return a.base + (span & (range - 1));
        return a.base + span % range;
      }
      case AddrKind::Random:
      case AddrKind::Chase: {
        std::uint64_t off = rng_.nextBounded(a.range ? a.range : 64);
        return a.base + (off & ~7ull);
      }
      case AddrKind::None:
        break;
    }
    return a.base;
}

bool
OooCore::evalBranch(const MacroOp &op, std::uint32_t pc)
{
    switch (op.branch.kind) {
      case BranchKind::Always:
        return true;
      case BranchKind::Never:
        return false;
      case BranchKind::Loop: {
        std::uint64_t iter = execCount_[pc]++;
        std::uint64_t count = op.branch.count;
        if ((count & (count - 1)) == 0)
            return (iter & (count - 1)) != count - 1;
        return (iter % count) != count - 1;
      }
      case BranchKind::Random:
        return rng_.nextBool(op.branch.probability);
      case BranchKind::None:
        break;
    }
    return false;
}

void
OooCore::fetchStage()
{
    if (frontendStallUntil_ > cycle_)
        return;
    if (fetchBuffer_.size() >= kFetchBufferCap)
        return;

    if (drainWaiting_) {
        if (rob_.empty() && fetchBuffer_.empty()) {
            drainWaiting_ = false;
            beginInjection();
        } else {
            ++stats_.drainWaitCycles;
        }
        return;
    }

    unsigned budget = params_.fetchWidth;
    while (budget > 0) {
        if (fetchBuffer_.size() >= kFetchBufferCap)
            break;
        if (!ucodeQueue_.empty()) {
            fetchUcodeUop();
            --budget;
            if (frontendStallUntil_ > cycle_)
                break;  // redirect bubble
            continue;
        }

        // Waiting for a microcode jump/return to execute: the next
        // fetch address is not known yet.
        if (awaitRedirect_)
            break;

        // Instruction boundary: tracked injection point.
        bool at_safepoint =
            !fetchHalted_ && fetchPc_ < program_->size() &&
            program_->at(fetchPc_).isSafepoint;
        if (intr_.shouldInject(at_safepoint, params_.safepointMode)) {
            beginInjection();
            break;
        }

        // Priority preemption boundary: a strictly-higher-priority
        // pending vector interrupts the running handler — but only
        // once the running delivery is fully architectural (its
        // jump committed; in-order commit then guarantees no older
        // branch can still squash the nested work) and no restore
        // is in flight.
        if (intr_.shouldPreempt() && restoresInFlight_ == 0 &&
            recordOpen_ && currentRecord_.deliveryCommitAt != 0 &&
            currentRecord_.uiretCommitAt == 0) {
            beginPreemptInjection();
            break;
        }

        if (fetchHalted_)
            break;

        // Fast-forward handoff: the detail window expired, so stop
        // feeding program ops and let the pipeline drain empty.
        if (ffDrainPending_)
            break;

        std::uint32_t before_stall_pc = fetchPc_;
        (void)before_stall_pc;
        fetchProgramOp();
        --budget;
        if (frontendStallUntil_ > cycle_)
            break;  // taken-branch bubble
        if (fetchHalted_)
            break;
    }
}

void
OooCore::fetchProgramOp()
{
    assert(fetchPc_ < program_->size());
    const MacroOp &op = program_->at(fetchPc_);
    std::uint32_t pc = fetchPc_;

    // Microcoded instructions switch the fetch source to the MSROM.
    switch (op.opcode) {
      case MacroOpcode::Halt:
        fetchHalted_ = true;
        return;
      case MacroOpcode::SendUipi:
      case MacroOpcode::Uiret:
      case MacroOpcode::Clui:
      case MacroOpcode::Stui:
      case MacroOpcode::TestUi:
      case MacroOpcode::SetTimer:
      case MacroOpcode::ClearTimer: {
        const std::vector<MicroOp> *routine = nullptr;
        std::uint64_t imm = op.imm;
        switch (op.opcode) {
          case MacroOpcode::SendUipi:
            routine = &mcrom_.senduipi();
            break;
          case MacroOpcode::Uiret:
            routine = &mcrom_.uiret();
            break;
          case MacroOpcode::Clui:
            routine = &mcrom_.clui();
            break;
          case MacroOpcode::Stui:
          case MacroOpcode::TestUi:
            routine = &mcrom_.stui();
            break;
          case MacroOpcode::SetTimer:
            routine = &mcrom_.setTimer();
            imm = op.imm |
                (op.branch.count ? (1ull << 63) : 0);
            break;
          case MacroOpcode::ClearTimer:
            routine = &mcrom_.clearTimer();
            break;
          default:
            break;
        }
        for (const auto &u : *routine)
            ucodeQueue_.push_back(u);
        ucodeMacroPc_ = pc;
        ucodeNextPc_ = pc + 1;
        ucodeImm_ = imm;
        fetchPc_ = pc + 1;
        return;  // micro-ops stream on subsequent fetch slots
      }
      default:
        break;
    }

    RobEntry entry;
    entry.seq = nextSeq_++;
    entry.pc = pc;
    entry.nextPc = pc + 1;
    entry.imm = op.imm;
    entry.wrongPath = onWrongPath_;
    entry.readyAt = cycle_ + params_.frontendDepth;

    MicroOp u;
    u.dest = op.dest;
    u.src1 = op.src1;
    u.src2 = op.src2;
    u.eom = true;
    u.safepoint = op.isSafepoint;

    switch (op.opcode) {
      case MacroOpcode::IntAlu:
        u.cls = OpClass::IntAlu;
        break;
      case MacroOpcode::IntMult:
        u.cls = OpClass::IntMult;
        break;
      case MacroOpcode::FpAlu:
        u.cls = OpClass::FpAlu;
        break;
      case MacroOpcode::FpMult:
        u.cls = OpClass::FpMult;
        break;
      case MacroOpcode::Nop:
        u.cls = OpClass::Nop;
        break;
      case MacroOpcode::Rdtsc:
        u.cls = OpClass::Rdtsc;
        break;
      case MacroOpcode::Load:
        u.cls = OpClass::MemRead;
        u.mem = MemMode::Local;
        entry.addr = genAddress(op, pc);
        entry.countedExec =
            !entry.wrongPath && op.addr.kind == AddrKind::Stride;
        break;
      case MacroOpcode::Store:
        u.cls = OpClass::MemWrite;
        u.mem = MemMode::Local;
        entry.addr = genAddress(op, pc);
        entry.countedExec =
            !entry.wrongPath && op.addr.kind == AddrKind::Stride;
        break;
      case MacroOpcode::Branch: {
        u.cls = OpClass::Branch;
        entry.countedExec =
            !entry.wrongPath && op.branch.kind == BranchKind::Loop;
        entry.isBranch = true;
        entry.historyBefore = predictor_.history();

        bool predicted;
        bool actual;
        if (op.branch.kind == BranchKind::Always) {
            predicted = true;
            actual = true;
            entry.staticBranch = true;
        } else if (op.branch.kind == BranchKind::Never) {
            // Perfectly-biased not-taken branch (e.g.\ a Concord
            // poll check): statically predicted, filtered from the
            // global history like a real front-end would.
            predicted = false;
            actual = onWrongPath_ ? false : evalBranch(op, pc);
            entry.staticBranch = true;
        } else {
            predicted = predictor_.predict(pc);
            actual = onWrongPath_ ? predicted
                                  : evalBranch(op, pc);
        }
        entry.predictedTaken = predicted;
        entry.actualTaken = actual;
        entry.correctTarget = actual ? op.target : pc + 1;
        entry.nextPc = entry.correctTarget;
        entry.mispredicted = !onWrongPath_ && predicted != actual;
        if (entry.mispredicted)
            onWrongPath_ = true;

        fetchPc_ = predicted ? op.target : pc + 1;
        if (predicted) {
            frontendStallUntil_ = std::max<Cycles>(
                frontendStallUntil_,
                cycle_ + params_.takenBranchBubble);
        }
        entry.uop = u;
        fetchBuffer_.push_back(entry);
        ++stats_.fetchedUops;
        return;
      }
      default:
        u.cls = OpClass::Nop;
        break;
    }

    entry.uop = u;
    fetchPc_ = pc + 1;
    trace(TraceEvent::Fetch, entry.seq, entry.pc, entry.uop.cls);
    fetchBuffer_.push_back(entry);
    ++stats_.fetchedUops;
}

void
OooCore::fetchUcodeUop()
{
    assert(!ucodeQueue_.empty());
    MicroOp u = ucodeQueue_.front();
    ucodeQueue_.pop_front();

    RobEntry entry;
    entry.seq = nextSeq_++;
    entry.pc = ucodeMacroPc_;
    entry.nextPc = ucodeNextPc_;
    entry.imm = ucodeImm_;
    entry.wrongPath = onWrongPath_;
    entry.readyAt = cycle_ + params_.frontendDepth;
    entry.addr = u.addr;
    entry.isBranch = u.cls == OpClass::Branch;
    entry.uop = u;

    if (u.effect == McodeEffect::JumpHandler ||
        u.effect == McodeEffect::ReturnFromHandler ||
        u.effect == McodeEffect::ResumeFromPreempt) {
        assert(u.effect != McodeEffect::JumpHandler ||
               program_->handlerEntry() != Program::kNoHandler);
        // The target is produced by the routine itself (the uiret
        // target is popped from the stack): program fetch cannot
        // resume until the redirect micro-op *executes*.
        awaitRedirect_ = true;
    }

    trace(TraceEvent::Fetch, entry.seq, entry.pc, entry.uop.cls);
    fetchBuffer_.push_back(entry);
    ++stats_.fetchedUops;
}

} // namespace xui
