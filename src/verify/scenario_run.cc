#include "verify/scenario_run.hh"

#include <algorithm>
#include <sstream>

#include "ckpt/snapshot.hh"
#include "intr/kb_timer.hh"

namespace xui
{

namespace
{

void
checkInterruptFacts(const CoreStats &s, ScenarioResult &out)
{
    if (s.interruptsRaised < s.interruptsDelivered) {
        std::ostringstream os;
        os << "duplicated deliveries: raised "
           << s.interruptsRaised << " < delivered "
           << s.interruptsDelivered;
        out.violations.push_back(os.str());
    }
    if (s.interruptsRaised - s.interruptsDelivered > 1) {
        std::ostringstream os;
        os << "lost interrupts: raised " << s.interruptsRaised
           << ", delivered " << s.interruptsDelivered
           << " (more than one in flight)";
        out.violations.push_back(os.str());
    }
    // A record is closed at uiret commit, so a run that ends while
    // the final handler is still in flight legitimately has one
    // open (unpushed) record. Priority preemption nests handlers,
    // so each preemption allows one more open record at the end.
    if (s.intrRecords.size() > s.interruptsDelivered ||
        s.intrRecords.size() + 1 + s.preemptions <
            s.interruptsDelivered) {
        std::ostringstream os;
        os << "record count " << s.intrRecords.size()
           << " inconsistent with delivered "
           << s.interruptsDelivered;
        out.violations.push_back(os.str());
    }
    Cycles prev_uiret = 0;
    for (std::size_t i = 0; i < s.intrRecords.size(); ++i) {
        const IntrRecord &r = s.intrRecords[i];
        // Nested (preempting) deliveries interleave with the
        // records around them: a preempting record closes before
        // the handler it interrupted, so the cross-record ordering
        // check only applies between non-preempting neighbors.
        bool cross_ordered = r.injectedAt >= prev_uiret;
        if (r.preempting || s.preemptions > 0)
            cross_ordered = true;
        const bool mono = r.acceptedAt >= r.raisedAt &&
            r.injectedAt >= r.acceptedAt &&
            r.deliveryCommitAt >= r.firstUopCommitAt &&
            r.uiretCommitAt > r.deliveryCommitAt &&
            cross_ordered;
        if (!mono) {
            std::ostringstream os;
            os << "record " << i
               << " timeline not monotonic (raised " << r.raisedAt
               << ", accepted " << r.acceptedAt << ", injected "
               << r.injectedAt << ", deliveryCommit "
               << r.deliveryCommitAt << ", uiret "
               << r.uiretCommitAt << ", prev uiret " << prev_uiret
               << ")";
            out.violations.push_back(os.str());
        }
        prev_uiret = r.uiretCommitAt;
    }
}

} // namespace

ScenarioRun::ScenarioRun(const ScenarioConfig &cfg)
    : cfg_(cfg),
      prog_(makeFuzzProgram(cfg.programSeed, cfg.program)),
      sys_(cfg.systemSeed)
{
    CoreParams params;
    params.strategy = cfg.strategy;
    params.safepointMode = cfg.safepointMode;
    params.tickSkip = cfg.tickSkip;
    params.fastForward = cfg.fastForward;
    params.detailWindow = cfg.detailWindow;
    params.ffWarmup = cfg.ffWarmup;

    digest_.collectCommitPcs(&commitPcs_);
    tee_.add(&digest_);

    core_ = &sys_.addCore(params, &prog_);
    core_->setProbe(&tee_);
    core_->kbTimer().configure(true, 0x21);
    core_->kbTimer().setTimer(0, cfg.timerPeriod,
                              KbTimerMode::Periodic);

    phase0TargetInsts_ =
        core_->stats().committedInsts + cfg.targetInsts;
    phase0CycleLimit_ = core_->now() + cfg.maxCycles;
}

void
ScenarioRun::maybeAdvancePhase()
{
    // Phase exits replicate the monolithic run loops' own exit
    // conditions, so a chunk ending exactly at a boundary and a
    // monolithic call crossing it agree on where phase 1 starts.
    if (phase_ == 0 &&
        (core_->stats().committedInsts >= phase0TargetInsts_ ||
         core_->now() >= phase0CycleLimit_ || core_->halted())) {
        phase_ = 1;
        phase1End_ = core_->now() + cfg_.extraCycles;
    }
    if (phase_ == 1 && core_->now() >= phase1End_)
        phase_ = 2;
}

bool
ScenarioRun::advance(Cycles chunkCycles)
{
    maybeAdvancePhase();
    if (phase_ == 0) {
        std::uint64_t rem_insts =
            phase0TargetInsts_ - core_->stats().committedInsts;
        Cycles rem_cycles = phase0CycleLimit_ - core_->now();
        core_->runUntilCommitted(rem_insts,
                                 std::min(chunkCycles, rem_cycles));
        maybeAdvancePhase();
    } else if (phase_ == 1) {
        Cycles rem = phase1End_ - core_->now();
        core_->runCycles(std::min(chunkCycles, rem));
        maybeAdvancePhase();
    }
    return !done();
}

void
ScenarioRun::runToEnd()
{
    while (advance(~Cycles(0))) {
    }
}

void
ScenarioRun::saveState(ckpt::Writer &w) const
{
    core_->saveState(w);
    digest_.saveState(w);
    w.u64(commitPcs_.size());
    for (std::uint32_t pc : commitPcs_)
        w.u32(pc);
    w.u8(phase_);
    w.u64(phase0TargetInsts_);
    w.u64(phase0CycleLimit_);
    w.u64(phase1End_);
}

bool
ScenarioRun::loadState(ckpt::Reader &r)
{
    if (!core_->loadState(r) || !digest_.loadState(r))
        return false;
    std::uint64_t n = 0;
    if (!r.u64(n) || n > (1ull << 28))
        return r.fail();
    commitPcs_.clear();
    commitPcs_.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) {
        std::uint32_t pc = 0;
        if (!r.u32(pc))
            return false;
        commitPcs_.push_back(pc);
    }
    if (!r.u8(phase_) || phase_ > 2)
        return r.fail();
    return r.u64(phase0TargetInsts_) && r.u64(phase0CycleLimit_) &&
           r.u64(phase1End_) && r.ok();
}

ScenarioResult
ScenarioRun::finish() const
{
    ScenarioResult out;
    const CoreStats &s = core_->stats();
    out.fullDigest = digest_.fullDigest();
    out.archDigest = digest_.archDigest();
    out.eventCount = digest_.eventCount();
    out.committedInsts = s.committedInsts;
    out.committedUops = s.committedUops;
    out.fetchedUops = s.fetchedUops;
    out.squashedUops = s.squashedUops;
    out.raised = s.interruptsRaised;
    out.delivered = s.interruptsDelivered;
    out.reinjections = s.reinjections;
    out.cycles = core_->now();
    out.intrRecords = s.intrRecords;
    out.ffEntries = s.ffEntries;
    out.ffExits = s.ffExits;
    out.ffInsts = s.ffInsts;
    out.ffCycles = s.ffCycles;

    const std::uint32_t handler_entry = prog_.handlerEntry();
    out.mainPcs.reserve(commitPcs_.size());
    for (std::uint32_t pc : commitPcs_) {
        if (pc < handler_entry)
            out.mainPcs.push_back(pc);
        else
            ++out.handlerCommits;
    }

    double exec_sum = 0.0, commit_sum = 0.0;
    for (const IntrRecord &r : s.intrRecords) {
        exec_sum +=
            static_cast<double>(r.deliveryExecAt - r.raisedAt);
        commit_sum +=
            static_cast<double>(r.deliveryCommitAt - r.raisedAt);
    }
    if (!s.intrRecords.empty()) {
        double n = static_cast<double>(s.intrRecords.size());
        out.meanHandlerStartLatency = exec_sum / n;
        out.meanDeliveryCommitLatency = commit_sum / n;
    }

    if (s.committedInsts < cfg_.targetInsts)
        out.violations.push_back("pipeline wedged: committed fewer "
                                 "instructions than targeted");
    if (s.committedUops > s.fetchedUops)
        out.violations.push_back(
            "conservation violated: committed > fetched uops");
    checkInterruptFacts(s, out);
    return out;
}

ScenarioResult
runScenario(const ScenarioConfig &cfg, CoreProbe *probe)
{
    ScenarioRun run(cfg);
    run.addProbe(probe);
    run.runToEnd();
    return run.finish();
}

RoundTripReport
checkRoundTrip(const ScenarioConfig &cfg, Cycles splitCycles,
               const std::string &snapshotPath)
{
    RoundTripReport rep;

    ScenarioRun reference(cfg);
    reference.runToEnd();
    ScenarioResult ref = reference.finish();

    const Cycles split =
        splitCycles != 0 ? splitCycles : ref.cycles / 2;

    // Second instance: run to the split boundary and checkpoint.
    ScenarioRun interrupted(cfg);
    while (!interrupted.done() && interrupted.now() < split)
        interrupted.advance(split - interrupted.now());
    ckpt::Writer w;
    interrupted.saveState(w);
    std::string payload = w.take();

    if (!snapshotPath.empty()) {
        // Drive the payload through the on-disk engine so the file
        // format itself is under test, not just the codec.
        ckpt::Snapshot snap;
        snap.tag = "roundtrip";
        snap.payload = std::move(payload);
        ckpt::SaveResult saved =
            ckpt::saveSnapshot(snapshotPath, snap);
        if (!saved.ok) {
            rep.message = "snapshot save failed: " + saved.error;
            return rep;
        }
        ckpt::Snapshot back;
        ckpt::LoadStatus st = ckpt::loadSnapshot(snapshotPath, back);
        ::remove(snapshotPath.c_str());
        if (st != ckpt::LoadStatus::Ok) {
            rep.message = std::string("snapshot load failed: ") +
                          ckpt::loadStatusName(st);
            return rep;
        }
        payload = std::move(back.payload);
    }

    ScenarioRun resumed(cfg);
    ckpt::Reader r(payload);
    if (!resumed.loadState(r)) {
        rep.message = "restore failed: malformed payload";
        return rep;
    }
    resumed.runToEnd();
    ScenarioResult res = resumed.finish();

    rep.referenceDigest = ref.fullDigest;
    rep.resumedDigest = res.fullDigest;
    rep.referenceEvents = ref.eventCount;
    rep.resumedEvents = res.eventCount;
    rep.bitIdentical = ref.fullDigest == res.fullDigest &&
                       ref.archDigest == res.archDigest &&
                       ref.eventCount == res.eventCount &&
                       ref.cycles == res.cycles;
    rep.ok = rep.bitIdentical;
    if (!rep.ok) {
        std::ostringstream os;
        os << "round-trip divergence: full digest " << std::hex
           << ref.fullDigest << " vs " << res.fullDigest
           << ", arch " << ref.archDigest << " vs "
           << res.archDigest << std::dec << ", events "
           << ref.eventCount << " vs " << res.eventCount
           << ", cycles " << ref.cycles << " vs " << res.cycles;
        rep.message = os.str();
    }
    return rep;
}

} // namespace xui
