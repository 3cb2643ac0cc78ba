#include "uarch/uarch_system.hh"

#include <algorithm>
#include <cassert>

namespace xui
{

UarchSystem::UarchSystem(std::uint64_t seed)
    : master_(seed)
{}

OooCore &
UarchSystem::addCore(const CoreParams &params, const Program *program)
{
    auto core = std::make_unique<OooCore>(
        static_cast<unsigned>(cores_.size()), params, program,
        master_.split());
    core->setSystem(this);
    core->setProbe(probe_);
    cores_.push_back(std::move(core));
    return *cores_.back();
}

void
UarchSystem::setProbe(CoreProbe *probe)
{
    probe_ = probe;
    for (auto &core : cores_)
        core->setProbe(probe);
}

int
UarchSystem::registerRoute(OooCore &receiver,
                           std::uint8_t user_vector)
{
    Upid &upid = receiver.upid();
    upid.setNotificationVector(receiver.uinv());
    upid.setDestination(receiver.id());
    return uitt_.allocate(&upid, user_vector);
}

void
UarchSystem::senduipiCommit(OooCore &sender,
                            std::uint64_t uitt_index)
{
    const UittEntry *entry =
        uitt_.lookup(static_cast<int>(uitt_index));
    if (entry == nullptr)
        return;  // invalid index: senduipi faults; timing unchanged
    Upid::PostResult result = entry->upid->post(entry->userVector);
    if (!result.sendIpi)
        return;
    std::uint32_t dest = entry->upid->destination();
    assert(dest < cores_.size());
    Cycles wire = sender.params().mcode.ipiWireLatency;
    cores_[dest]->receiveIpi(entry->upid->notificationVector(),
                             sender.now() + wire);
}

void
UarchSystem::injectUipi(OooCore &receiver, std::uint8_t user_vector)
{
    Upid &upid = receiver.upid();
    Upid::PostResult result = upid.post(user_vector);
    if (!result.sendIpi)
        return;
    receiver.receiveIpi(upid.notificationVector(),
                        receiver.now() + 1);
}

void
UarchSystem::tick()
{
    for (auto &core : cores_)
        core->tick();
}

void
UarchSystem::run(Cycles n)
{
    if (cores_.empty())
        return;
    // A single-core system runs through the core's own loop, which
    // carries both the stalled-core skip and the fast-forward bulk
    // path (the lockstep scan below degenerates to the same
    // decisions, one virtual-call layer slower).
    if (cores_.size() == 1) {
        cores_[0]->runCycles(n);
        return;
    }
    Cycles end = cores_[0]->now() + n;
    const std::size_t n_cores = cores_.size();
    while (cores_[0]->now() < end) {
        // Cores tick in lockstep; jump all clocks to one cycle short
        // of the earliest activity of any core. The scan starts at
        // the last core seen active (scanHint_), so a region with one
        // busy core vetoes the jump after a single horizon test
        // instead of rescanning the idle cores in front of it.
        const Cycles next = cores_[0]->now() + 1;
        Cycles h = OooCore::kNoWake;
        for (std::size_t i = 0; i < n_cores && h > next; ++i) {
            std::size_t idx = scanHint_ + i;
            if (idx >= n_cores)
                idx -= n_cores;
            OooCore &core = *cores_[idx];
            Cycles c = core.params().tickSkip ? core.nextActivityCycle()
                                              : next;
            if (c < h) {
                h = c;
                scanHint_ = idx;
            }
        }
        if (h > next) {
            Cycles to = std::min(h - 1, end);
            for (auto &core : cores_)
                core->skipTo(to);
            if (cores_[0]->now() >= end)
                break;
        }
        tick();
    }
}

Cycles
UarchSystem::now() const
{
    return cores_.empty() ? 0 : cores_[0]->now();
}

} // namespace xui
