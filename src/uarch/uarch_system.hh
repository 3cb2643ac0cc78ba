/**
 * @file
 * Multi-core container for the cycle tier: owns the cores, the
 * process-wide UITT, and the IPI fabric connecting local APICs.
 */

#ifndef XUI_UARCH_UARCH_SYSTEM_HH
#define XUI_UARCH_UARCH_SYSTEM_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "intr/uitt.hh"
#include "stats/rng.hh"
#include "uarch/ooo_core.hh"

namespace xui
{

/**
 * A small multi-core system: cores tick in lockstep, senduipi routes
 * through the shared UITT, and notification IPIs traverse the fabric
 * with the configured wire latency.
 */
class UarchSystem
{
  public:
    explicit UarchSystem(std::uint64_t seed = 1);

    /** Create a core running `program`; returns a stable reference. */
    OooCore &addCore(const CoreParams &params, const Program *program);

    /**
     * Attach one probe to every core, present and future (nullptr
     * detaches). Multi-core event streams interleave per tick in
     * core-id order, so a system-wide stream is still deterministic.
     * A probe whose gate fields track one core (uarch/probe.hh) must
     * be attached per core instead (OooCore::setProbe).
     */
    void setProbe(CoreProbe *probe);

    OooCore &core(std::size_t i) { return *cores_[i]; }
    std::size_t numCores() const { return cores_.size(); }

    /**
     * Set up a UIPI route to `receiver` (kernel register_handler +
     * register_sender): initializes the receiver's UPID (NV = its
     * UINV, NDST = its APIC id) and allocates a UITT entry.
     * @return the UITT index for senduipi.
     */
    int registerRoute(OooCore &receiver, std::uint8_t user_vector);

    /** senduipi ICR-write commit on `sender` (called by the core). */
    void senduipiCommit(OooCore &sender, std::uint64_t uitt_index);

    /**
     * Post a user IPI to `receiver` as an external agent (models a
     * timer core / kernel repost without simulating the sender's
     * pipeline). Applies the full UPID protocol.
     */
    void injectUipi(OooCore &receiver, std::uint8_t user_vector);

    /** Tick every core one cycle. */
    void tick();

    /** Run for `n` cycles. */
    void run(Cycles n);

    /** Global time (cycle of core 0). */
    Cycles now() const;

    Uitt &uitt() { return uitt_; }

  private:
    Rng master_;
    Uitt uitt_;
    CoreProbe *probe_ = nullptr;
    std::vector<std::unique_ptr<OooCore>> cores_;
    /** run() scan rotation: index of the core last seen active, so
     *  the all-quiesced test fails fast while it stays busy. */
    std::size_t scanHint_ = 0;
};

} // namespace xui

#endif // XUI_UARCH_UARCH_SYSTEM_HH
