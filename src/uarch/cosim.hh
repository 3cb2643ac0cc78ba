/**
 * @file
 * Hybrid co-simulation driver: one DES Simulation (kernel / device /
 * network tier) lock-stepped with one UarchSystem (cycle tier).
 *
 * The naive coupling interleaves the two tiers every cycle, which
 * forces the cycle tier through its per-tick path even when the DES
 * queue is idle for thousands of cycles. runCoSim() instead advances
 * the cycle tier in bulk to just short of the next pending DES event
 * (Simulation::nextEventAt), then fires everything due. A core in
 * fast-forward mode gets whole inter-event regions as one
 * ffAdvance() call, and an idle or stalled core skips them outright;
 * either way the DES tier only runs when it actually has work.
 *
 * DES callbacks inject work into the cycle tier through the usual
 * entry points (UarchSystem::injectUipi, OooCore::receiveIpi /
 * deviceInterrupt). Arrivals posted with a wire latency of at least
 * CoreParams::ffWarmup are visible to the fast-forward controller
 * far enough ahead that the pipeline re-warms before the raise —
 * shorter wires still deliver correctly, but land in a colder
 * pipeline than a full-detail run would show.
 */

#ifndef XUI_UARCH_COSIM_HH
#define XUI_UARCH_COSIM_HH

#include "des/simulation.hh"
#include "uarch/uarch_system.hh"

namespace xui
{

/**
 * Run both tiers to absolute cycle `until` (cycle-tier clock).
 * DES events due at time T fire after the cycle tier has reached T,
 * so an event's injections are timestamped at or after T — the same
 * ordering a per-cycle interleave produces.
 */
void runCoSim(Simulation &sim, UarchSystem &sys, Cycles until);

} // namespace xui

#endif // XUI_UARCH_COSIM_HH
