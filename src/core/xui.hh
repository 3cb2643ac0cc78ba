/**
 * @file
 * Umbrella header for the xUI reproduction library.
 *
 * The library has two tiers:
 *  - the cycle tier (uarch/, workloads/): an out-of-order core model
 *    implementing UIPI and the four xUI extensions — tracked
 *    interrupts, hardware safepoints, the KB timer, and interrupt
 *    forwarding — at micro-op granularity;
 *  - the system tier (des/, os/, runtime/, kv/, net/, accel/):
 *    request-level models of the paper's three end-to-end workloads,
 *    driven by the calibrated CostModel.
 *
 * See core/calibration.hh for regenerating the cost table from the
 * cycle tier.
 */

#ifndef XUI_CORE_XUI_HH
#define XUI_CORE_XUI_HH

// Architectural interrupt state.
#include "intr/bitset256.hh"
#include "intr/forwarding.hh"
#include "intr/kb_timer.hh"
#include "intr/uitt.hh"
#include "intr/upid.hh"

// Cycle tier.
#include "uarch/branch_predictor.hh"
#include "uarch/cache.hh"
#include "uarch/core_params.hh"
#include "uarch/interrupt_unit.hh"
#include "uarch/mcrom.hh"
#include "uarch/ooo_core.hh"
#include "uarch/program.hh"
#include "uarch/uarch_system.hh"
#include "workloads/kernels.hh"

// System tier.
#include "accel/client.hh"
#include "accel/dsa.hh"
#include "des/event_queue.hh"
#include "des/simulation.hh"
#include "des/time.hh"
#include "kv/kvstore.hh"
#include "kv/server.hh"
#include "net/l3fwd.hh"
#include "net/packet.hh"
#include "net/ring.hh"
#include "net/traffic.hh"
#include "os/cost_model.hh"
#include "os/kernel.hh"
#include "os/timer_core.hh"
#include "runtime/runtime.hh"

// Calibration bridge between the tiers.
#include "core/calibration.hh"

// Measurement utilities.
#include "stats/csv.hh"
#include "stats/distributions.hh"
#include "stats/histogram.hh"
#include "stats/rng.hh"
#include "stats/summary.hh"
#include "stats/table.hh"

#endif // XUI_CORE_XUI_HH
