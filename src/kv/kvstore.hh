/**
 * @file
 * The paper's RocksDB workload (§5.3): 99.5% GET at 1.2 us, 0.5% SCAN
 * at 580 us, arriving open loop at a configured offered load.
 *
 * The store is modelled, not executed: each request carries the
 * paper's measured RocksDB service time, which is all the scheduling
 * experiments consume.
 */

#ifndef XUI_KV_KVSTORE_HH
#define XUI_KV_KVSTORE_HH

#include <cstdint>

#include "des/time.hh"
#include "stats/distributions.hh"
#include "stats/rng.hh"

namespace xui
{

/** Request types in the bimodal workload. */
enum class KvOp : std::uint8_t
{
    Get,
    Scan,
};

/** One client request. */
struct KvRequest
{
    std::uint64_t id = 0;
    KvOp op = KvOp::Get;
    /** Arrival time at the server. */
    Cycles arrival = 0;
    /** Service demand in cycles (drawn at generation time). */
    Cycles serviceTime = 0;
};

/** Workload parameters (paper defaults). */
struct KvWorkloadParams
{
    double getFraction = 0.995;
    Cycles getServiceTime = usToCycles(1.2);
    Cycles scanServiceTime = usToCycles(580);
};

/**
 * Open-loop request generator: Poisson arrivals at a configured
 * offered load, bimodal op mix (Caladan-style load generator over
 * UDP, §5.3).
 */
class KvLoadGen
{
  public:
    /**
     * @param params workload definition
     * @param rate_rps offered load in requests/second
     * @param rng private stream
     */
    KvLoadGen(const KvWorkloadParams &params, double rate_rps,
              Rng rng);

    /** Generate the next request (arrival times increase). */
    KvRequest next();

    double rateRps() const { return rateRps_; }

  private:
    KvWorkloadParams params_;
    double rateRps_;
    PoissonProcess arrivals_;
    Rng rng_;
    std::uint64_t nextId_ = 1;
};

} // namespace xui

#endif // XUI_KV_KVSTORE_HH
