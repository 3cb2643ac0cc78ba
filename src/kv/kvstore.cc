#include "kv/kvstore.hh"

namespace xui
{

namespace
{

/**
 * Size of the key space a request addresses. No key is kept, but
 * each request still draws one: the draw advances the stream, and
 * dropping it would move every later op draw.
 */
constexpr std::uint64_t kKeySpace = 10000;

} // namespace

KvLoadGen::KvLoadGen(const KvWorkloadParams &params, double rate_rps,
                     Rng rng)
    : params_(params),
      rateRps_(rate_rps),
      arrivals_(rate_rps / static_cast<double>(kCyclesPerSec),
                rng.split()),
      rng_(rng)
{}

KvRequest
KvLoadGen::next()
{
    KvRequest req;
    req.id = nextId_++;
    req.arrival = arrivals_.nextArrival();
    bool is_get = rng_.nextBool(params_.getFraction);
    req.op = is_get ? KvOp::Get : KvOp::Scan;
    req.serviceTime = is_get ? params_.getServiceTime
                             : params_.scanServiceTime;
    (void)rng_.nextBounded(kKeySpace);
    return req;
}

} // namespace xui
