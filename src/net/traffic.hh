/**
 * @file
 * Route-list and traffic generation for l3fwd: 16,000 random
 * prefixes standing in for the route table, and packet destination
 * addresses drawn from those prefixes, with exponential
 * inter-arrival times (§5.4: "we modified the packet generator to
 * use an exponential distribution ... to more accurately model the
 * burstiness of real network traffic"). The route lookup itself is
 * modelled as a fixed per-packet cost, not executed.
 */

#ifndef XUI_NET_TRAFFIC_HH
#define XUI_NET_TRAFFIC_HH

#include <cstdint>
#include <vector>

#include "stats/rng.hh"

namespace xui
{

/** One generated route (for addressing traffic at it). */
struct RouteSpec
{
    std::uint32_t prefix;
    unsigned depth;
    std::uint16_t nextHop;
};

/**
 * Draw `count` random routes (mixed depths 8..28, deduplicated
 * against exact repeats). Routes longer than /24 fit the capacity of
 * a DIR-24-8 table (DPDK's librte_lpm, as in the paper's l3fwd): a
 * draw that would need a 513th extended /24 is discarded.
 * @return the accepted routes, in draw order.
 */
std::vector<RouteSpec> randomRoutes(std::size_t count, Rng &rng);

/** Pick a destination IP covered by one of the routes. */
std::uint32_t randomCoveredIp(const std::vector<RouteSpec> &routes,
                              Rng &rng);

} // namespace xui

#endif // XUI_NET_TRAFFIC_HH
