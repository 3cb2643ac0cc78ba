#include "net/traffic.hh"

#include <unordered_set>

#include "stats/distributions.hh"

namespace xui
{

namespace
{

/**
 * Distinct /24s that may hold routes longer than /24. A DIR-24-8
 * table expands each such /24 into one 256-entry tbl8 group, and the
 * route set is drawn for a table of 512 groups.
 */
constexpr std::size_t kTbl8Groups = 512;

} // namespace

std::vector<RouteSpec>
randomRoutes(std::size_t count, Rng &rng)
{
    std::vector<RouteSpec> routes;
    routes.reserve(count);
    // Real route tables have unique prefixes; duplicates would also
    // make longest-prefix results order-dependent.
    std::unordered_set<std::uint64_t> seen;
    std::unordered_set<std::uint32_t> deep_slash24s;
    while (routes.size() < count) {
        RouteSpec r;
        // Depth mix biased toward /16../24 like Internet tables,
        // plus a slice of >/24 routes.
        std::uint64_t roll = rng.nextBounded(100);
        if (roll < 10)
            r.depth = static_cast<unsigned>(8 + rng.nextBounded(8));
        else if (roll < 90)
            r.depth = static_cast<unsigned>(16 + rng.nextBounded(9));
        else
            r.depth = static_cast<unsigned>(25 + rng.nextBounded(4));
        r.prefix = static_cast<std::uint32_t>(rng.next());
        std::uint32_t mask = r.depth == 32
            ? 0xffffffffu
            : ~(0xffffffffu >> r.depth);
        r.prefix &= mask;
        r.nextHop = static_cast<std::uint16_t>(rng.nextBounded(256));
        std::uint64_t key =
            (static_cast<std::uint64_t>(r.prefix) << 6) | r.depth;
        if (!seen.insert(key).second)
            continue;
        if (r.depth > 24) {
            // A deep route shares its /24's group or needs a new
            // one; once all groups are taken the draw is discarded.
            std::uint32_t slash24 = r.prefix >> 8;
            if (deep_slash24s.size() >= kTbl8Groups &&
                !deep_slash24s.contains(slash24))
                continue;
            deep_slash24s.insert(slash24);
        }
        routes.push_back(r);
    }
    return routes;
}

std::uint32_t
randomCoveredIp(const std::vector<RouteSpec> &routes, Rng &rng)
{
    const RouteSpec &r =
        routes[rng.nextBounded(routes.size())];
    std::uint32_t host_bits = r.depth == 32
        ? 0
        : static_cast<std::uint32_t>(rng.next()) &
            (0xffffffffu >> r.depth);
    return r.prefix | host_bits;
}

std::vector<std::vector<Cycles>>
drawArrivals(const std::vector<RouteSpec> &routes, unsigned nics,
             double rate_per_nic, Cycles duration, Rng &rng)
{
    std::vector<std::vector<Cycles>> arrivals(nics);
    for (std::vector<Cycles> &times : arrivals) {
        PoissonProcess proc(rate_per_nic, rng.split());
        for (Cycles at = proc.nextArrival(); at < duration;
             at = proc.nextArrival()) {
            (void)randomCoveredIp(routes, rng);
            (void)rng.next();
            times.push_back(at);
        }
    }
    return arrivals;
}

} // namespace xui
