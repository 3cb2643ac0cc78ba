/**
 * @file
 * Order statistics used to summarise repeated measurements: the
 * median, the quartiles exactly as Python's
 * statistics.quantiles(data, n=4) computes them (its default
 * "exclusive" method), and the nearest-rank percentile used for
 * simulated latencies.
 */

#ifndef PERFBENCH_QUANTILES_HH
#define PERFBENCH_QUANTILES_HH

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench
{

/** Median of `v` (mean of the middle pair for even sizes); 0 if empty. */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/**
 * First, second and third quartile with Python's exclusive method:
 * m = n + 1, j = i*m/4 clamped to [1, n-1], linear interpolation
 * between the j-th and (j+1)-th order statistics. A single value is
 * its own quartiles; an empty vector gives zeros.
 */
inline std::array<double, 3>
quartiles(std::vector<double> v)
{
    std::array<double, 3> q{};
    if (v.empty())
        return q;
    std::sort(v.begin(), v.end());
    const long n = static_cast<long>(v.size());
    if (n == 1)
        return {v[0], v[0], v[0]};
    const long m = n + 1;
    for (long i = 1; i <= 3; ++i) {
        long j = i * m / 4;
        j = std::clamp(j, 1L, n - 1);
        const long delta = i * m - j * 4;
        q[i - 1] = (v[j - 1] * static_cast<double>(4 - delta) +
                    v[j] * static_cast<double>(delta)) /
                   4.0;
    }
    return q;
}

/** Inter-quartile distance as a share of the median (0 if median 0). */
inline double
iqrShare(const std::vector<double> &v)
{
    const double med = median(v);
    if (med == 0.0)
        return 0.0;
    const std::array<double, 3> q = quartiles(v);
    return (q[2] - q[0]) / med;
}

/**
 * Nearest-rank percentile: the smallest value with at least p% of
 * the samples at or below it. Exact for integer-valued samples.
 * @param p in (0, 100]
 */
inline double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
    const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return v[std::min(idx, v.size() - 1)];
}

} // namespace perfbench

#endif // PERFBENCH_QUANTILES_HH
