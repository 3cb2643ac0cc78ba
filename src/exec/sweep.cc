#include "exec/sweep.hh"

#include <cerrno>
#include <cstdlib>
#include <thread>

namespace xui::exec
{

unsigned
hardwareJobs()
{
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

unsigned
effectiveJobs(unsigned requested)
{
    return requested == 0 ? hardwareJobs() : requested;
}

bool
parseU64Strict(const char *text, std::uint64_t &out)
{
    if (text == nullptr || *text == '\0')
        return false;
    std::uint64_t v = 0;
    for (const char *p = text; *p != '\0'; ++p) {
        if (*p < '0' || *p > '9')
            return false;
        std::uint64_t d = static_cast<std::uint64_t>(*p - '0');
        if (v > (~std::uint64_t(0) - d) / 10)
            return false;
        v = v * 10 + d;
    }
    out = v;
    return true;
}

bool
parsePositiveDouble(const char *text, double &out)
{
    if (text == nullptr || *text == '\0')
        return false;
    errno = 0;
    char *end = nullptr;
    double x = std::strtod(text, &end);
    if (errno != 0 || end == text || *end != '\0' || !(x > 0.0) ||
        !(x < 1e12))
        return false;
    out = x;
    return true;
}

bool
parseJobs(const char *text, unsigned &jobs)
{
    std::uint64_t v = 0;
    if (!parseU64Strict(text, v) || v == 0 || v > 1024)
        return false;
    jobs = static_cast<unsigned>(v);
    return true;
}

} // namespace xui::exec
