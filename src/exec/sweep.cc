#include "exec/sweep.hh"

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

} // namespace xui::exec
