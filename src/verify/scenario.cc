#include "verify/scenario.hh"

#include <algorithm>
#include <sstream>

namespace xui
{

DeterminismReport
checkDeterminism(const ScenarioConfig &cfg)
{
    DeterminismReport rep;
    ScenarioResult a = runScenario(cfg);
    ScenarioResult b = runScenario(cfg);
    rep.digestA = a.fullDigest;
    rep.digestB = b.fullDigest;
    rep.eventsA = a.eventCount;
    rep.eventsB = b.eventCount;
    rep.ok = a.fullDigest == b.fullDigest &&
        a.eventCount == b.eventCount;
    if (!rep.ok) {
        std::ostringstream os;
        os << "nondeterminism: digests " << std::hex << rep.digestA
           << " vs " << rep.digestB << std::dec << ", events "
           << rep.eventsA << " vs " << rep.eventsB;
        rep.message = os.str();
    }
    return rep;
}

ArchEquivalenceReport
checkArchEquivalence(const ScenarioResult &a, const ScenarioResult &b,
                     std::size_t minPrefix)
{
    ArchEquivalenceReport rep;
    std::size_t prefix = std::min(a.mainPcs.size(), b.mainPcs.size());
    rep.comparedPrefix = prefix;
    if (prefix < minPrefix) {
        std::ostringstream os;
        os << "main-code commit streams too short to compare ("
           << a.mainPcs.size() << " and " << b.mainPcs.size()
           << ", need " << minPrefix << ")";
        rep.message = os.str();
        return rep;
    }
    for (std::size_t i = 0; i < prefix; ++i) {
        if (a.mainPcs[i] != b.mainPcs[i]) {
            std::ostringstream os;
            os << "commit streams diverge at index " << i << ": pc "
               << a.mainPcs[i] << " vs " << b.mainPcs[i];
            rep.message = os.str();
            return rep;
        }
    }
    rep.ok = true;
    return rep;
}

} // namespace xui
