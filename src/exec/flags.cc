#include "exec/flags.hh"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "ckpt/build_info.hh"
#include "ckpt/snapshot.hh"

namespace xui::exec
{

namespace
{

/** A non-empty all-digit value that fits in 64 bits. */
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

/** The whole text is one finite double. */
bool
parseFiniteDouble(const char *text, double &out)
{
    if (text == nullptr || *text == '\0')
        return false;
    errno = 0;
    char *end = nullptr;
    double x = std::strtod(text, &end);
    if (errno != 0 || end == text || *end != '\0' ||
        !std::isfinite(x))
        return false;
    out = x;
    return true;
}

std::string
got(const char *value)
{
    return std::string(", got '") + value + "'";
}

} // namespace

bool
parseJobs(const char *text, unsigned &jobs)
{
    std::uint64_t v = 0;
    if (!parseU64Strict(text, v) || v == 0 || v > 1024)
        return false;
    jobs = static_cast<unsigned>(v);
    return true;
}

FlagSet &
FlagSet::add(const char *name, const char *metavar, const char *help,
             const char *needs, Apply apply)
{
    flags_.push_back({name, metavar, help, needs, std::move(apply)});
    return *this;
}

FlagSet &
FlagSet::flag(const char *name, const char *help, bool &target)
{
    return add(name, "", help, "", [&target](const char *) {
        target = true;
        return std::string();
    });
}

FlagSet &
FlagSet::text(const char *name, const char *metavar, const char *help,
              std::string &target)
{
    return add(name, metavar, help, "a value",
               [&target](const char *v) {
                   target = v;
                   return std::string();
               });
}

FlagSet &
FlagSet::file(const char *name, const char *help, std::string &target)
{
    return add(name, "FILE", help, "a file", [&target](const char *v) {
        target = v;
        return std::string();
    });
}

FlagSet &
FlagSet::uintImpl(const char *name, const char *metavar,
                  const char *help, std::uint64_t lo, std::uint64_t hi,
                  std::uint64_t typeMax,
                  std::function<void(std::uint64_t)> store)
{
    hi = std::min(hi, typeMax);
    std::string need = std::string(name) + " needs ";
    if (hi < typeMax)
        need += "an integer in [" + std::to_string(lo) + ", " +
                std::to_string(hi) + "]";
    else if (lo == 0)
        need += "a non-negative integer";
    else
        need += "an integer >= " + std::to_string(lo);
    return add(name, metavar, help, "a value",
               [need, lo, hi, store](const char *v) {
                   std::uint64_t x = 0;
                   if (!parseU64Strict(v, x) || x < lo || x > hi)
                       return need + got(v);
                   store(x);
                   return std::string();
               });
}

FlagSet &
FlagSet::positive(const char *name, const char *metavar,
                  const char *help, double &target)
{
    std::string need = std::string(name) + " needs a positive number";
    return add(name, metavar, help, "a value",
               [need, &target](const char *v) {
                   double x = 0.0;
                   if (!parseFiniteDouble(v, x) || !(x > 0.0) ||
                       !(x < 1e12))
                       return need + got(v);
                   target = x;
                   return std::string();
               });
}

FlagSet &
FlagSet::nonNegative(const char *name, const char *metavar,
                     const char *help, double &target)
{
    std::string need =
        std::string(name) + " needs a non-negative number";
    return add(name, metavar, help, "a value",
               [need, &target](const char *v) {
                   double x = 0.0;
                   if (!parseFiniteDouble(v, x) || x < 0.0)
                       return need + got(v);
                   target = x;
                   return std::string();
               });
}

FlagSet &
FlagSet::jobs(unsigned &target)
{
    return add("--jobs", "N",
               "worker threads in [1, 1024] (same results for any N)",
               "a value", [&target](const char *v) {
                   if (!parseJobs(v, target))
                       return "--jobs needs an integer >= 1" + got(v);
                   return std::string();
               });
}

FlagSet &
FlagSet::custom(const char *name, const char *metavar, const char *help,
                Apply apply)
{
    return add(name, metavar, help, "a value", std::move(apply));
}

FlagSet &
FlagSet::positional(const char *metavar, std::string &target)
{
    positionals_.push_back({metavar, &target});
    return *this;
}

std::string
FlagSet::usage(const char *prog) const
{
    std::string out = std::string("usage: ") + prog;
    for (const Positional &p : positionals_)
        out += " " + p.metavar;
    out += " [options]\n";

    std::vector<std::pair<std::string, std::string>> rows;
    for (const Flag &f : flags_)
        rows.emplace_back(f.metavar.empty() ? f.name
                                            : f.name + " " + f.metavar,
                          f.help);
    rows.emplace_back("-h, --help", "print this help and exit");
    rows.emplace_back("--version",
                      "print build provenance and exit");
    // Help column after the longest short entry; a longer entry
    // (a long choice list) puts its help on the next line.
    constexpr std::size_t kMaxWidth = 24;
    std::size_t width = 0;
    for (const auto &r : rows)
        if (r.first.size() <= kMaxWidth)
            width = std::max(width, r.first.size());
    for (const auto &r : rows) {
        out += "  " + r.first;
        if (r.first.size() > width)
            out += "\n" + std::string(width + 4, ' ');
        else
            out += std::string(width + 2 - r.first.size(), ' ');
        out += r.second + "\n";
    }
    return out;
}

void
FlagSet::fail(const char *prog, const std::string &message) const
{
    std::fprintf(stderr, "%s: %s\n", prog, message.c_str());
    std::fputs(usage(prog).c_str(), stderr);
    std::exit(2);
}

void
FlagSet::parse(int argc, char **argv) const
{
    const char *prog = argc > 0 ? argv[0] : "xui";
    std::size_t filled = 0;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "-h" || arg == "--help") {
            std::fputs(usage(prog).c_str(), stdout);
            std::exit(0);
        }
        if (arg == "--version") {
            std::printf("%s %s (%s), snapshot format %u\n", prog,
                        ckpt::kBuildGitSha, ckpt::kBuildType,
                        static_cast<unsigned>(ckpt::kFormatVersion));
            std::exit(0);
        }
        if (arg[0] != '-' && !positionals_.empty()) {
            if (filled == positionals_.size())
                fail(prog, "too many positionals ('" + arg + "')");
            *positionals_[filled++].target = arg;
            continue;
        }
        auto it = std::find_if(flags_.begin(), flags_.end(),
                               [&](const Flag &f) {
                                   return f.name == arg;
                               });
        if (it == flags_.end())
            fail(prog, "unknown argument '" + arg + "'");
        const char *value = "";
        if (!it->metavar.empty()) {
            if (i + 1 >= argc)
                fail(prog, arg + " needs " + it->needs);
            value = argv[++i];
        }
        std::string error = it->apply(value);
        if (!error.empty())
            fail(prog, error);
    }
    if (filled < positionals_.size())
        fail(prog, "missing " + positionals_[filled].metavar);
}

} // namespace xui::exec
