#include "obs/perfdiff.hh"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "exec/flags.hh"
#include "obs/json_parse.hh"

namespace xui
{

bool
matchGlob(const std::string &pattern, const std::string &str)
{
    // Iterative '*' matcher with single-star backtracking.
    std::size_t p = 0, s = 0;
    std::size_t star = std::string::npos, mark = 0;
    while (s < str.size()) {
        if (p < pattern.size() &&
            (pattern[p] == str[s])) {
            ++p;
            ++s;
        } else if (p < pattern.size() && pattern[p] == '*') {
            star = p++;
            mark = s;
        } else if (star != std::string::npos) {
            p = star + 1;
            s = ++mark;
        } else {
            return false;
        }
    }
    while (p < pattern.size() && pattern[p] == '*')
        ++p;
    return p == pattern.size();
}

bool
parseTolRule(const std::string &arg, TolRule &out)
{
    std::size_t eq = arg.rfind('=');
    if (eq == std::string::npos || eq == 0 ||
        eq + 1 == arg.size())
        return false;
    TolRule rule;
    rule.pattern = arg.substr(0, eq);
    std::string spec = arg.substr(eq + 1);
    if (spec == "skip") {
        rule.skip = true;
        out = rule;
        return true;
    }
    const char *v = spec.c_str();
    if (*v == '+') {
        rule.direction = 1;
        ++v;
    } else if (*v == '-') {
        rule.direction = -1;
        ++v;
    }
    errno = 0;
    char *end = nullptr;
    double pct = std::strtod(v, &end);
    if (errno != 0 || end == v || *end != '\0' ||
        !std::isfinite(pct) || pct < 0.0)
        return false;
    rule.pct = pct;
    out = rule;
    return true;
}

namespace
{

/** First matching rule, or a synthetic default-tolerance rule. */
TolRule
ruleFor(const std::string &path, const PerfDiffOptions &opts)
{
    for (const TolRule &rule : opts.rules)
        if (matchGlob(rule.pattern, path))
            return rule;
    TolRule def;
    def.pct = opts.defaultTolPct;
    return def;
}

} // namespace

PerfDiffResult
perfDiff(const std::map<std::string, double> &base,
         const std::map<std::string, double> &cur,
         const PerfDiffOptions &opts)
{
    PerfDiffResult result;
    for (const auto &[path, b] : base) {
        TolRule rule = ruleFor(path, opts);
        if (rule.skip) {
            ++result.skipped;
            continue;
        }
        auto it = cur.find(path);
        if (it == cur.end()) {
            PerfDiffResult::Line line;
            line.path = path;
            line.baseline = b;
            line.missing = true;
            result.regressions.push_back(line);
            continue;
        }
        ++result.compared;
        double c = it->second;
        double delta = c - b;
        if (delta == 0.0)
            continue;
        // Deviation relative to |baseline|; a nonzero delta off a
        // zero baseline is an unbounded deviation (fails every
        // finite tolerance in its direction).
        double pct = b != 0.0
                         ? delta / std::fabs(b) * 100.0
                         : (delta > 0.0 ? HUGE_VAL : -HUGE_VAL);
        bool fails;
        if (rule.direction > 0)
            fails = pct > rule.pct;
        else if (rule.direction < 0)
            fails = pct < -rule.pct;
        else
            fails = std::fabs(pct) > rule.pct;
        if (fails) {
            PerfDiffResult::Line line;
            line.path = path;
            line.baseline = b;
            line.current = c;
            line.deltaPct = pct;
            result.regressions.push_back(line);
        }
    }
    return result;
}

int
perfdiffMain(int argc, char **argv)
{
    std::string basePath, curPath;
    PerfDiffOptions opts;
    bool list = false;
    exec::FlagSet flags;
    flags.positional("BASELINE.json", basePath)
        .positional("CURRENT.json", curPath)
        .nonNegative("--tol", "PCT",
                     "default tolerance in percent (default 0 = exact)",
                     opts.defaultTolPct)
        .custom("--rule", "PATTERN=SPEC",
                "per-metric tolerance, SPEC = PCT|+PCT|-PCT|skip "
                "(first match wins)",
                [&opts](const char *v) {
                    TolRule rule;
                    if (!parseTolRule(v, rule))
                        return std::string("malformed --rule '") + v +
                               "' (expected PATTERN=PCT|+PCT|-PCT|"
                               "skip)";
                    opts.rules.push_back(rule);
                    return std::string();
                })
        .flag("--list", "print every compared metric", list);
    flags.parse(argc, argv);
    const char *prog = argv[0];

    JsonValue baseDoc, curDoc;
    std::string error;
    if (!jsonParseFile(basePath, baseDoc, error)) {
        std::fprintf(stderr, "%s: baseline: %s\n", prog,
                     error.c_str());
        return 2;
    }
    if (!jsonParseFile(curPath, curDoc, error)) {
        std::fprintf(stderr, "%s: current: %s\n", prog,
                     error.c_str());
        return 2;
    }

    std::map<std::string, double> base, cur;
    flattenNumbers(baseDoc, "", base);
    flattenNumbers(curDoc, "", cur);

    PerfDiffResult result = perfDiff(base, cur, opts);

    if (list) {
        for (const auto &[path, b] : base) {
            auto it = cur.find(path);
            std::printf("  %-56s %14g -> %s\n", path.c_str(), b,
                        it == cur.end()
                            ? "(missing)"
                            : std::to_string(it->second).c_str());
        }
    }
    for (const auto &line : result.regressions) {
        if (line.missing) {
            std::printf("REGRESSION %-56s %14g -> (missing)\n",
                        line.path.c_str(), line.baseline);
        } else {
            std::printf(
                "REGRESSION %-56s %14g -> %-14g (%+.2f%%)\n",
                line.path.c_str(), line.baseline, line.current,
                line.deltaPct);
        }
    }
    std::printf("perfdiff: %zu compared, %zu skipped, %zu "
                "regression(s)  [%s vs %s]\n",
                result.compared, result.skipped,
                result.regressions.size(), basePath.c_str(),
                curPath.c_str());
    return result.ok() ? 0 : 1;
}

} // namespace xui
