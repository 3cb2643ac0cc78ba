#include "spans.hh"

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <thread>
#include <utility>

#include "obs/json.hh"

namespace perfbench
{

namespace
{

std::int64_t
clockNs(clockid_t id)
{
    timespec ts{};
    clock_gettime(id, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 +
           ts.tv_nsec;
}

/** Open spans of the calling thread, innermost last. */
thread_local std::vector<int> t_open;

/** Small dense thread ids for the trace (0 = first thread seen). */
unsigned
threadTag()
{
    static std::mutex mu;
    static std::map<std::thread::id, unsigned> ids;
    std::lock_guard<std::mutex> lk(mu);
    auto it = ids.find(std::this_thread::get_id());
    if (it != ids.end())
        return it->second;
    const unsigned tag = static_cast<unsigned>(ids.size());
    ids.emplace(std::this_thread::get_id(), tag);
    return tag;
}

/** Total length of the union of [start, end) intervals. */
std::int64_t
unionLength(std::vector<std::pair<std::int64_t, std::int64_t>> iv)
{
    std::sort(iv.begin(), iv.end());
    std::int64_t total = 0;
    std::int64_t cur_s = 0;
    std::int64_t cur_e = 0;
    bool open = false;
    for (const auto &[s, e] : iv) {
        if (!open || s > cur_e) {
            if (open)
                total += cur_e - cur_s;
            cur_s = s;
            cur_e = e;
            open = true;
        } else {
            cur_e = std::max(cur_e, e);
        }
    }
    if (open)
        total += cur_e - cur_s;
    return total;
}

} // namespace

std::int64_t
nowNs()
{
    return clockNs(CLOCK_MONOTONIC);
}

std::int64_t
cpuNs()
{
    return clockNs(CLOCK_PROCESS_CPUTIME_ID);
}

int
SpanLog::begin(const std::string &layer, const std::string &op, int cell,
               int parent)
{
    if (!enabled_)
        return kNoSpan;
    Span s;
    s.layer = layer;
    s.op = op;
    s.cell = cell;
    s.tid = threadTag();
    s.parent = parent == kCurrent
        ? (t_open.empty() ? -1 : t_open.back())
        : parent;
    int idx;
    {
        std::lock_guard<std::mutex> lk(mu_);
        s.startNs = nowNs();
        if (spans_.empty())
            origin_ = s.startNs;
        idx = static_cast<int>(spans_.size());
        spans_.push_back(std::move(s));
    }
    t_open.push_back(idx);
    return idx;
}

void
SpanLog::end(int idx, std::int64_t excluded_ns)
{
    if (idx == kNoSpan)
        return;
    const std::int64_t t = nowNs();
    {
        std::lock_guard<std::mutex> lk(mu_);
        spans_[idx].endNs = t;
        spans_[idx].excludedNs = excluded_ns;
    }
    if (!t_open.empty() && t_open.back() == idx)
        t_open.pop_back();
}

std::vector<Span>
SpanLog::spans() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return spans_;
}

std::size_t
SpanLog::size() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return spans_.size();
}

std::map<std::string, double>
SpanLog::selfNs(std::size_t from) const
{
    return selfTimesNs(spans(), from);
}

std::map<std::string, double>
selfTimesNs(const std::vector<Span> &all, std::size_t from)
{
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
        all.size());
    for (const Span &s : all)
        if (s.parent >= 0)
            kids[s.parent].emplace_back(s.startNs, s.endNs);
    std::map<std::string, double> out;
    for (std::size_t i = from; i < all.size(); ++i) {
        const Span &s = all[i];
        for (auto &[cs, ce] : kids[i]) {
            cs = std::clamp(cs, s.startNs, s.endNs);
            ce = std::clamp(ce, s.startNs, s.endNs);
        }
        const std::int64_t self = std::max<std::int64_t>(
            0, s.endNs - s.startNs - unionLength(kids[i]) - s.excludedNs);
        out["self/" + s.layer] += static_cast<double>(self);
        out["self/" + s.layer + "/" + s.op] += static_cast<double>(self);
    }
    return out;
}

std::string
SpanLog::perfettoJson(const std::vector<std::string> &cell_names,
                      const std::map<std::string, std::string> &metadata) const
{
    const std::vector<Span> all = spans();
    std::string out = "{\"displayTimeUnit\":\"ms\",\"metadata\":{";
    bool first = true;
    for (const auto &[k, v] : metadata) {
        out += first ? "" : ",";
        first = false;
        out += "\"" + xui::jsonEscape(k) + "\":\"" + xui::jsonEscape(v) + "\"";
    }
    out += "},\"traceEvents\":[";
    char buf[256];
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        const std::string cell =
            s.cell >= 0 && static_cast<std::size_t>(s.cell) < cell_names.size()
            ? cell_names[s.cell]
            : "";
        std::snprintf(buf, sizeof(buf),
                      "%s{\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                      "\"ts\":%.3f,\"dur\":%.3f,",
                      i == 0 ? "" : ",", s.tid,
                      static_cast<double>(s.startNs - origin_) / 1e3,
                      static_cast<double>(s.endNs - s.startNs) / 1e3);
        out += buf;
        out += "\"name\":\"" + xui::jsonEscape(s.layer + "." + s.op) +
               "\",\"cat\":\"" + xui::jsonEscape(s.layer) + "\",";
        std::snprintf(buf, sizeof(buf),
                      "\"args\":{\"id\":%zu,\"parent\":%d,"
                      "\"excluded_ns\":%lld,\"cell\":",
                      i, s.parent, static_cast<long long>(s.excludedNs));
        out += buf;
        out += "\"" + xui::jsonEscape(cell) + "\"}}";
    }
    out += "]}\n";
    return out;
}

} // namespace perfbench
