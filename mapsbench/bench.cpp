#include "bench.hpp"

#include <cstdio>
#include <fstream>

#include "service/json.hpp"

namespace mapsbench {

Digest &
Digest::add(const maps::metrics::Registry::Export &ex)
{
    for (const auto &c : ex.counters)
        add(c.name).add(c.total);
    for (const auto &h : ex.histograms) {
        add(h.name).add(h.totalCount);
        for (const auto b : h.warmupBuckets)
            add(b);
        for (const auto b : h.measureBuckets)
            add(b);
    }
    return *this;
}

std::string
Digest::hex() const
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
}

void
SpanLog::append(const SpanLog &other)
{
    const int base = static_cast<int>(spans_.size());
    for (Span s : other.spans_) {
        if (s.parent >= 0)
            s.parent += base;
        spans_.push_back(std::move(s));
    }
}

bool
writeTrace(const std::string &path, const std::string &workload,
           const SpanLog &log, std::uint64_t dropped)
{
    using maps::service::Json;
    std::ofstream os(path);
    if (!os)
        return false;
    const auto &spans = log.spans();
    const std::int64_t epoch = spans.empty() ? 0 : spans.front().startNs;
    // One chrome://tracing thread row per operation.
    std::map<std::string, int> tids;
    char num[64];
    os << "{\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        const int tid =
            tids.emplace(s.op, static_cast<int>(tids.size()) + 1)
                .first->second;
        os << (i ? ",\n" : "") << "{\"name\":"
           << Json::escape(s.name) << ",\"ph\":\"X\",\"pid\":1,\"tid\":"
           << tid;
        std::snprintf(num, sizeof num, ",\"ts\":%.3f,\"dur\":%.3f",
                      static_cast<double>(s.startNs - epoch) / 1e3,
                      static_cast<double>(s.endNs - s.startNs) / 1e3);
        os << num << ",\"args\":{\"id\":" << i << ",\"parent\":"
           << s.parent << ",\"op\":" << Json::escape(s.op);
        for (const auto &[k, v] : s.args) {
            std::snprintf(num, sizeof num, "%.17g", v);
            os << "," << Json::escape(k) << ":" << num;
        }
        os << "}}";
    }
    os << "],\n\"displayTimeUnit\":\"ms\",\n\"otherData\":{"
       << "\"schema\":\"maps-trace-v1\",\"workload\":"
       << Json::escape(workload) << ",\"spans\":" << spans.size()
       << ",\"dropped_spans\":" << dropped << "}}\n";
    return static_cast<bool>(os);
}

} // namespace mapsbench
