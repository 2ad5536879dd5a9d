#include "spans.hh"

#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

std::int32_t
SpanLog::open(const char *name, std::uint64_t interaction)
{
    Span span;
    span.name = name;
    span.startNs = nowNs();
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.interaction = interaction;
    spans_.push_back(span);
    const auto index = static_cast<std::int32_t>(spans_.size() - 1);
    stack_.push_back(index);
    return index;
}

void
SpanLog::close(std::int32_t index)
{
    if (stack_.empty() || stack_.back() != index)
        throw std::logic_error("SpanLog: spans must close in LIFO order");
    stack_.pop_back();
    spans_[static_cast<std::size_t>(index)].endNs = nowNs();
}

void
SpanLog::add(const char *name, std::int64_t start_ns, std::int64_t end_ns,
             std::uint64_t interaction)
{
    Span span;
    span.name = name;
    span.startNs = start_ns;
    span.endNs = end_ns;
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.interaction = interaction;
    spans_.push_back(span);
}

std::vector<std::int64_t>
selfTimesNs(const std::vector<Span> &spans)
{
    std::vector<std::int64_t> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        self[i] = spans[i].durationNs();
    for (const Span &span : spans)
        if (span.parent >= 0)
            self[static_cast<std::size_t>(span.parent)] -= span.durationNs();
    return self;
}

void
Closure::add(const std::vector<Span> &spans,
             std::string_view interaction_name,
             std::string_view dispatch_name)
{
    const std::vector<std::int64_t> self = selfTimesNs(spans);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (interaction_name == spans[i].name) {
            interactionNs += static_cast<double>(spans[i].durationNs());
            interactionSelfNs += static_cast<double>(self[i]);
        } else if (dispatch_name == spans[i].name) {
            dispatchNs += static_cast<double>(spans[i].durationNs());
        }
    }
}

double
Closure::error() const
{
    if (interactionNs <= 0.0)
        return 0.0;
    return std::fabs(interactionSelfNs + dispatchNs - interactionNs) /
           interactionNs;
}

bool
writeSpans(const std::string &path,
           const std::vector<std::vector<Span>> &logs)
{
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (!out)
        return false;
    for (std::size_t log = 0; log < logs.size(); ++log) {
        for (const Span &span : logs[log]) {
            std::fprintf(out,
                         "{\"log\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                         "\"end_ns\":%lld,\"parent\":%d,"
                         "\"interaction\":%llu}\n",
                         log, span.name,
                         static_cast<long long>(span.startNs),
                         static_cast<long long>(span.endNs), span.parent,
                         static_cast<unsigned long long>(span.interaction));
        }
    }
    return std::fclose(out) == 0;
}

} // namespace perfbench
