#include "spans.hh"

#include <atomic>
#include <cstdio>

namespace simbench
{

namespace
{

/** One open span on the current thread. */
struct Open
{
    const Tracer *owner;
    const char *name;
    double startUs;
    double childUs; ///< summed durations of closed children
    long index;     ///< stored index, -1 when past the cap
};

thread_local std::vector<Open> openStack;

unsigned
threadId()
{
    static std::atomic<unsigned> next{0};
    thread_local const unsigned id = next.fetch_add(1);
    return id;
}

} // namespace

Tracer::Tracer(bool enabled, std::size_t maxStored)
    : enabled_(enabled), maxStored_(maxStored), t0_(Clock::now())
{
}

Tracer::Scope::Scope(Tracer *t, const char *name, std::uint64_t op)
    : t_(t)
{
    if (t_)
        t_->open(name, op);
}

Tracer::Scope::~Scope()
{
    if (t_)
        t_->close();
}

void
Tracer::open(const char *name, std::uint64_t op)
{
    const double now =
        std::chrono::duration<double, std::micro>(Clock::now() - t0_)
            .count();
    long parent = -1;
    if (!openStack.empty() && openStack.back().owner == this)
        parent = openStack.back().index;
    long index = -1;
    {
        const std::lock_guard<std::mutex> lock(mu_);
        if (spans_.size() < maxStored_) {
            index = static_cast<long>(spans_.size());
            spans_.push_back({name, now, now, parent, op, threadId()});
        } else {
            ++dropped_;
        }
    }
    openStack.push_back({this, name, now, 0.0, index});
}

void
Tracer::close()
{
    const double now =
        std::chrono::duration<double, std::micro>(Clock::now() - t0_)
            .count();
    const Open o = openStack.back();
    openStack.pop_back();
    const double dur = now - o.startUs;
    if (!openStack.empty() && openStack.back().owner == this)
        openStack.back().childUs += dur;
    const std::lock_guard<std::mutex> lock(mu_);
    if (o.index >= 0)
        spans_[static_cast<std::size_t>(o.index)].endUs = now;
    Agg &a = aggs_[o.name];
    ++a.count;
    a.totalUs += dur;
    a.selfUs += dur - o.childUs;
}

std::map<std::string, Tracer::Agg>
Tracer::aggregate() const
{
    const std::lock_guard<std::mutex> lock(mu_);
    return aggs_;
}

Tracer::Agg
Tracer::agg(const std::string &name) const
{
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = aggs_.find(name);
    return it == aggs_.end() ? Agg{} : it->second;
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const std::lock_guard<std::mutex> lock(mu_);
    std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                     "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                     "\"op\":%llu,\"id\":%zu,\"parent\":%ld}}\n",
                     i ? "," : "", s.name, s.tid, s.startUs,
                     s.endUs - s.startUs,
                     static_cast<unsigned long long>(s.op), i, s.parent);
    }
    std::fprintf(f, "],\"otherData\":{\"dropped_spans\":%llu}}\n",
                 static_cast<unsigned long long>(dropped_));
    return std::fclose(f) == 0;
}

} // namespace simbench
