/**
 * @file
 * In-memory span recorder for the traced run.
 *
 * A span is (name, start, end, parent, op id), recorded around one call
 * into a simulator layer. Spans nest per thread: a span opened while
 * another is open on the same thread is its child. Self time is a
 * span's duration minus its children's, aggregated per name as the
 * spans close, so the per-layer figures cover every span even when the
 * stored list (written out as Chrome trace-event JSON) is capped.
 */

#ifndef SIMBENCH_SPANS_HH
#define SIMBENCH_SPANS_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "stats_util.hh"

namespace simbench
{

class Tracer
{
  public:
    /** Per-name totals over every closed span. */
    struct Agg
    {
        std::uint64_t count = 0;
        double totalUs = 0;
        double selfUs = 0;
    };

    /** A disabled tracer records nothing and costs one branch a span. */
    explicit Tracer(bool enabled, std::size_t maxStored = 200000);

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    bool enabled() const { return enabled_; }

    /** RAII span: opens on construction, closes on destruction. */
    class Scope
    {
      public:
        Scope(Tracer *t, const char *name, std::uint64_t op);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer *t_;
    };

    /** Open a span around the caller's scope (no-op when disabled). */
    Scope
    span(const char *name, std::uint64_t op = 0)
    {
        return Scope(enabled_ ? this : nullptr, name, op);
    }

    std::map<std::string, Agg> aggregate() const;
    /** The totals for @p name (zero when no such span closed). */
    Agg agg(const std::string &name) const;

    /** Write the stored spans as Chrome trace-event JSON. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    struct Span
    {
        const char *name = nullptr;
        double startUs = 0;
        double endUs = 0;
        long parent = -1; ///< index into spans_, -1 for a root
        std::uint64_t op = 0;
        unsigned tid = 0;
    };

    void open(const char *name, std::uint64_t op);
    void close();

    bool enabled_;
    std::size_t maxStored_;
    Clock::time_point t0_;
    mutable std::mutex mu_; // guards everything below
    std::vector<Span> spans_;
    std::uint64_t dropped_ = 0;
    std::map<std::string, Agg> aggs_;
};

} // namespace simbench

#endif // SIMBENCH_SPANS_HH
