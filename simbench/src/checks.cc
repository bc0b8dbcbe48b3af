#include "checks.hh"

#include <cmath>
#include <map>
#include <tuple>

#include "common/sim_error.hh"
#include "explore/json.hh"

namespace simbench
{

using mipsx::strformat;

namespace
{

std::string
binding(const mipsx::explore::SweepPointResult &p, const char *param)
{
    const std::string *v = p.point.valueOf(param);
    return v ? *v : std::string();
}

std::uint64_t
absDiff(std::uint64_t a, std::uint64_t b)
{
    return a > b ? a - b : b - a;
}

} // namespace

Errors
checkPaperSweep(const mipsx::explore::SweepResult &r, unsigned programs)
{
    Errors errs;
    if (r.points.size() != 16)
        errs.push_back(strformat("sweep has %zu points, want 16",
                                 r.points.size()));
    using PairKey = std::tuple<std::string, std::string>;
    using FetchKey = std::tuple<std::string, std::string, std::string>;
    std::map<PairKey, std::uint64_t> committed;
    std::map<FetchKey, std::uint64_t> misses;
    std::map<FetchKey, std::map<std::string, std::uint64_t>> cycles;
    for (const auto &p : r.points) {
        const std::string scheme = binding(p, "branch.scheme");
        const std::string slots = binding(p, "branch.slots");
        const std::string penalty = binding(p, "icache.missPenalty");
        const std::string fetch = binding(p, "icache.fetchWords");
        const std::string where =
            strformat("point %zu (%s, slots %s, penalty %s, fetch %s)",
                      p.index, scheme.c_str(), slots.c_str(),
                      penalty.c_str(), fetch.c_str());
        if (!p.failures.empty() || p.stats.failures ||
            p.stats.workloads != programs)
            errs.push_back(strformat("%s: %u of %u programs ran, %u "
                                     "failed",
                                     where.c_str(), p.stats.workloads,
                                     programs, p.stats.failures));
        const auto [c, fresh] =
            committed.try_emplace({scheme, slots}, p.stats.committed);
        if (!fresh && c->second != p.stats.committed)
            errs.push_back(strformat(
                "%s: committed %llu differs from %llu at another "
                "I-cache setting",
                where.c_str(),
                static_cast<unsigned long long>(p.stats.committed),
                static_cast<unsigned long long>(c->second)));
        const FetchKey fk{scheme, slots, fetch};
        const auto [m, mfresh] =
            misses.try_emplace(fk, p.stats.icacheMisses);
        if (!mfresh && m->second != p.stats.icacheMisses)
            errs.push_back(strformat(
                "%s: I-cache misses %llu differ from %llu at another "
                "miss penalty",
                where.c_str(),
                static_cast<unsigned long long>(p.stats.icacheMisses),
                static_cast<unsigned long long>(m->second)));
        cycles[fk][penalty] = p.stats.cycles;
    }
    if (cycles.size() != 8)
        errs.push_back(strformat("sweep has %zu (scheme, slots, fetch) "
                                 "groups, want 8",
                                 cycles.size()));
    for (const auto &[fk, byPenalty] : cycles) {
        const auto p2 = byPenalty.find("2");
        const auto p3 = byPenalty.find("3");
        const std::string where = strformat(
            "(%s, slots %s, fetch %s)", std::get<0>(fk).c_str(),
            std::get<1>(fk).c_str(), std::get<2>(fk).c_str());
        if (p2 == byPenalty.end() || p3 == byPenalty.end()) {
            errs.push_back(where + ": missing a miss-penalty point");
            continue;
        }
        const std::uint64_t want = misses[fk];
        if (p3->second < p2->second || p3->second - p2->second != want)
            errs.push_back(strformat(
                "%s: cycles(penalty 3) - cycles(penalty 2) = %lld, "
                "want the I-cache miss count %llu",
                where.c_str(),
                static_cast<long long>(p3->second - p2->second),
                static_cast<unsigned long long>(want)));
    }
    return errs;
}

Errors
checkMono(const std::vector<MonoRecord> &runs)
{
    Errors errs;
    if (runs.empty())
        errs.push_back("no monolithic runs recorded");
    for (const auto &r : runs) {
        const char *n = r.name.c_str();
        if (r.reason != mipsx::core::StopReason::Halt)
            errs.push_back(strformat("%s: stopped with %s, not halt", n,
                                     mipsx::core::stopReasonName(r.reason)));
        if (r.result != r.expected)
            errs.push_back(strformat("%s: result word 0x%08x, generator "
                                     "expects 0x%08x",
                                     n, r.result, r.expected));
        if (r.issStop != mipsx::sim::IssStop::Halt)
            errs.push_back(strformat("%s: reference ISS did not halt", n));
        if (r.committed != r.issSteps)
            errs.push_back(strformat(
                "%s: committed %llu, ISS executed %llu", n,
                static_cast<unsigned long long>(r.committed),
                static_cast<unsigned long long>(r.issSteps)));
    }
    return errs;
}

Errors
checkSampled(const std::vector<SampledRecord> &runs)
{
    std::vector<MonoRecord> refs;
    for (const auto &r : runs)
        refs.push_back(r.mono);
    Errors errs = checkMono(refs);
    for (const auto &r : runs) {
        const char *n = r.name.c_str();
        if (!r.intervalRan || r.pieces < 2)
            errs.push_back(strformat("%s: the run was not split (%llu "
                                     "piece(s))",
                                     n, static_cast<unsigned long long>(
                                            r.pieces)));
        const std::uint64_t slack =
            absDiff(r.hint, r.mono.committed) + r.pieces;
        const std::uint64_t off = absDiff(r.estCommitted, r.mono.committed);
        if (off > slack)
            errs.push_back(strformat(
                "%s: estimated committed %llu is %llu from the "
                "reference %llu, beyond the hint's slack %llu",
                n, static_cast<unsigned long long>(r.estCommitted),
                static_cast<unsigned long long>(off),
                static_cast<unsigned long long>(r.mono.committed),
                static_cast<unsigned long long>(slack)));
        if (r.estCycles == 0)
            errs.push_back(strformat("%s: no estimated cycles", n));
    }
    return errs;
}

double
sampledCycleErrorPct(const std::vector<SampledRecord> &runs)
{
    if (runs.empty())
        return 0;
    double sum = 0;
    for (const auto &r : runs) {
        const double mono = double(r.mono.cycles);
        sum += mono > 0
            ? std::fabs(double(r.estCycles) - mono) / mono
            : 1.0;
    }
    return 100.0 * sum / double(runs.size());
}

namespace
{

/** A non-negative integer field of @p obj, or -1 when absent/invalid. */
long double
intField(const mipsx::explore::Json &obj, const char *key)
{
    const auto *v = obj.find(key);
    if (!v || v->kind() != mipsx::explore::Json::Kind::Number)
        return -1;
    return v->number();
}

} // namespace

Errors
checkServeSamples(const std::vector<ServeSample> &samples)
{
    using mipsx::explore::Json;
    Errors errs;
    if (samples.empty())
        errs.push_back("no serve samples recorded");
    for (std::size_t i = 0; i < samples.size(); ++i) {
        const ServeSample &s = samples[i];
        const std::string where =
            strformat("sample %zu (%s)", i, s.kind.c_str());
        Json doc;
        try {
            doc = Json::parse(s.reply);
        } catch (const std::exception &e) {
            errs.push_back(where + ": reply does not parse: " + e.what());
            continue;
        }
        const Json *ok = doc.find("ok");
        const Json *result = doc.find("result");
        if (!ok || ok->kind() != Json::Kind::Bool || !ok->boolean() ||
            !result || !result->isObject()) {
            errs.push_back(where + ": reply is not ok");
            continue;
        }
        const Json *passed = result->find("passed");
        if (!passed || passed->kind() != Json::Kind::Bool ||
            !passed->boolean())
            errs.push_back(where + ": reply did not pass");
        const Json *stop = result->find("stop");
        if (!stop || stop->kind() != Json::Kind::String ||
            stop->str() != "halt")
            errs.push_back(where + ": reply stop is not halt");
        if (!s.directHalted)
            errs.push_back(where + ": the direct run did not halt");
        const auto expect = [&](const char *key, std::uint64_t want) {
            const long double got = intField(*result, key);
            if (got != static_cast<long double>(want))
                errs.push_back(strformat(
                    "%s: reply %s %.0Lf, direct run %llu", where.c_str(),
                    key, got, static_cast<unsigned long long>(want)));
        };
        expect("cycles", s.directCycles);
        expect("instructions", s.directInstructions);
        if (s.directFastForward)
            expect("fast_forward_steps", s.directFastForward);
        else if (result->find("fast_forward_steps"))
            errs.push_back(where + ": unexpected fast_forward_steps");
    }
    return errs;
}

} // namespace simbench
