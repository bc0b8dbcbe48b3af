/**
 * @file
 * simbench — one benchmark run of one workload.
 *
 *     simbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *              [--trace-out <file>]
 *
 * Prints a human-readable summary on stderr and, as the last line of
 * stdout, one JSON object: {"correct", "attempted", "failed",
 * "metrics": {name: {"value", "unit"}}}. Exit status: 0 when every
 * check passed, 1 when one failed, 2 for a bad command line. The
 * environment variable SIMBENCH_DOCTOR=1 perturbs one recorded result
 * before the checks, which must then fail.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/sim_error.hh"
#include "workloads.hh"

namespace
{

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "simbench: %s\nusage: simbench --workload <name> --seed "
                 "<n> --seconds <s> --trace <0|1> [--trace-out <file>]\n"
                 "workloads:",
                 why);
    for (const auto &n : simbench::workloadNames())
        std::fprintf(stderr, " %s", n.c_str());
    std::fprintf(stderr, "\n");
    return 2;
}

bool
parseNumber(const char *s, double &out)
{
    char *end = nullptr;
    out = std::strtod(s, &end);
    return end != s && *end == '\0' && std::isfinite(out);
}

} // namespace

int
main(int argc, char **argv)
{
    simbench::Options opt;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const char *flag = argv[i];
        if (i + 1 >= argc)
            return usage(std::string("missing value for ")
                             .append(flag)
                             .c_str());
        const char *value = argv[++i];
        double v = 0;
        if (!std::strcmp(flag, "--workload")) {
            opt.workload = value;
            haveWorkload = true;
        } else if (!std::strcmp(flag, "--seed")) {
            if (!parseNumber(value, v) || v < 0 || v != std::floor(v))
                return usage("--seed wants a non-negative integer");
            opt.seed = static_cast<std::uint64_t>(v);
        } else if (!std::strcmp(flag, "--seconds")) {
            if (!parseNumber(value, v) || v <= 0 || v > 3600)
                return usage("--seconds wants a number in (0, 3600]");
            opt.seconds = v;
        } else if (!std::strcmp(flag, "--trace")) {
            if (std::strcmp(value, "0") && std::strcmp(value, "1"))
                return usage("--trace wants 0 or 1");
            opt.trace = value[0] == '1';
        } else if (!std::strcmp(flag, "--trace-out")) {
            opt.traceFile = value;
        } else {
            return usage(std::string("unknown flag ").append(flag).c_str());
        }
    }
    if (!haveWorkload)
        return usage("--workload is required");
    bool known = false;
    for (const auto &n : simbench::workloadNames())
        known = known || n == opt.workload;
    if (!known)
        return usage(("unknown workload '" + opt.workload + "'").c_str());
    if (opt.trace && opt.traceFile.empty())
        opt.traceFile = "simbench_trace_" + opt.workload + ".json";
    const char *doctor = std::getenv("SIMBENCH_DOCTOR");
    opt.doctor = doctor && !std::strcmp(doctor, "1");

    simbench::Report rep;
    try {
        rep = simbench::runBenchmark(opt);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "simbench: %s\n", e.what());
        return 1;
    }

    std::fprintf(stderr, "simbench %s seed %llu: %llu ops, %llu failed\n",
                 opt.workload.c_str(),
                 static_cast<unsigned long long>(opt.seed),
                 static_cast<unsigned long long>(rep.attempted),
                 static_cast<unsigned long long>(rep.failed));
    std::string metrics;
    for (const auto &m : rep.metrics) {
        std::fprintf(stderr, "  %-30s %16.6f %s\n", m.name.c_str(), m.value,
                     m.unit.c_str());
        if (!std::isfinite(m.value)) {
            rep.errors.push_back("metric " + m.name + " is not finite");
            continue;
        }
        if (!metrics.empty())
            metrics += ", ";
        metrics += mipsx::strformat("\"%s\": {\"value\": %.17g, "
                                    "\"unit\": \"%s\"}",
                                    m.name.c_str(), m.value, m.unit.c_str());
    }
    for (const auto &e : rep.errors)
        std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
    rep.correct = rep.errors.empty();
    if (opt.trace)
        std::fprintf(stderr, "spans written to %s\n", opt.traceFile.c_str());

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                rep.correct ? "true" : "false",
                static_cast<unsigned long long>(rep.attempted),
                static_cast<unsigned long long>(rep.failed),
                metrics.c_str());
    std::fflush(stdout);
    return rep.correct && rep.failed == 0 ? 0 : 1;
}
