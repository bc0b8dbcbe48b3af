/**
 * @file
 * The benchmark's four workloads and the run that measures one of them.
 *
 * A run sets up (several cold repetitions, reported as their median),
 * then repeats whole operations for the requested time, then checks
 * the outputs outside the timed loop. An untraced run reports the
 * end-to-end metrics; a traced run records spans around every layer
 * call, drives the layers the workload's own loop does not reach on
 * the workload's inputs, and reports the per-layer metrics.
 */

#ifndef SIMBENCH_WORKLOADS_HH
#define SIMBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "checks.hh"

namespace simbench
{

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Where a traced run writes its Chrome trace-event JSON. */
    std::string traceFile;
    /**
     * Perturb one recorded result before the checks run (one cycle or
     * one committed instruction added), to show the checks fire.
     */
    bool doctor = false;
};

struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

struct Report
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    Errors errors;
};

/** paper_sweep, scaled_mono, scaled_sampled, serve_mix. */
const std::vector<std::string> &workloadNames();

/** Set up, measure and check one workload (SimError if unknown). */
Report runBenchmark(const Options &opt);

} // namespace simbench

#endif // SIMBENCH_WORKLOADS_HH
