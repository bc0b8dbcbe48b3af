/**
 * @file
 * The benchmark's correctness checks, as pure functions over recorded
 * results so tests can feed them doctored copies.
 *
 * Every check compares the simulator's output against a property or an
 * independent computation, never against a stored copy of an earlier
 * output: cross-point identities of the paper sweep, the functional
 * ISS's step count, the monolithic reference run, and a direct
 * Machine::run of a served job. Each returns the list of violations;
 * empty means the check passed.
 */

#ifndef SIMBENCH_CHECKS_HH
#define SIMBENCH_CHECKS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/cpu.hh"
#include "explore/explore.hh"
#include "sim/iss.hh"

namespace simbench
{

using Errors = std::vector<std::string>;

/**
 * paper_sweep: the 16-point scheme x slots x missPenalty x fetchWords
 * sweep. Every point ran every program without a failure; committed
 * counts agree across both I-cache axes within each (scheme, slots)
 * pair; I-cache misses agree across missPenalty; and raising the miss
 * penalty from 2 to 3 adds exactly one cycle per I-cache miss.
 */
Errors checkPaperSweep(const mipsx::explore::SweepResult &r,
                       unsigned programs);

/** One monolithic run of a self-checking program, with its references. */
struct MonoRecord
{
    std::string name;
    mipsx::core::StopReason reason = mipsx::core::StopReason::Running;
    std::uint64_t committed = 0;
    std::uint64_t cycles = 0;
    /** The program's result word and the generator's expected value. */
    std::uint32_t result = 0;
    std::uint32_t expected = 0;
    /** Delayed-mode block ISS run of the same image. */
    mipsx::sim::IssStop issStop = mipsx::sim::IssStop::Running;
    std::uint64_t issSteps = 0;
};

/**
 * scaled_mono: every program halted through its own self-check, its
 * result word equals the generator's C++-mirror value, and the
 * pipeline's committed count equals the ISS's step count.
 */
Errors checkMono(const std::vector<MonoRecord> &runs);

/** One sampled interval run beside its monolithic reference. */
struct SampledRecord
{
    std::string name;
    bool intervalRan = false;
    std::uint64_t pieces = 0;
    std::uint64_t estCommitted = 0;
    std::uint64_t estCycles = 0;
    std::uint64_t hint = 0; ///< the generator's dynamic size hint
    MonoRecord mono;        ///< the reference (checked by checkMono)
};

/**
 * scaled_sampled: the reference passes checkMono, the engine really
 * split the run, and the estimated committed count is within the size
 * hint's slack (|hint - actual|, plus one rounding step per piece) of
 * the reference's count.
 */
Errors checkSampled(const std::vector<SampledRecord> &runs);

/**
 * Mean over programs of |estimated cycles - monolithic cycles| /
 * monolithic cycles, in percent.
 */
double sampledCycleErrorPct(const std::vector<SampledRecord> &runs);

/** One served job's rendered reply beside a direct run of the same job. */
struct ServeSample
{
    std::string kind;  ///< named | inline | fast_forward
    std::string reply; ///< the full reply line
    std::uint64_t directCycles = 0;
    std::uint64_t directInstructions = 0;
    std::uint64_t directFastForward = 0; ///< ISS steps before the handoff
    bool directHalted = false;
};

/**
 * serve_mix: each sampled reply parses, is ok and passed with stop
 * "halt", and its cycles, instructions and fast-forward steps equal
 * the direct run's.
 */
Errors checkServeSamples(const std::vector<ServeSample> &samples);

} // namespace simbench

#endif // SIMBENCH_CHECKS_HH
