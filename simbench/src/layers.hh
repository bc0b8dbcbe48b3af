/**
 * @file
 * Layer probes for the traced run: the toolchain, the cache models
 * driven alone, and the functional ISS, each timed around calls into
 * the layer's public functions on the workload's own images.
 */

#ifndef SIMBENCH_LAYERS_HH
#define SIMBENCH_LAYERS_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "memory/main_memory.hh"
#include "reorg/scheduler.hh"
#include "sim/machine.hh"
#include "spans.hh"
#include "workload/prepared.hh"

namespace simbench
{

/**
 * Assemble, reorganize and predecode every (program, reorg config)
 * pair directly, under spans assembler.assemble, reorg.reorganize and
 * memory.predecode.
 */
void probeToolchain(
    Tracer &tr,
    const std::vector<std::pair<const mipsx::workload::Workload *,
                                mipsx::reorg::ReorgConfig>> &images,
    std::uint64_t op);

/** Throughput and miss ratio of one cache model driven alone. */
struct CacheProbe
{
    std::uint64_t accesses = 0; ///< per pass over the stream
    double missRatio = 0;       ///< of the first (cold) pass
    double mAccessPerS = 0;     ///< median over passes
};

struct MemoryProbe
{
    CacheProbe icache;
    CacheProbe ecache;
};

/**
 * Record each image's PC stream (Iss::pc before every Iss::step) and
 * data stream (the effective address of every non-coprocessor memory
 * instruction), at most @p maxSteps per image, then replay them through
 * a default ICache::fetch and ECache::access.
 */
MemoryProbe probeMemory(const std::vector<mipsx::workload::PreparedPtr> &images,
                        std::uint64_t maxSteps);

/** A delayed-mode ISS run of one image, as the pipeline would see it. */
struct IssRun
{
    mipsx::sim::IssStop stop = mipsx::sim::IssStop::Running;
    std::uint64_t steps = 0;
    double seconds = 0;
    mipsx::memory::MainMemory memory; ///< the memory after the run
};

/** Run @p image on the ISS in block (or step) mode and time it. */
IssRun runDelayedIss(const mipsx::assembler::Program &image,
                     const mipsx::sim::MachineConfig &mc, bool block);

} // namespace simbench

#endif // SIMBENCH_LAYERS_HH
