/**
 * @file
 * Small measurement helpers shared by the benchmark: wall clock, order
 * statistics, the process high-water mark and a seeded generator.
 */

#ifndef SIMBENCH_STATS_UTIL_HH
#define SIMBENCH_STATS_UTIL_HH

#include <chrono>
#include <cstdint>
#include <vector>

namespace simbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Median (mean of the middle two for an even count); 0 when empty. */
double median(std::vector<double> v);

/**
 * Nearest-rank percentile @p q in (0, 1]: the smallest sample with at
 * least q of the samples at or below it. 0 when empty.
 */
double percentile(std::vector<double> v, double q);

/** The process's peak resident set so far, in MB (VmHWM). */
double peakRssMb();

/** splitmix64: the seed expander every workload draws its inputs from. */
class SplitMix
{
  public:
    explicit SplitMix(std::uint64_t seed) : state_(seed) {}

    std::uint64_t
    next()
    {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    /** Uniform in [0, n) (n > 0; the modulo bias is immaterial here). */
    std::uint64_t below(std::uint64_t n) { return next() % n; }

  private:
    std::uint64_t state_;
};

/** Fisher-Yates shuffle driven by @p rng. */
template <typename T>
void
shuffle(std::vector<T> &v, SplitMix &rng)
{
    for (std::size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.below(i)]);
}

} // namespace simbench

#endif // SIMBENCH_STATS_UTIL_HH
