#include "stats_util.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <string>

namespace simbench
{

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const auto rank =
        static_cast<std::size_t>(std::ceil(q * double(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double
peakRssMb()
{
    // VmHWM belongs to this process image: getrusage's ru_maxrss would
    // also carry the high-water mark of a parent that forked and exec'd
    // us (run.py's Python interpreter).
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0;
}

} // namespace simbench
