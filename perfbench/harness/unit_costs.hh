/**
 * @file
 * Per-call costs of each layer's public kernel, measured in the
 * traced run on inputs generated from the workload seed. These are
 * costs of one call, never shares of a run.
 */

#ifndef PERFBENCH_UNIT_COSTS_HH
#define PERFBENCH_UNIT_COSTS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct UnitCost
{
    std::string name;
    std::string unit;
    double value = 0.0; ///< Median over repeated calls.
};

/** Render+hash, expected set, FLock touch, RSA, AES, codec, store. */
std::vector<UnitCost> measureUnitCosts(std::uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_UNIT_COSTS_HH
