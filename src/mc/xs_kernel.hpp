// XSBench lookup kernel (paper Fig. 9), the CDF tally extension the paper
// adds to make the benchmark's output physically meaningful (§III-D), and the
// lookup-range loop every mc engine drives.
#pragma once

#include "common/rng.hpp"
#include "mc/tally.hpp"
#include "mc/xs_data.hpp"

namespace adcc::mc {

/// The two randomly sampled inputs of one lookup (Fig. 9 line 2). A pure
/// function of (rng, lookup index): re-executed lookups resample identically,
/// the property the paper's Fig. 10/12 comparison requires.
struct LookupSample {
  double energy;
  int material;
};
LookupSample sample_lookup(const CounterRng& rng, std::uint64_t lookup_index,
                           const XsDataHost& data);

/// Binary search on the unionized grid (Fig. 9 line 3): index of the last
/// unionized energy <= e. `probes`, if non-null, receives each probed index
/// (the instrumented driver replays them as tracked reads).
std::size_t grid_search(const std::vector<double>& unionized, double e,
                        std::vector<std::size_t>* probes = nullptr);

/// Macroscopic lookup for one (energy, material) (Fig. 9 lines 3–7): sums
/// density-weighted interpolated microscopic cross sections over the
/// material's nuclides into out[5].
void macro_lookup(const XsDataHost& data, double e, int material, double out[kChannels]);

/// The paper's tally extension: build the CDF of the accumulated
/// macro_xs_vector, normalize by its last element, and select the interaction
/// type for uniform sample u using the paper's "last element <= u" convention.
int tally_select(const double macro_acc[kChannels], double u);

/// Executes lookups [begin, end) of stream `rng`, accumulating into
/// macro[kChannels] / counters[kChannels] and recording the current lookup in
/// *index. The mc workload adapter (every mode) and its shards drive this one
/// loop, so their per-lookup work is identical by construction.
void run_xs_range(const XsDataHost& data, const CounterRng& rng, std::uint64_t begin,
                  std::uint64_t end, double* macro, std::uint64_t* counters,
                  std::uint64_t* index);

/// The crash-free reference tally: `lookups` lookups of stream `seed`.
Tally run_xs_native(const XsDataHost& data, std::uint64_t lookups, std::uint64_t seed);

}  // namespace adcc::mc
