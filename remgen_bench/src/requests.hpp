// Seeded request streams for the two traffic mixes.
//
// cold: best-AP point queries (top 3, one prediction per mapped MAC) at
//   uniformly random continuous positions in the paper's scan volume. No
//   (MAC, position) key repeats, so the result cache never hits and every
//   request pays for model predictions.
// hot: a mix over a few hundred REM lattice positions with Zipf-skewed
//   popularity — same-MAC bursts of single-MAC points (what the server's
//   same-MAC merge coalesces), best-AP points, small batch requests and a
//   few volume slab scans (the REM raster, no model).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "geom/aabb.hpp"
#include "geom/vec3.hpp"
#include "radio/mac_address.hpp"
#include "util/rng.hpp"

namespace bench {

namespace geom = remgen::geom;
namespace radio = remgen::radio;
namespace util = remgen::util;

enum class Mix { Cold, Hot };

/// What streams are drawn from; fixed for one run.
struct MixContext {
  geom::Aabb volume;
  std::vector<radio::MacAddress> macs;  ///< QueryEngine::macs() of the served map.
  std::vector<geom::Vec3> lattice;      ///< Hot positions, most popular first.
};

/// Picks the hot mix's 300 distinct positions: voxel centres of a `voxel_m`
/// lattice over `volume`.
[[nodiscard]] std::vector<geom::Vec3> pick_lattice(const geom::Aabb& volume, double voxel_m,
                                                   util::Rng& rng);

/// `n` JSONL request lines with ids 1, 2, ...
[[nodiscard]] std::vector<std::string> make_requests(Mix mix, const MixContext& context,
                                                     std::size_t n, util::Rng& rng);

/// Best-AP point queries (top 3) at the hot lattice positions: executing them
/// fills the result cache for every (MAC, lattice position) key.
[[nodiscard]] std::vector<std::string> make_warmup(const MixContext& context);

}  // namespace bench
