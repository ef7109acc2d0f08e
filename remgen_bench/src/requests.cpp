#include "requests.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <tuple>

#include "geom/grid3.hpp"
#include "obs/json.hpp"

namespace bench {

namespace {

using remgen::obs::Json;

constexpr std::int64_t kTop = 3;

// The hot mix. No recorded query workload exists for this system, so these
// numbers are assumptions, chosen only to give the mix its intended shape:
// mostly single-MAC points arriving in same-MAC bursts, some best-AP points,
// small batches and a few volume scans, over skewed position popularity.
// The run reports what they produce (cache hit share, merged share), so a
// decision that rests on the mix can see the property it depends on.
constexpr std::size_t kLatticePositions = 300;
constexpr double kZipfExponent = 1.1;
constexpr double kBurstShare = 0.60;    ///< Events that are same-MAC point bursts...
constexpr std::size_t kBurstMin = 4;    ///< ...of kBurstMin..kBurstMax points.
constexpr std::size_t kBurstMax = 8;
constexpr double kBestApShare = 0.25;   ///< Events that are one best-AP point.
constexpr double kBatchShare = 0.12;    ///< Events that are one batch request...
constexpr std::size_t kBatchPoints = 8;  ///< ...of this many points; the rest are volume scans.
constexpr double kSlabM = 0.5;          ///< Volume scans: slab height...
constexpr double kThresholdDbm = -80.0;  ///< ...and coverage threshold.

Json::Array xyz(const geom::Vec3& p) {
  Json::Array a;
  a.reserve(3);
  for (const double c : {p.x, p.y, p.z}) a.emplace_back(c);
  return a;
}

std::string point(std::int64_t id, const geom::Vec3& p, const radio::MacAddress* mac) {
  Json::Object o;
  o["id"] = Json(id);
  o["type"] = Json("point");
  o["x"] = Json(p.x);
  o["y"] = Json(p.y);
  o["z"] = Json(p.z);
  if (mac != nullptr) {
    o["mac"] = Json(mac->to_string());
  } else {
    o["top"] = Json(kTop);
  }
  return Json(std::move(o)).dump();
}

/// Zipf-distributed index into the lattice (rank 0 most popular).
class Zipf {
 public:
  explicit Zipf(std::size_t n) : cdf_(n) {
    double sum = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      sum += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
      cdf_[r] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  std::size_t operator()(util::Rng& rng) const {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.uniform01());
    return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

}  // namespace

std::vector<geom::Vec3> pick_lattice(const geom::Aabb& volume, double voxel_m, util::Rng& rng) {
  const geom::GridGeometry g = geom::GridGeometry::with_resolution(volume, voxel_m);
  const std::size_t count = std::min(kLatticePositions, g.nx() * g.ny() * g.nz());
  std::set<std::tuple<std::size_t, std::size_t, std::size_t>> seen;
  std::vector<geom::Vec3> out;
  while (out.size() < count) {
    const geom::VoxelIndex v{rng.index(g.nx()), rng.index(g.ny()), rng.index(g.nz())};
    if (seen.insert({v.ix, v.iy, v.iz}).second) out.push_back(g.voxel_center(v));
  }
  return out;
}

std::vector<std::string> make_requests(Mix mix, const MixContext& context, std::size_t n,
                                       util::Rng& rng) {
  std::vector<std::string> out;
  out.reserve(n);
  std::int64_t id = 1;
  const geom::Aabb& v = context.volume;
  if (mix == Mix::Cold) {
    while (out.size() < n) {
      const geom::Vec3 p{rng.uniform(v.min.x, v.max.x), rng.uniform(v.min.y, v.max.y),
                         rng.uniform(v.min.z, v.max.z)};
      out.push_back(point(id++, p, nullptr));
    }
    return out;
  }

  const Zipf zipf(context.lattice.size());
  const auto hot_point = [&] { return context.lattice[zipf(rng)]; };
  while (out.size() < n) {
    const double u = rng.uniform01();
    if (u < kBurstShare) {  // A burst of single-MAC points naming one MAC.
      const radio::MacAddress& mac = context.macs[rng.index(context.macs.size())];
      const std::size_t burst = kBurstMin + rng.index(kBurstMax - kBurstMin + 1);
      for (std::size_t j = 0; j < burst && out.size() < n; ++j) {
        out.push_back(point(id++, hot_point(), &mac));
      }
    } else if (u < kBurstShare + kBestApShare) {
      out.push_back(point(id++, hot_point(), nullptr));
    } else if (u < kBurstShare + kBestApShare + kBatchShare) {
      Json::Array points;
      for (std::size_t j = 0; j < kBatchPoints; ++j) points.push_back(Json(xyz(hot_point())));
      Json::Object o;
      o["id"] = Json(id++);
      o["type"] = Json("batch");
      o["mac"] = Json(context.macs[rng.index(context.macs.size())].to_string());
      o["points"] = Json(std::move(points));
      out.push_back(Json(std::move(o)).dump());
    } else {
      const double z_lo = rng.uniform(v.min.z, v.max.z - kSlabM);
      Json::Object o;
      o["id"] = Json(id++);
      o["type"] = Json("volume");
      o["z_lo"] = Json(z_lo);
      o["z_hi"] = Json(z_lo + kSlabM);
      o["threshold_dbm"] = Json(kThresholdDbm);
      out.push_back(Json(std::move(o)).dump());
    }
  }
  return out;
}

std::vector<std::string> make_warmup(const MixContext& context) {
  std::vector<std::string> out;
  std::int64_t id = 1;
  for (const geom::Vec3& p : context.lattice) out.push_back(point(id++, p, nullptr));
  return out;
}

}  // namespace bench
