#include "core/steering_cache.hpp"

#include <stdexcept>

#include "linalg/simd_kernels.hpp"
#include "rf/array.hpp"

namespace dwatch::core {

SteeringManifold::SteeringManifold(std::size_t elements, double spacing,
                                   double lambda, std::size_t grid_points)
    : spacing_(spacing), lambda_(lambda) {
  if (elements == 0 || grid_points < 2) {
    throw std::invalid_argument("SteeringManifold: bad dimensions");
  }
  if (spacing <= 0.0 || lambda <= 0.0) {
    throw std::invalid_argument("SteeringManifold: bad spacing/lambda");
  }
  soa_ = linalg::SplitComplexMatrix(elements, grid_points);
  for (std::size_t i = 0; i < grid_points; ++i) {
    const linalg::CVector a =
        rf::steering_vector(elements, theta_at(i), spacing, lambda);
    for (std::size_t m = 0; m < elements; ++m) soa_.set(m, i, a[m]);
  }
  column_norms_ = linalg::simd::column_squared_norms(soa_);
}

SteeringCache& SteeringCache::instance() {
  static SteeringCache cache;
  return cache;
}

std::shared_ptr<const SteeringManifold> SteeringCache::get(
    std::size_t elements, double spacing, double lambda,
    std::size_t grid_points) {
  const Key key{elements, spacing, lambda, grid_points};
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = manifolds_.find(key);
    if (it != manifolds_.end()) return it->second;
  }
  // Build outside the lock: construction is the expensive part and two
  // threads racing to build the same manifold is harmless (both results
  // are identical; the loser's copy is discarded).
  auto built = std::make_shared<const SteeringManifold>(elements, spacing,
                                                        lambda, grid_points);
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto [it, inserted] = manifolds_.try_emplace(key, std::move(built));
  return it->second;
}

std::size_t SteeringCache::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return manifolds_.size();
}

void SteeringCache::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  manifolds_.clear();
}

}  // namespace dwatch::core
