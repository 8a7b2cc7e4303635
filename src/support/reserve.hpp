// Geometric capacity growth for append-only pools.
//
// `v.reserve(v.size() + n)` before every bulk append grows the capacity
// to exactly what is needed, so the next append reallocates and copies
// the whole pool again: a pool filled by k appends costs O(k^2) copies.
// reserve_more keeps one up-front reservation per append and still
// grows geometrically, so the copies stay amortized O(1) per element.
#pragma once

#include <algorithm>
#include <cstddef>

namespace mpicp::support {

/// Make room for `n` more elements of `v`: reserve max(size + n,
/// 2 * capacity) when the current capacity is short, else nothing.
template <typename Vec>
void reserve_more(Vec& v, std::size_t n) {
  const std::size_t need = v.size() + n;
  if (need > v.capacity()) v.reserve(std::max(need, 2 * v.capacity()));
}

}  // namespace mpicp::support
