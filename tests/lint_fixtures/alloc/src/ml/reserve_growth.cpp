// Fixture: exact growth reserves inside loops (R9 d) and the geometric
// reserve_more helper, which counts as a reservation.
#include <algorithm>
#include <cstddef>
#include <vector>

namespace support {
template <typename Vec>
void reserve_more(Vec& v, std::size_t n) {
  const std::size_t need = v.size() + n;
  if (need > v.capacity()) v.reserve(std::max(need, 2 * v.capacity()));
}
}  // namespace support

void quadratic(std::vector<int>& pool, std::vector<int>* out,
               const std::vector<std::vector<int>>& parts) {
  for (const std::vector<int>& part : parts) {
    pool.reserve(pool.size() + part.size());
    out->reserve(part.size() + out->size());
    pool.insert(pool.end(), part.begin(), part.end());
  }
}

void geometric(std::vector<int>& nodes, std::vector<int>& flat,
               const std::vector<std::vector<int>>& parts) {
  for (const std::vector<int>& part : parts) {
    support::reserve_more(nodes, part.size());
    for (const int v : part) nodes.push_back(v);
    flat.reserve(part.size());  // not growth: sized by the part alone
  }
}
