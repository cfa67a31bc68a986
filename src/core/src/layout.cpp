#include "ddr/layout.hpp"

#include <algorithm>
#include <array>
#include <optional>
#include <queue>
#include <set>
#include <sstream>
#include <utility>

namespace ddr {

void for_each_overlap(
    std::span<const Box> boxes,
    const std::function<void(std::size_t, std::size_t)>& visit) {
  // Empty boxes share no element with anything.
  std::vector<std::size_t> order;
  order.reserve(boxes.size());
  for (std::size_t i = 0; i < boxes.size(); ++i)
    if (!boxes[i].empty()) order.push_back(i);
  if (order.size() < 2) return;
  const auto nd = static_cast<std::size_t>(boxes[order.front()].ndims);

  // Sweep along the axis with the most distinct starts, so the fewest boxes
  // are active at once; index the active set on the runner-up (in 1D on the
  // sweep axis itself).
  std::array<std::size_t, kMaxDims> distinct{};
  std::vector<std::int64_t> starts(order.size());
  for (std::size_t k = 0; k < nd; ++k) {
    for (std::size_t n = 0; n < order.size(); ++n)
      starts[n] = boxes[order[n]].lo[k];
    std::sort(starts.begin(), starts.end());
    distinct[k] = static_cast<std::size_t>(
        std::unique(starts.begin(), starts.end()) - starts.begin());
  }
  std::size_t a = 0;
  for (std::size_t k = 1; k < nd; ++k)
    if (distinct[k] > distinct[a]) a = k;
  std::size_t b = a;
  for (std::size_t k = 0; k < nd; ++k)
    if (k != a && (b == a || distinct[k] > distinct[b])) b = k;

  std::sort(order.begin(), order.end(), [&](std::size_t i, std::size_t j) {
    return std::pair(boxes[i].lo[a], i) < std::pair(boxes[j].lo[a], j);
  });
  std::int64_t reach = 0;  // longest extent on the index axis
  for (const std::size_t i : order)
    reach = std::max(reach, boxes[i].hi[b] - boxes[i].lo[b]);

  // Active boxes keyed by (start on the index axis, box); `ends` yields them
  // in order of their end on the sweep axis.
  using Key = std::pair<std::int64_t, std::size_t>;
  std::set<Key> active;
  std::priority_queue<Key, std::vector<Key>, std::greater<>> ends;
  for (const std::size_t j : order) {
    const Box& bj = boxes[j];
    while (!ends.empty() && ends.top().first <= bj.lo[a]) {
      const std::size_t i = ends.top().second;
      active.erase({boxes[i].lo[b], i});
      ends.pop();
    }
    // Every active box spans bj's start on the sweep axis. On the index axis
    // only those starting less than `reach` before bj can get to it.
    for (auto it = active.lower_bound({bj.lo[b] - reach + 1, 0});
         it != active.end() && it->first < bj.hi[b]; ++it) {
      const std::size_t lo = std::min(it->second, j);
      const std::size_t hi = std::max(it->second, j);
      if (overlaps(boxes[lo], boxes[hi])) visit(lo, hi);
    }
    active.insert({bj.lo[b], j});
    ends.push({bj.hi[a], j});
  }
}

LayoutValidation validate_owned(const GlobalLayout& layout) {
  LayoutValidation v;

  // Flatten all owned chunks, rank-major, with their owner for diagnostics.
  std::vector<Box> boxes;
  std::vector<std::pair<int, int>> owner;  // (rank, chunk index) per box
  for (int r = 0; r < layout.nranks(); ++r) {
    const auto& chunks = layout.owned[static_cast<std::size_t>(r)];
    for (std::size_t i = 0; i < chunks.size(); ++i) {
      boxes.push_back(chunks[i].box());
      owner.emplace_back(r, static_cast<int>(i));
    }
  }

  // Mutual exclusivity: no two owned chunks may share an element
  // (paper §III-B: "no two processes should own the same data"). The
  // diagnosis names the first overlapping pair in flattened order, so it
  // does not depend on the order the sweep finds the pairs in.
  std::optional<std::pair<std::size_t, std::size_t>> first;
  for_each_overlap(boxes, [&](std::size_t i, std::size_t j) {
    if (!first || std::pair(i, j) < *first) first.emplace(i, j);
  });
  if (first) {
    const auto [i, j] = *first;
    v.exclusive = false;
    std::ostringstream os;
    os << "owned chunks overlap: rank " << owner[i].first << " chunk "
       << owner[i].second << " " << boxes[i].describe() << " vs rank "
       << owner[j].first << " chunk " << owner[j].second << " "
       << boxes[j].describe();
    v.detail = os.str();
    return v;
  }

  // Completeness: disjoint chunks tile the bounding box exactly iff their
  // volumes sum to the box volume ("collectively the entire data domain
  // should be owned by some process").
  std::int64_t total_volume = 0;
  for (const Box& b : boxes) total_volume += b.volume();
  const Box domain = layout.domain();
  if (total_volume != domain.volume()) {
    v.complete = false;
    std::ostringstream os;
    os << "owned chunks do not cover the domain " << domain.describe()
       << ": covered " << total_volume << " of " << domain.volume()
       << " elements";
    v.detail = os.str();
  }
  return v;
}

}  // namespace ddr
