#include "ddr/layout.hpp"

#include <algorithm>
#include <array>
#include <optional>
#include <sstream>
#include <tuple>
#include <utility>

namespace ddr {

void for_each_overlap(
    std::span<const Box> boxes,
    const std::function<void(std::size_t, std::size_t)>& visit) {
  // Empty boxes share no element with anything.
  std::size_t n = 0;
  Box domain;
  for (const Box& b : boxes) {
    if (b.empty()) continue;
    domain = n++ == 0 ? b : bounding_box(domain, b);
  }
  if (n < 2) return;
  const auto nd = static_cast<std::size_t>(domain.ndims);

  // Sweep along the axis the boxes stack in the most layers, so the fewest
  // boxes are active at once; index the active set on the runner-up (in 1D
  // on the sweep axis itself). The layer count on an axis is the domain's
  // extent there over the boxes' mean extent — on a grid, exactly its
  // number of distinct starts.
  std::array<double, kMaxDims> summed{};
  for (const Box& b : boxes)
    if (!b.empty())
      for (std::size_t k = 0; k < nd; ++k)
        summed[k] += static_cast<double>(b.hi[k] - b.lo[k]);
  std::array<double, kMaxDims> layers{};
  for (std::size_t k = 0; k < nd; ++k)
    layers[k] = static_cast<double>(domain.hi[k] - domain.lo[k]) *
                static_cast<double>(n) / summed[k];
  std::size_t a = 0;
  for (std::size_t k = 1; k < nd; ++k)
    if (layers[k] > layers[a]) a = k;
  std::size_t b = a;
  for (std::size_t k = 0; k < nd; ++k)
    if (k != a && (b == a || layers[k] > layers[b])) b = k;

  // One sort of flat keys: by start on the sweep axis, then on the index
  // axis. `reach` is the longest extent on the index axis.
  struct Key {
    std::int64_t lo_a, lo_b;
    std::size_t box;
  };
  std::vector<Key> keys;
  keys.reserve(n);
  std::int64_t reach = 0;
  for (std::size_t i = 0; i < boxes.size(); ++i) {
    const Box& bi = boxes[i];
    if (bi.empty()) continue;
    keys.push_back({bi.lo[a], bi.lo[b], i});
    reach = std::max(reach, bi.hi[b] - bi.lo[b]);
  }
  std::sort(keys.begin(), keys.end(), [](const Key& x, const Key& y) {
    return std::tie(x.lo_a, x.lo_b, x.box) < std::tie(y.lo_a, y.lo_b, y.box);
  });

  auto test = [&](std::size_t i, std::size_t j) {
    const std::size_t lo = std::min(i, j);
    const std::size_t hi = std::max(i, j);
    if (overlaps(boxes[lo], boxes[hi])) visit(lo, hi);
  };

  // The boxes that started on the sweep axis before the current group and
  // have not ended there, sorted by their start on the index axis.
  struct Active {
    std::int64_t lo_b, hi_a;
    std::size_t box;
  };
  std::vector<Active> active;
  active.reserve(n);
  for (std::size_t g = 0; g < keys.size();) {
    // The group: every box that starts where keys[g] does on the sweep axis.
    const std::int64_t start = keys[g].lo_a;
    std::size_t end = g + 1;
    while (end < keys.size() && keys[end].lo_a == start) ++end;
    std::erase_if(active, [start](const Active& x) { return x.hi_a <= start; });
    for (std::size_t k = g; k < end; ++k) {
      const std::size_t j = keys[k].box;
      const std::int64_t lo_b = keys[k].lo_b;
      const std::int64_t hi_b = boxes[j].hi[b];
      // Every active box spans this group's start on the sweep axis. On the
      // index axis only those starting less than `reach` before box j can
      // get to it.
      auto it = std::partition_point(
          active.begin(), active.end(),
          [&](const Active& x) { return x.lo_b <= lo_b - reach; });
      for (; it != active.end() && it->lo_b < hi_b; ++it) test(it->box, j);
      // Earlier members of the group share box j's start on the sweep axis
      // and start no later on the index axis.
      for (std::size_t e = k; e-- > g && lo_b - keys[e].lo_b < reach;)
        test(keys[e].box, j);
    }
    // Add the group, already sorted on the index axis.
    const auto mid = static_cast<std::ptrdiff_t>(active.size());
    for (std::size_t k = g; k < end; ++k)
      active.push_back({keys[k].lo_b, boxes[keys[k].box].hi[a], keys[k].box});
    std::inplace_merge(
        active.begin(), active.begin() + mid, active.end(),
        [](const Active& x, const Active& y) { return x.lo_b < y.lo_b; });
    g = end;
  }
}

LayoutValidation validate_owned(const GlobalLayout& layout) {
  LayoutValidation v;

  // Flatten all owned chunks, rank-major, with their owner for diagnostics.
  std::size_t nboxes = 0;
  for (const auto& chunks : layout.owned) nboxes += chunks.size();
  std::vector<Box> boxes;
  std::vector<std::pair<int, int>> owner;  // (rank, chunk index) per box
  boxes.reserve(nboxes);
  owner.reserve(nboxes);
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
