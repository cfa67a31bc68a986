#include "ddr/planner.hpp"

#include <algorithm>

#include "ddr/mapping.hpp"

namespace ddr {

namespace {

int to_world(int comm_rank, const std::vector<int>* world_ranks) {
  return world_ranks != nullptr
             ? (*world_ranks)[static_cast<std::size_t>(comm_rank)]
             : comm_rank;
}

}  // namespace

const char* backend_name(Backend b) {
  switch (b) {
    case Backend::alltoallw:
      return "alltoallw";
    case Backend::point_to_point_pipelined:
      return "point_to_point_pipelined";
    case Backend::automatic:
      return "automatic";
  }
  return "unknown";
}

std::vector<ExchangeLane> inter_node_lanes(
    const GlobalLayout& layout, std::size_t elem_size,
    const mpi::NetworkModel* net, const std::vector<int>* world_ranks) {
  std::vector<ExchangeLane> lanes;
  for (int s = 0; s < layout.nranks(); ++s)
    for (int r = 0; r < layout.nranks(); ++r) {
      if (s == r) continue;
      if (net != nullptr && net->node_of(to_world(s, world_ranks)) ==
                                net->node_of(to_world(r, world_ranks)))
        continue;
      std::int64_t bytes = 0;
      for_each_transfer(layout, s, r, elem_size,
                        [&](const Transfer& t) { bytes += t.bytes; });
      if (bytes > 0) lanes.push_back({s, r, bytes, 0});
    }
  return lanes;
}

int assign_waves(std::vector<ExchangeLane>& lanes,
                 std::size_t peak_staging_bytes) {
  if (lanes.empty()) return 1;
  if (peak_staging_bytes == 0) {
    for (ExchangeLane& l : lanes) l.wave = 0;
    return 1;
  }
  std::int64_t largest = 0;
  for (const ExchangeLane& l : lanes) largest = std::max(largest, l.bytes);
  // The budget is floored at the largest lane: a lane is packed as one
  // payload, so no schedule can push the peak below it.
  const std::int64_t eff =
      std::max(largest, static_cast<std::int64_t>(peak_staging_bytes));
  int wave = 0;
  std::int64_t acc = 0;
  for (ExchangeLane& l : lanes) {
    if (acc > 0 && acc + l.bytes > eff) {
      ++wave;
      acc = 0;
    }
    l.wave = wave;
    acc += l.bytes;
  }
  return wave + 1;
}

PlanDecision Planner::decide(const GlobalLayout& layout, std::size_t elem_size,
                             const mpi::NetworkModel* net,
                             std::size_t peak_staging_bytes,
                             const std::vector<int>* world_ranks) {
  std::vector<ExchangeLane> lanes =
      inter_node_lanes(layout, elem_size, net, world_ranks);
  std::int64_t largest = 0;
  for (const ExchangeLane& l : lanes) largest = std::max(largest, l.bytes);
  PlanDecision d;
  d.post_all = largest < kPostAllLaneBytes;
  d.waves = assign_waves(lanes, peak_staging_bytes);
  return d;
}

}  // namespace ddr
