#include "ddr/planner.hpp"

#include <algorithm>

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

Plan Planner::decide(const std::vector<ExchangeLane>& lanes,
                     const mpi::NetworkModel* net,
                     std::size_t peak_staging_bytes,
                     const std::vector<int>* world_ranks) {
  Plan p;
  std::int64_t largest = 0;
  for (const ExchangeLane& l : lanes) {
    if (net != nullptr && net->node_of(to_world(l.sender, world_ranks)) ==
                              net->node_of(to_world(l.receiver, world_ranks)))
      continue;
    p.inter_lanes.push_back(l);
    largest = std::max(largest, l.bytes);
  }
  p.decision.post_all = largest < kPostAllLaneBytes;
  p.decision.waves = assign_waves(p.inter_lanes, peak_staging_bytes);
  return p;
}

}  // namespace ddr
