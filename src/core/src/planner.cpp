#include "ddr/planner.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

#include "ddr/mapping.hpp"

namespace ddr {

namespace {

// --- software-regime cost constants ------------------------------------------
// Used when no NetworkModel is installed (the wall-clock bench regime):
// calibrated against BENCH_redistribute.json on the reference host so the
// argmin over candidates reproduces the measured winners (the fused-lane
// executor over the paper's per-round alltoallw on every bench case).
// Absolute values matter less than ratios — the planner compares candidates,
// it does not forecast wall time.

/// Post + match + drain cost of one mailbox message.
constexpr double kMsgOverheadS = 1.5e-6;
/// Pack + mailbox copy + unpack cost per payload byte.
constexpr double kByteCostS = 4.0e-10;
/// Extra type-walk cost of one fused lane that stitches two or more round
/// pieces (deeper plan than the per-round subarrays it replaces).
constexpr double kLaneStitchS = 4.0e-7;
/// Per-peer-per-round loop cost of the dense alltoallw walk.
constexpr double kRoundSyncS = 3.0e-7;
/// One hop of the dissemination barrier closing a budgeted wave.
constexpr double kBarrierHopS = 1.5e-6;
/// Fraction of the smaller of pack/unpack byte cost the pipeline hides
/// behind the receive window.
constexpr double kPipelineOverlap = 0.5;
/// Zero-copy intra-node lanes still pay one copy_regions pass.
constexpr double kIntraByteCostS = 2.0e-10;

/// Per-(sender, receiver) aggregation of the exchange, plus per-rank and
/// per-round totals — everything the candidate costs are computed from.
struct Aggregates {
  int nranks = 0;
  int rounds = 0;
  std::vector<ExchangeLane> lanes;    ///< non-self, (sender, receiver) order
  std::vector<bool> lane_inter;       ///< parallel to lanes
  std::vector<std::int64_t> lane_pieces;  ///< round pieces per lane
  std::int64_t self_bytes = 0;
  std::int64_t inter_bytes = 0;
  std::int64_t intra_bytes = 0;
  std::int64_t pieces = 0;            ///< non-self (round, pair) transfers
  std::int64_t max_inter_lane_bytes = 0;
  std::vector<std::int64_t> round_bytes;  ///< non-self bytes per round
  // Per-rank splits (index: comm rank).
  std::vector<std::int64_t> lanes_in;
  std::vector<std::int64_t> self_bytes_rank;
};

int to_world(int comm_rank, const std::vector<int>* world_ranks) {
  return world_ranks != nullptr
             ? (*world_ranks)[static_cast<std::size_t>(comm_rank)]
             : comm_rank;
}

Aggregates aggregate(const GlobalLayout& layout, std::size_t elem_size,
                     const mpi::NetworkModel* net,
                     const std::vector<int>* world_ranks) {
  Aggregates a;
  a.nranks = static_cast<int>(layout.owned.size());
  for (const OwnedLayout& o : layout.owned)
    a.rounds = std::max(a.rounds, static_cast<int>(o.size()));
  const auto p = static_cast<std::size_t>(a.nranks);
  a.round_bytes.assign(static_cast<std::size_t>(a.rounds), 0);
  a.lanes_in.assign(p, 0);
  a.self_bytes_rank.assign(p, 0);

  auto node_of = [&](int rank) {
    if (net == nullptr) return rank;  // every rank its own node
    return net->node_of(to_world(rank, world_ranks));
  };

  std::map<std::pair<int, int>, std::pair<std::int64_t, std::int64_t>> pair_agg;
  for (const Transfer& t : enumerate_transfers(layout, elem_size)) {
    if (t.sender == t.receiver) {
      a.self_bytes += t.bytes;
      a.self_bytes_rank[static_cast<std::size_t>(t.sender)] += t.bytes;
      continue;
    }
    auto& [bytes, pieces] = pair_agg[{t.sender, t.receiver}];
    bytes += t.bytes;
    ++pieces;
    a.round_bytes[static_cast<std::size_t>(t.round)] += t.bytes;
  }

  for (const auto& [key, agg] : pair_agg) {
    const auto [s, r] = key;
    const auto [bytes, pieces] = agg;
    const bool intra = net != nullptr && node_of(s) == node_of(r);
    a.lanes.push_back({s, r, bytes, 0});
    a.lane_inter.push_back(!intra);
    a.lane_pieces.push_back(pieces);
    a.pieces += pieces;
    ++a.lanes_in[static_cast<std::size_t>(r)];
    if (intra) {
      a.intra_bytes += bytes;
    } else {
      a.inter_bytes += bytes;
      a.max_inter_lane_bytes = std::max(a.max_inter_lane_bytes, bytes);
    }
  }
  return a;
}

/// Cost of one message between comm ranks under the active regime.
struct Pricer {
  const mpi::NetworkModel* net;
  const std::vector<int>* world_ranks;

  [[nodiscard]] double send_side(std::int64_t bytes) const {
    if (net != nullptr)
      return net->send_overhead(static_cast<std::size_t>(bytes));
    return kMsgOverheadS + static_cast<double>(bytes) * kByteCostS;
  }
  [[nodiscard]] double recv_side(std::int64_t bytes, int src, int dst) const {
    if (net != nullptr)
      return net->transfer_time(static_cast<std::size_t>(bytes),
                                to_world(src, world_ranks),
                                to_world(dst, world_ranks)) +
             net->recv_overhead(static_cast<std::size_t>(bytes));
    return kMsgOverheadS + static_cast<double>(bytes) * kByteCostS;
  }
};

double max_of(const std::vector<double>& v) {
  double m = 0.0;
  for (const double x : v) m = std::max(m, x);
  return m;
}

CollectiveShape detect_shape(const GlobalLayout& layout,
                             const Aggregates& a) {
  if (a.lanes.empty()) return CollectiveShape::none;
  // Broadcast shape: every rank declared the identical needed chunk set, so
  // each sender's packed lane stream is identical for every receiver and the
  // exchange is an allgather.
  bool identical_needs = layout.needed.size() >= 2;
  const NeededLayout& first = layout.needed.front();
  for (const NeededLayout& n : layout.needed) {
    if (n.size() != first.size()) {
      identical_needs = false;
      break;
    }
    for (std::size_t i = 0; i < n.size(); ++i)
      if (!(n[i] == first[i])) {
        identical_needs = false;
        break;
      }
    if (!identical_needs) break;
  }
  if (identical_needs) return CollectiveShape::allgather;
  int sender = a.lanes.front().sender;
  int receiver = a.lanes.front().receiver;
  bool one_sender = true;
  bool one_receiver = true;
  for (const ExchangeLane& l : a.lanes) {
    one_sender = one_sender && l.sender == sender;
    one_receiver = one_receiver && l.receiver == receiver;
  }
  if (one_sender) return CollectiveShape::scatter;
  if (one_receiver) return CollectiveShape::gather;
  return CollectiveShape::none;
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
  std::map<std::pair<int, int>, std::int64_t> pair_bytes;
  for (const Transfer& t : enumerate_transfers(layout, elem_size)) {
    if (t.sender == t.receiver) continue;
    if (net != nullptr && net->node_of(to_world(t.sender, world_ranks)) ==
                              net->node_of(to_world(t.receiver, world_ranks)))
      continue;
    pair_bytes[{t.sender, t.receiver}] += t.bytes;
  }
  std::vector<ExchangeLane> lanes;
  lanes.reserve(pair_bytes.size());
  for (const auto& [key, bytes] : pair_bytes)
    lanes.push_back({key.first, key.second, bytes, 0});
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
  const Aggregates a = aggregate(layout, elem_size, net, world_ranks);
  const Pricer price{net, world_ranks};
  const auto p = static_cast<std::size_t>(a.nranks);

  PlanDecision d;
  d.shape = detect_shape(layout, a);

  // Wave schedule of the fused-lane executor's inter-node lanes under the
  // budget (also reported when another backend wins, so --plan can show the
  // budget's effect). Intra lanes move zero-copy and never compete for it.
  std::vector<ExchangeLane> inter_lanes;
  std::int64_t intra_lane_count = 0;
  for (std::size_t i = 0; i < a.lanes.size(); ++i) {
    if (a.lane_inter[i])
      inter_lanes.push_back(a.lanes[i]);
    else
      ++intra_lane_count;
  }
  const auto inter_lane_count = static_cast<std::int64_t>(inter_lanes.size());
  d.waves = assign_waves(inter_lanes, peak_staging_bytes);
  d.post_all = a.max_inter_lane_bytes < kPostAllLaneBytes;
  std::int64_t max_wave_bytes = 0;
  {
    std::vector<std::int64_t> per_wave(static_cast<std::size_t>(d.waves), 0);
    for (const ExchangeLane& l : inter_lanes)
      per_wave[static_cast<std::size_t>(l.wave)] += l.bytes;
    for (const std::int64_t b : per_wave)
      max_wave_bytes = std::max(max_wave_bytes, b);
  }

  // Per-rank cost of the plain per-(round, pair) schedule alltoallw moves.
  std::vector<double> plain(p, 0.0);
  std::vector<double> fused_fixed(p, 0.0), intra_cost(p, 0.0);
  std::vector<double> fused_bytes_out(p, 0.0), fused_bytes_in(p, 0.0);
  for (std::size_t i = 0; i < a.lanes.size(); ++i) {
    const ExchangeLane& l = a.lanes[i];
    const auto si = static_cast<std::size_t>(l.sender);
    const auto ri = static_cast<std::size_t>(l.receiver);
    if (a.lane_inter[i]) {
      // Only a lane that stitches two or more round pieces walks a deeper
      // type than the per-round subarray it replaces.
      const double stitch = a.lane_pieces[i] >= 2 ? kLaneStitchS : 0.0;
      fused_fixed[si] += price.send_side(0) + stitch;
      fused_fixed[ri] += stitch;
      fused_bytes_out[si] += price.send_side(l.bytes) - price.send_side(0);
      fused_bytes_in[ri] += price.recv_side(l.bytes, l.sender, l.receiver);
    } else {
      // Zero-copy intra-node lane: two control messages and one
      // copy_regions pass, no packed payload.
      const double ctrl = price.send_side(0) + price.recv_side(0, l.sender,
                                                               l.receiver);
      intra_cost[si] += ctrl;
      intra_cost[ri] += ctrl + static_cast<double>(l.bytes) * kIntraByteCostS;
    }
  }
  // Plain pieces: every (round, pair) transfer is its own message. Under a
  // NetworkModel, `walked` keeps the empty-message price of each piece's
  // step of the dense walk, which the piece's own price already covers.
  std::vector<double> walked(p, 0.0);
  for (const Transfer& t : enumerate_transfers(layout, elem_size)) {
    if (t.sender == t.receiver) continue;
    const auto si = static_cast<std::size_t>(t.sender);
    const auto ri = static_cast<std::size_t>(t.receiver);
    plain[si] += price.send_side(t.bytes);
    plain[ri] += price.recv_side(t.bytes, t.sender, t.receiver);
    if (net != nullptr) {
      walked[si] += price.send_side(0);
      walked[ri] += price.recv_side(0, t.sender, t.receiver);
    }
  }

  auto add_candidate = [&](Backend b, double predicted, std::int64_t msgs,
                           std::size_t peak) {
    CandidateCost c;
    c.backend = b;
    c.predicted_s = predicted;
    c.messages = msgs;
    c.inter_node_bytes = a.inter_bytes;
    c.intra_node_bytes = a.intra_bytes;
    c.self_bytes = a.self_bytes;
    c.predicted_peak_staging = peak;
    // The fused-lane executor's waves honor any budget down to the one-lane
    // floor, so it stays the always-feasible fallback.
    if (peak_staging_bytes != 0 && peak > peak_staging_bytes &&
        b != Backend::point_to_point_pipelined)
      c.infeasible_reason = "over budget";
    c.feasible = *c.infeasible_reason == '\0';
    d.candidates.push_back(c);
  };

  // alltoallw: dense per-round pairwise walk on top of the plain pieces —
  // a calibrated loop cost per peer and round in the software regime; under
  // a NetworkModel the empty message the walk exchanges with every peer in
  // every round the pieces leave out, which the model's clocks charge.
  {
    std::vector<double> cost = plain;
    for (std::size_t r = 0; r < p; ++r) {
      if (net == nullptr) {
        cost[r] += static_cast<double>(a.rounds) *
                   static_cast<double>(a.nranks) * kRoundSyncS;
        continue;
      }
      double step = 0.0;
      for (int q = 0; q < a.nranks; ++q)
        if (static_cast<std::size_t>(q) != r)
          step += price.send_side(0) +
                  price.recv_side(0, q, static_cast<int>(r));
      cost[r] += static_cast<double>(a.rounds) * step - walked[r];
    }
    std::int64_t peak = 0;
    for (const std::int64_t b : a.round_bytes) peak = std::max(peak, b);
    add_candidate(Backend::alltoallw, max_of(cost), a.pieces,
                  static_cast<std::size_t>(peak));
  }
  // pipelined (the fused-lane executor): one message per inter-node lane,
  // a pointer publish + ack per intra-node lane, minus the pack/unpack
  // overlap the pipeline's receive window hides. Small lanes complete
  // post-all, with no overlap to credit, so the credit needs the pipeline.
  // It is also gated on fusion actually collapsing messages (pieces >
  // lanes): in a single-round exchange the fused lane set IS the per-round
  // message set and measured medians show no overlap gain (bcast3d). Under
  // a budget each wave of inter lanes is closed by a barrier, and the peak
  // is the largest wave instead of every inter lane at once.
  std::vector<double> inter_cost(p, 0.0);
  {
    for (std::size_t r = 0; r < p; ++r)
      inter_cost[r] = fused_fixed[r] + fused_bytes_out[r] + fused_bytes_in[r];
    if (!d.post_all && a.pieces > static_cast<std::int64_t>(a.lanes.size()))
      for (std::size_t r = 0; r < p; ++r)
        if (a.lanes_in[r] >= 2)
          inter_cost[r] -= kPipelineOverlap *
                           std::min(fused_bytes_out[r], fused_bytes_in[r]);
    std::int64_t staged = a.inter_bytes;
    if (peak_staging_bytes != 0) {
      const double fence =
          static_cast<double>(d.waves) *
          (std::ceil(std::log2(std::max(2, a.nranks))) * 2.0 * kBarrierHopS);
      for (double& x : inter_cost) x += fence;
      staged = max_wave_bytes;
    }
    std::vector<double> cost(p, 0.0);
    for (std::size_t r = 0; r < p; ++r) cost[r] = intra_cost[r] + inter_cost[r];
    const std::int64_t peak =
        staged +
        intra_lane_count * static_cast<std::int64_t>(sizeof(std::uintptr_t));
    add_candidate(Backend::point_to_point_pipelined, max_of(cost),
                  inter_lane_count + 2 * intra_lane_count,
                  static_cast<std::size_t>(peak));
  }

  // The per-peer-class partition with the lowering the fused-lane executor
  // gives each class — global aggregates only, so identical on every rank.
  {
    std::int64_t self_lanes = 0;
    double self_cost = 0.0;
    for (std::size_t r = 0; r < p; ++r) {
      if (a.self_bytes_rank[r] > 0) ++self_lanes;
      self_cost = std::max(
          self_cost, static_cast<double>(a.self_bytes_rank[r]) *
                         kIntraByteCostS);
    }
    d.class_plans = {
        {LaneClass::self, self_lanes, a.self_bytes, self_cost,
         "copy_regions"},
        {LaneClass::intra, intra_lane_count, a.intra_bytes,
         max_of(intra_cost), "ptr_publish"},
        {LaneClass::inter, inter_lane_count, a.inter_bytes,
         max_of(inter_cost),
         peak_staging_bytes != 0 ? "fenced_waves"
         : d.post_all           ? "post_all"
                                : "pipelined"},
    };
  }

  // Selection: among budget-feasible candidates, the smallest predicted
  // cost wins; ties (within 0.1%) go to the earlier entry of the preference
  // order.
  const Backend preference[] = {Backend::point_to_point_pipelined,
                                Backend::alltoallw};
  const CandidateCost* best = nullptr;
  for (const Backend b : preference) {
    for (const CandidateCost& c : d.candidates) {
      if (c.backend != b || !c.feasible) continue;
      if (best == nullptr || c.predicted_s < best->predicted_s * 0.999)
        best = &c;
    }
  }
  d.backend = best->backend;
  d.predicted_s = best->predicted_s;
  d.predicted_peak_staging = best->predicted_peak_staging;
  return d;
}

}  // namespace ddr
