#pragma once

/// \file mapping.hpp
/// The data mapping (paper §III-B): one geometric join of every owned chunk
/// against every needed chunk (for_each_transfer), lowered into the fused
/// per-peer lanes the point-to-point executor moves, into per-round
/// alltoallw plans (§III-C), and folded into the communication-schedule
/// statistics that Table III of the paper reports.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ddr/layout.hpp"
#include "minimpi/datatype.hpp"

namespace ddr {

/// One transfer: the overlap region between an owned chunk and a needed
/// chunk, described from both ends.
struct Transfer {
  int round = 0;         ///< owned-chunk index on the sending side
  int sender = -1;       ///< rank that owns the data
  int receiver = -1;     ///< rank that needs the data
  int needed_index = 0;  ///< which needed chunk of the receiver is served
  Box region;            ///< global-domain coordinates of the overlap
  std::int64_t bytes = 0;
};

/// The overlap join: calls fn(const Transfer&) for every non-empty overlap
/// of rank `sender`'s owned chunks with rank `receiver`'s needed chunks, in
/// (round, needed-index) order — the packing order of every lane built from
/// it, at both ends, so their byte streams match by construction.
template <typename Fn>
void for_each_transfer(const GlobalLayout& layout, int sender, int receiver,
                       std::size_t elem_size, Fn&& fn) {
  const OwnedLayout& owned = layout.owned[static_cast<std::size_t>(sender)];
  const NeededLayout& needed =
      layout.needed[static_cast<std::size_t>(receiver)];
  Transfer t;
  t.sender = sender;
  t.receiver = receiver;
  for (std::size_t k = 0; k < owned.size(); ++k) {
    const Box cb = owned[k].box();
    for (std::size_t j = 0; j < needed.size(); ++j) {
      t.region = intersect(cb, needed[j].box());
      const std::int64_t v = t.region.volume();
      if (v <= 0) continue;
      t.round = static_cast<int>(k);
      t.needed_index = static_cast<int>(j);
      t.bytes = v * static_cast<std::int64_t>(elem_size);
      fn(static_cast<const Transfer&>(t));
    }
  }
}

/// Everything one rank contributes to one MPI_Alltoallw call.
/// Arrays are indexed by peer rank, exactly as alltoallw consumes them.
struct RoundPlan {
  std::vector<int> sendcounts, recvcounts;
  std::vector<std::ptrdiff_t> sdispls, rdispls;
  std::vector<mpi::Datatype> sendtypes, recvtypes;
};

/// Communication-schedule accounting (Table III): how many alltoallw rounds
/// the mapping needs and how much data moves per rank per round.
struct MappingStats {
  int nranks = 0;
  int rounds = 0;

  /// Bytes each rank sends to OTHER ranks, summed over rounds, averaged
  /// over ranks.
  double mean_bytes_sent_per_rank = 0.0;

  /// Same, per round (Table III's "Data Size (MB)" column, in bytes).
  double mean_bytes_sent_per_rank_per_round = 0.0;

  /// Largest single-rank send volume in any one round (drives contention).
  std::int64_t max_bytes_sent_in_round = 0;

  /// Bytes that stay local (own ∩ need of the same rank), total.
  std::int64_t self_bytes = 0;

  /// Total bytes crossing rank boundaries.
  std::int64_t network_bytes = 0;

  /// Mean number of distinct peers a rank sends to, over all rounds.
  double mean_send_peers = 0.0;

  /// Total number of non-empty (sender, receiver, round) transfers with
  /// sender != receiver.
  std::int64_t transfer_count = 0;
};

/// One directed non-self lane of the exchange: everything rank `sender`
/// sends rank `receiver`, all rounds fused (the unit a staging budget
/// schedules). Derived identically on every rank from the global layout.
struct ExchangeLane {
  int sender = -1;
  int receiver = -1;
  std::int64_t bytes = 0;  ///< packed payload size of the lane
  int wave = 0;            ///< fence group assigned by assign_waves
};

/// One peer's fused point-to-point lane: every transfer between this rank
/// and `peer`, in join order, coalesced into a single struct-typed message.
/// Cuts the p2p message count from rounds x peers to peers for multi-chunk
/// producers.
struct PeerLane {
  int peer = -1;
  std::ptrdiff_t displ = 0;
  mpi::Datatype type;
  std::int64_t bytes = 0;  ///< packed payload size of the lane
};

/// The mapping one rank holds after setup, ready to execute repeatedly on
/// dynamic data (paper §III-C: "set up ... is only required once as long as
/// the layout of data remains consistent").
struct DataMapping {
  int rank = -1;
  int nranks = 0;

  /// Fused lanes (one per peer with any traffic, self included), sorted by
  /// peer. Moved by Backend::point_to_point_pipelined.
  std::vector<PeerLane> fused_send, fused_recv;

  /// Total bytes of the local owned buffer (all chunks concatenated).
  std::size_t owned_bytes = 0;
  /// Total bytes of the local needed buffer.
  std::size_t needed_bytes = 0;
};

/// Builds rank `rank`'s mapping from the full layout. Deterministic, no
/// communication: every rank derives identical global knowledge from
/// `layout` (the communicator-based setup allgathers layouts first). Each
/// fused lane collapses its pair's transfers straight from the join, typed
/// on this rank's owned chunks (send) or needed chunks (receive). Compiles
/// nothing; Redistributor::setup() compiles the lanes its executor moves.
[[nodiscard]] DataMapping build_mapping(const GlobalLayout& layout, int rank,
                                        std::size_t elem_size);

/// Rank `rank`'s alltoallw plans, one per round (layout.rounds()): the
/// (round, peer) lane holds that round's transfers of the pair, in
/// needed-index order, so a pair's round lanes packed round by round are
/// byte-for-byte its fused lane.
[[nodiscard]] std::vector<RoundPlan> build_round_plans(
    const GlobalLayout& layout, int rank, std::size_t elem_size);

/// Builds, on ANY rank, the fused send lane rank `sender` aims at rank
/// `receiver` — build_mapping's own builder, so the lane is the sender's —
/// or peer == -1 when there is no traffic. This lets a RECEIVER execute an
/// intra-node lane zero-copy: it reads the sender's owned buffer directly
/// through the sender's lane type, without the sender shipping the type.
[[nodiscard]] PeerLane build_peer_send_lane(const GlobalLayout& layout,
                                            int sender, int receiver,
                                            std::size_t elem_size);

/// Computes schedule statistics from geometry alone — no datatypes are
/// constructed, so this is usable at full paper scale (e.g. the 128 GB TIFF
/// domain of Table III) without allocating any pixel data. When `lanes` is
/// given, the same fold also lists every non-self pair that moves bytes, in
/// (sender, receiver) order with its fused payload size (wave 0): the lanes
/// Planner::decide() filters by node and schedules.
[[nodiscard]] MappingStats compute_stats(
    const GlobalLayout& layout, std::size_t elem_size,
    std::vector<ExchangeLane>* lanes = nullptr);

/// Every non-empty transfer of the layout, in (sender, receiver, round,
/// needed-index) order (diagnostics and tests).
[[nodiscard]] std::vector<Transfer> enumerate_transfers(
    const GlobalLayout& layout, std::size_t elem_size);

}  // namespace ddr
