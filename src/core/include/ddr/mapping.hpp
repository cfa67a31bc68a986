#pragma once

/// \file mapping.hpp
/// The data mapping: per-round send/receive plans derived from geometric
/// overlap (paper §III-B), plus the communication-schedule statistics that
/// Table III of the paper reports.

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

/// One peer's fused point-to-point lane: every round's traffic between this
/// rank and `peer` coalesced into a single struct-typed message (pieces in
/// round order, so the sender's packed stream and the receiver's expected
/// stream match by construction). Cuts the p2p message count from
/// rounds x peers to peers for multi-chunk producers.
struct PeerLane {
  int peer = -1;
  std::ptrdiff_t displ = 0;
  mpi::Datatype type;
  std::int64_t bytes = 0;  ///< packed payload size of the lane
};

/// The complete mapping one rank holds after setup: one RoundPlan per
/// alltoallw round, ready to execute repeatedly on dynamic data
/// (paper §III-C: "set up ... is only required once as long as the layout of
/// data remains consistent").
struct DataMapping {
  int rank = -1;
  int nranks = 0;
  std::size_t elem_size = 0;
  std::vector<RoundPlan> rounds;

  /// Round-fused lanes (one per peer with any traffic, self included),
  /// sorted by peer. Used by Backend::point_to_point_pipelined.
  std::vector<PeerLane> fused_send, fused_recv;

  /// Total bytes of the local owned buffer (all chunks concatenated).
  std::size_t owned_bytes = 0;
  /// Total bytes of the local needed buffer.
  std::size_t needed_bytes = 0;

  /// The local owned / needed chunks the plans were built for.
  OwnedLayout owned;
  NeededLayout needed;
};

/// Builds rank `rank`'s mapping from the full layout. Deterministic, no
/// communication: every rank derives identical global knowledge from
/// `layout` (the communicator-based setup allgathers layouts first).
/// Compiles the fused lanes' segment plans; a per-round lane compiles on
/// first use, or in Redistributor::setup() when a per-round executor runs.
[[nodiscard]] DataMapping build_mapping(const GlobalLayout& layout, int rank,
                                        std::size_t elem_size);

/// Rebuilds, on ANY rank, the fused send lane that rank `sender` aims at
/// rank `receiver` — byte-stream-identical to the PeerLane with peer ==
/// receiver that build_mapping(layout, sender, elem_size) produces, because
/// both mirror the same deterministic send-side enumeration of the
/// allgathered layout. Returns peer == -1 (empty type) when `sender` has no
/// traffic toward `receiver`. This is what lets a RECEIVER execute an
/// intra-node lane zero-copy: it reads the sender's owned buffer directly
/// through the sender's lane type (shared-memory semantics) without the
/// sender shipping the type over.
[[nodiscard]] PeerLane build_peer_send_lane(const GlobalLayout& layout,
                                            int sender, int receiver,
                                            std::size_t elem_size);

/// Computes schedule statistics from geometry alone — no datatypes are
/// constructed, so this is usable at full paper scale (e.g. the 128 GB TIFF
/// domain of Table III) without allocating any pixel data.
[[nodiscard]] MappingStats compute_stats(const GlobalLayout& layout,
                                         std::size_t elem_size);

/// Enumerates every non-empty transfer in the mapping (diagnostics and
/// tests).
[[nodiscard]] std::vector<Transfer> enumerate_transfers(
    const GlobalLayout& layout, std::size_t elem_size);

}  // namespace ddr
