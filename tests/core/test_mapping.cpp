// Tests for the geometric mapping computation: round plans, datatypes,
// schedule statistics, and transfer enumeration — checked in detail against
// the paper's worked example E1 (Fig. 1).

#include <gtest/gtest.h>

#include <cstddef>
#include <random>
#include <vector>

#include "ddr/error.hpp"
#include "ddr/mapping.hpp"
#include "test_util.hpp"

namespace {

using ddr::build_mapping;
using ddr::build_round_plans;
using ddr::Chunk;
using ddr::compute_stats;
using ddr::enumerate_transfers;
using ddr::GlobalLayout;

GlobalLayout e1_layout() {
  GlobalLayout l;
  for (int rank = 0; rank < 4; ++rank) {
    l.owned.push_back(
        {Chunk::d2(8, 1, 0, rank), Chunk::d2(8, 1, 0, rank + 4)});
    l.needed.push_back({Chunk::d2(4, 4, 4 * (rank % 2), 4 * (rank / 2))});
  }
  return l;
}

TEST(Mapping, E1HasTwoRounds) {
  const auto m = build_mapping(e1_layout(), 0, sizeof(float));
  EXPECT_EQ(build_round_plans(e1_layout(), 0, sizeof(float)).size(), 2u);
  EXPECT_EQ(m.owned_bytes, 2u * 8u * sizeof(float));
  EXPECT_EQ(m.needed_bytes, 16u * sizeof(float));
}

TEST(Mapping, E1Rank0SendsMatchFigure1B) {
  // Fig. 1B: rank 0's row 0 feeds quadrants 0 (left) and 1 (right); its
  // row 4 feeds quadrants 2 (left) and 3 (right).
  const auto rounds = build_round_plans(e1_layout(), 0, sizeof(float));

  const auto& round0 = rounds[0];
  EXPECT_EQ(round0.sendcounts, (std::vector<int>{1, 1, 0, 0}));
  const auto& round1 = rounds[1];
  EXPECT_EQ(round1.sendcounts, (std::vector<int>{0, 0, 1, 1}));

  // Each send moves half a row: 4 floats.
  EXPECT_EQ(round0.sendtypes[0].size(), 4 * sizeof(float));
  EXPECT_EQ(round0.sendtypes[1].size(), 4 * sizeof(float));
  // Row 0 lives at the start of the owned buffer, row 4 right after it.
  EXPECT_EQ(round0.sdispls[0], 0);
  EXPECT_EQ(round1.sdispls[2],
            static_cast<std::ptrdiff_t>(8 * sizeof(float)));
}

TEST(Mapping, E1Rank0ReceivesOneRowFragmentFromEveryRank) {
  // Rank 0 needs rows 0-3 of the left half; those rows are chunk 0 of ranks
  // 0..3 respectively, so all receives happen in round 0.
  const auto rounds = build_round_plans(e1_layout(), 0, sizeof(float));
  EXPECT_EQ(rounds[0].recvcounts, (std::vector<int>{1, 1, 1, 1}));
  EXPECT_EQ(rounds[1].recvcounts, (std::vector<int>{0, 0, 0, 0}));
  for (int q = 0; q < 4; ++q) {
    EXPECT_EQ(rounds[0].recvtypes[static_cast<std::size_t>(q)].size(),
              4 * sizeof(float));
    EXPECT_EQ(rounds[0].rdispls[static_cast<std::size_t>(q)], 0);
  }
}

TEST(Mapping, E1Rank3ReceivesInRoundOne) {
  // Rank 3 needs rows 4-7 (right half); those are chunk 1 of every rank.
  const auto rounds = build_round_plans(e1_layout(), 3, sizeof(float));
  EXPECT_EQ(rounds[0].recvcounts, (std::vector<int>{0, 0, 0, 0}));
  EXPECT_EQ(rounds[1].recvcounts, (std::vector<int>{1, 1, 1, 1}));
}

TEST(Mapping, SendAndRecvByteTotalsBalancePerRankPair) {
  // For every (sender, receiver, round), sender's type size must equal
  // receiver's type size — this is what makes alltoallw well-formed.
  const GlobalLayout l = e1_layout();
  std::vector<std::vector<ddr::RoundPlan>> plans;
  for (int r = 0; r < 4; ++r) plans.push_back(build_round_plans(l, r, 4));
  for (int s = 0; s < 4; ++s)
    for (int q = 0; q < 4; ++q)
      for (std::size_t k = 0; k < 2; ++k) {
        const auto& sp = plans[static_cast<std::size_t>(s)][k];
        const auto& rp = plans[static_cast<std::size_t>(q)][k];
        const auto qi = static_cast<std::size_t>(q);
        const auto si = static_cast<std::size_t>(s);
        const std::size_t sent =
            static_cast<std::size_t>(sp.sendcounts[qi]) * sp.sendtypes[qi].size();
        const std::size_t recvd =
            static_cast<std::size_t>(rp.recvcounts[si]) * rp.recvtypes[si].size();
        EXPECT_EQ(sent, recvd) << "s=" << s << " q=" << q << " round=" << k;
      }
}

TEST(Mapping, RecvSubarrayPlacesFragmentAtCorrectRow) {
  // Rank 0's fragment from rank 2 is global row 2, which is local row 2 of
  // its 4x4 needed chunk.
  const auto rounds = build_round_plans(e1_layout(), 0, sizeof(float));
  const std::string d = rounds[0].recvtypes[2].describe();
  // Normalized to C order ([y, x] slowest-first): starts should be [2, 0].
  EXPECT_NE(d.find("sizes=[4,4]"), std::string::npos) << d;
  EXPECT_NE(d.find("starts=[2,0]"), std::string::npos) << d;
}

TEST(Stats, E1Schedule) {
  const auto s = compute_stats(e1_layout(), sizeof(float));
  EXPECT_EQ(s.nranks, 4);
  EXPECT_EQ(s.rounds, 2);
  // Each rank keeps exactly one 4-element fragment of its own need
  // (rank r owns row r, which intersects its own quadrant).
  EXPECT_EQ(s.self_bytes, 4 * 4 * static_cast<std::int64_t>(sizeof(float)));
  // Total domain is 64 elements; 16 stay local, 48 cross ranks.
  EXPECT_EQ(s.network_bytes, 48 * static_cast<std::int64_t>(sizeof(float)));
  EXPECT_DOUBLE_EQ(s.mean_bytes_sent_per_rank, 48.0 * sizeof(float) / 4);
  EXPECT_DOUBLE_EQ(s.mean_bytes_sent_per_rank_per_round,
                   48.0 * sizeof(float) / 4 / 2);
  // Every rank sends to 3 distinct peers.
  EXPECT_DOUBLE_EQ(s.mean_send_peers, 3.0);
  // 4 fragments per round per rank, minus the self fragment: 3 transfers
  // per rank per its own 2 chunks... enumerated: 2 chunks x 2 receivers
  // each = 4 per rank, one of which is self => 3 cross-rank, 4 ranks => 12.
  EXPECT_EQ(s.transfer_count, 12);
}

TEST(Stats, RoundRobinVsConsecutiveRoundCounts) {
  // Miniature of Table III: 16 z-slices of an 8x8x16 volume across 4 ranks.
  // Consecutive: each rank owns one 4-slice slab => 1 round.
  // Round-robin: each rank owns 4 interleaved slices => 4 rounds.
  GlobalLayout consecutive, round_robin;
  for (int r = 0; r < 4; ++r) {
    consecutive.owned.push_back({Chunk::d3(8, 8, 4, 0, 0, 4 * r)});
    ddr::OwnedLayout rr;
    for (int k = 0; k < 4; ++k)
      rr.push_back(Chunk::d3(8, 8, 1, 0, 0, r + 4 * k));
    round_robin.owned.push_back(rr);
    // Both need 2x2x1 brick decomposition... use simple slabs in y instead.
    const Chunk need = Chunk::d3(8, 2, 16, 0, 2 * r, 0);
    consecutive.needed.push_back({need});
    round_robin.needed.push_back({need});
  }
  const auto sc = compute_stats(consecutive, 4);
  const auto sr = compute_stats(round_robin, 4);
  EXPECT_EQ(sc.rounds, 1);
  EXPECT_EQ(sr.rounds, 4);
  // Identical data crosses the network either way.
  EXPECT_EQ(sc.network_bytes, sr.network_bytes);
  // Per-round traffic is 4x smaller for round-robin.
  EXPECT_DOUBLE_EQ(sr.mean_bytes_sent_per_rank_per_round * 4,
                   sc.mean_bytes_sent_per_rank_per_round);
}

TEST(Transfers, EnumerationCoversNeededVolumes) {
  const GlobalLayout l = e1_layout();
  const auto ts = enumerate_transfers(l, sizeof(float));
  // Every rank's needed box must be covered exactly by incoming transfers.
  for (int r = 0; r < 4; ++r) {
    std::int64_t received = 0;
    for (const auto& t : ts)
      if (t.receiver == r) received += t.bytes;
    EXPECT_EQ(received,
              l.needed[static_cast<std::size_t>(r)][0].volume() *
                  static_cast<std::int64_t>(sizeof(float)));
  }
  // Regions must lie inside both the sender's chunk and receiver's need.
  for (const auto& t : ts) {
    EXPECT_TRUE(l.owned[static_cast<std::size_t>(t.sender)]
                    [static_cast<std::size_t>(t.round)]
                        .box()
                        .contains(t.region));
    EXPECT_TRUE(l.needed[static_cast<std::size_t>(t.receiver)]
                    [static_cast<std::size_t>(t.needed_index)]
                        .box()
                        .contains(t.region));
  }
}

TEST(Mapping, EmptyNeedReceivesNothing) {
  GlobalLayout l;
  l.owned.push_back({Chunk::d1(8, 0)});
  l.owned.push_back({Chunk::d1(8, 8)});
  l.needed.push_back({Chunk::d1(16, 0)});  // rank 0 wants everything
  l.needed.push_back({Chunk::d1(0, 0)});   // rank 1 wants nothing
  const auto m1 = build_mapping(l, 1, 4);
  EXPECT_EQ(m1.needed_bytes, 0u);
  EXPECT_TRUE(m1.fused_recv.empty());
  for (const auto& rp : build_round_plans(l, 1, 4))
    for (int c : rp.recvcounts) EXPECT_EQ(c, 0);
}

/// A seeded random layout: a partition of a random domain dealt to random
/// owners (multi-chunk owners, an idle owner on every third trial),
/// zero-extent chunks on both sides, and one to three overlapping needed
/// boxes per rank.
GlobalLayout random_layout(int trial, std::mt19937& rng) {
  const int ndims = 1 + trial % 3;
  const int nranks = 2 + static_cast<int>(rng() % 5);
  ddr::Box domain;
  domain.ndims = ndims;
  for (int d = 0; d < ndims; ++d)
    domain.hi[static_cast<std::size_t>(d)] = 3 + static_cast<int>(rng() % 10);
  const int owners = trial % 3 == 0 ? nranks - 1 : nranks;
  GlobalLayout l;
  l.owned.resize(static_cast<std::size_t>(nranks));
  l.needed.resize(static_cast<std::size_t>(nranks));
  for (const ddr::Box& b :
       ddr_test::random_partition(domain, 3 * nranks, rng)) {
    auto& own = l.owned[rng() % static_cast<unsigned>(owners)];
    own.push_back(ddr_test::box_to_chunk(b));
    if (rng() % 4 == 0) {
      Chunk empty = own.back();
      empty.dims[rng() % static_cast<unsigned>(ndims)] = 0;
      own.push_back(empty);
    }
  }
  for (auto& need : l.needed) {
    const int n = 1 + static_cast<int>(rng() % 3);
    for (int k = 0; k < n; ++k)
      need.push_back(
          ddr_test::box_to_chunk(ddr_test::random_subbox(domain, rng)));
    if (rng() % 4 == 0) {
      Chunk empty = need.front();
      empty.dims[0] = 0;
      need.insert(need.begin() + static_cast<std::ptrdiff_t>(rng() % 2),
                  empty);
    }
  }
  return l;
}

/// What `lane` packs out of `buf`: one element of its type at its
/// displacement.
std::vector<std::byte> pack_lane(const std::byte* buf, std::ptrdiff_t displ,
                                 const mpi::Datatype& type) {
  std::vector<std::byte> out(type.size());
  type.pack(buf + displ, 1, out.data());
  return out;
}

TEST(FusedLanes, PackTheRoundLanesInRoundOrder) {
  // At every pair (s, r), the fused lanes must move exactly the bytes of the
  // per-round lanes, concatenated round by round: that is what keeps the
  // fused-lane executor's output byte-identical to alltoallw's.
  std::mt19937 rng(20261020);
  for (int trial = 0; trial < 60; ++trial) {
    const GlobalLayout l = random_layout(trial, rng);
    const int p = l.nranks();
    const std::size_t es = 1 + static_cast<std::size_t>(trial % 8);
    std::vector<ddr::DataMapping> maps;
    std::vector<std::vector<ddr::RoundPlan>> plans;
    std::vector<std::vector<std::byte>> owned;
    for (int r = 0; r < p; ++r) {
      maps.push_back(build_mapping(l, r, es));
      plans.push_back(build_round_plans(l, r, es));
      std::vector<std::byte> buf(maps.back().owned_bytes);
      for (std::byte& b : buf) b = static_cast<std::byte>(rng());
      owned.push_back(std::move(buf));
    }
    const auto lane_to = [](const std::vector<ddr::PeerLane>& lanes,
                            int peer) -> const ddr::PeerLane* {
      for (const ddr::PeerLane& lane : lanes)
        if (lane.peer == peer) return &lane;
      return nullptr;
    };

    for (int s = 0; s < p; ++s)
      for (int r = 0; r < p; ++r) {
        const auto si = static_cast<std::size_t>(s);
        const auto ri = static_cast<std::size_t>(r);
        const std::string where = "trial " + std::to_string(trial) + " " +
                                  std::to_string(s) + "->" + std::to_string(r);

        // Send side: the fused lane packs the round lanes in round order.
        std::vector<std::byte> rounds_stream;
        for (const ddr::RoundPlan& rp : plans[si]) {
          if (rp.sendcounts[ri] == 0) continue;
          const auto piece =
              pack_lane(owned[si].data(), rp.sdispls[ri], rp.sendtypes[ri]);
          rounds_stream.insert(rounds_stream.end(), piece.begin(),
                               piece.end());
        }
        const ddr::PeerLane* send = lane_to(maps[si].fused_send, r);
        const ddr::PeerLane peer_send = ddr::build_peer_send_lane(l, s, r, es);
        if (send == nullptr) {
          EXPECT_TRUE(rounds_stream.empty()) << where;
          EXPECT_EQ(peer_send.peer, -1) << where;
          EXPECT_EQ(lane_to(maps[ri].fused_recv, s), nullptr) << where;
          continue;
        }
        const std::vector<std::byte> stream =
            pack_lane(owned[si].data(), send->displ, send->type);
        ASSERT_EQ(stream, rounds_stream) << where;
        EXPECT_EQ(send->bytes, static_cast<std::int64_t>(stream.size()))
            << where;

        // The receiver's rebuild of the lane is the sender's own lane.
        EXPECT_EQ(peer_send.peer, r) << where;
        EXPECT_EQ(peer_send.displ, send->displ) << where;
        EXPECT_EQ(peer_send.bytes, send->bytes) << where;
        EXPECT_EQ(peer_send.type.plan_segment_count(),
                  send->type.plan_segment_count())
            << where;
        EXPECT_EQ(peer_send.type.plan_quad_count(),
                  send->type.plan_quad_count())
            << where;

        // Receive side: unpacking the stream through the fused lane places
        // the bytes where the round lanes, in round order, place them.
        const ddr::PeerLane* recv = lane_to(maps[ri].fused_recv, s);
        ASSERT_NE(recv, nullptr) << where;
        std::vector<std::byte> fused_out(maps[ri].needed_bytes, std::byte{0});
        std::vector<std::byte> rounds_out = fused_out;
        ASSERT_EQ(recv->type.size(), stream.size()) << where;
        recv->type.unpack(stream.data(), 1, fused_out.data() + recv->displ);
        std::size_t cursor = 0;
        for (const ddr::RoundPlan& rp : plans[ri]) {
          if (rp.recvcounts[si] == 0) continue;
          rp.recvtypes[si].unpack(stream.data() + cursor, 1,
                                  rounds_out.data() + rp.rdispls[si]);
          cursor += rp.recvtypes[si].size();
        }
        EXPECT_EQ(cursor, stream.size()) << where;
        EXPECT_EQ(fused_out, rounds_out) << where;
      }
  }
}

TEST(Mapping, RankOutOfRangeThrows) {
  EXPECT_THROW(build_mapping(e1_layout(), 7, 4), ddr::Error);
  EXPECT_THROW(build_mapping(e1_layout(), -1, 4), ddr::Error);
}

TEST(Mapping, ZeroElemSizeThrows) {
  EXPECT_THROW(build_mapping(e1_layout(), 0, 0), ddr::Error);
}

}  // namespace
