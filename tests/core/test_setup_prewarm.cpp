// setup() builds, compiles and prewarms only for the executor that runs.
// The fused-lane executor (point_to_point_pipelined, with or without a
// staging budget, with or without an active FaultModel) never sends
// per-round messages, so its setup plants only the fused lane payloads in
// the staging pool and compiles only the fused lanes; alltoallw gets the
// per-round plans and payloads and compiles nothing else. Either way one
// ddr.mapping.precompile span covers the compile. Repeated setups on one
// communicator leave the steady-state data path allocation-free.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <random>
#include <span>
#include <vector>

#include "ddr/ddr.hpp"
#include "minimpi/minimpi.hpp"
#include "simnet/faults.hpp"
#include "simnet/models.hpp"
#include "trace/trace.hpp"

namespace {

using ddr::Backend;
using ddr::Chunk;

constexpr int kRanks = 4;

/// 512 blocks of 2^3 over a 16^3 domain, block b owned by rank b % 4: 128
/// rounds. Every rank needs one 8x8x16 brick.
ddr::OwnedLayout blocks_of(int rank) {
  ddr::OwnedLayout own;
  for (int b = rank; b < 512; b += kRanks)
    own.push_back(Chunk::d3(2, 2, 2, b % 8 * 2, b / 8 % 8 * 2, b / 64 * 2));
  return own;
}

Chunk brick_of(int rank) {
  return Chunk::d3(8, 8, 16, rank % 2 * 8, rank / 2 * 8, 0);
}

/// What one rank's traced setup() reserved and compiled, next to what its
/// mapping holds.
struct SetupCounts {
  int rounds = 0;
  std::int64_t reserved = 0;        ///< mpi.staging.reserve bytes
  std::size_t precompiled = 0;      ///< mpi.datatype.precompile instants
  std::size_t precompile_spans = 0; ///< ddr.mapping.precompile spans
  std::int64_t inter_bytes = 0;     ///< fused send lanes to other nodes
  std::int64_t intra_bytes = 0;     ///< fused send lanes to same-node peers
  std::int64_t intra_lanes = 0;
  std::int64_t round_payloads = 0;  ///< non-self per-round sends
  std::size_t fused_types = 0;      ///< fused lane types setup compiles
  std::size_t round_types = 0;      ///< non-empty per-round send + recv types
};

/// One traced setup() per rank under a two-ranks-per-node link model, so
/// every rank has self, intra-node and inter-node lanes.
std::vector<SetupCounts> trace_setup(Backend backend,
                                     mpi::FaultModel* fault = nullptr,
                                     std::size_t budget = 0) {
  simnet::LinkParams lp = simnet::cooley_params();
  lp.ranks_per_node = 2;
  const simnet::LinkModel net(lp);
  std::vector<trace::Recorder> recs;
  recs.reserve(kRanks);
  for (int r = 0; r < kRanks; ++r) recs.emplace_back(r);
  std::vector<SetupCounts> out(kRanks);
  mpi::RunOptions ro;
  ro.network = &net;
  ro.fault = fault;
  mpi::run(
      kRanks,
      [&](mpi::Comm& comm) {
        const int r = comm.rank();
        const auto ri = static_cast<std::size_t>(r);
        ddr::Redistributor rd(comm, sizeof(float));
        rd.trace_sink(&recs[ri]);
        ddr::SetupOptions opt;
        opt.backend = backend;
        opt.peak_staging_bytes = budget;
        rd.setup(blocks_of(r), brick_of(r), opt);

        SetupCounts& c = out[ri];
        c.rounds = rd.rounds();
        const auto& ev = recs[ri].events();
        c.reserved = trace::total_bytes(ev, "mpi.staging.reserve");
        c.precompiled = trace::count_events(ev, "mpi.datatype.precompile",
                                            trace::Phase::instant);
        c.precompile_spans = trace::count_events(
            ev, "ddr.mapping.precompile", trace::Phase::begin);
        const ddr::DataMapping m =
            ddr::build_mapping(rd.global_layout(), r, sizeof(float));
        for (const ddr::PeerLane& l : m.fused_send) {
          if (l.peer == r) continue;
          if (comm.same_node(l.peer)) {
            c.intra_bytes += l.bytes;
            ++c.intra_lanes;
          } else {
            c.inter_bytes += l.bytes;
          }
        }
        // Fused send and recv lanes, plus the sender-side type setup rebuilds
        // for each intra-node recv lane to read it zero-copy.
        c.fused_types = m.fused_send.size() + m.fused_recv.size();
        for (const ddr::PeerLane& l : m.fused_recv)
          if (l.peer != r && comm.same_node(l.peer)) ++c.fused_types;
        for (const ddr::RoundPlan& rp :
             ddr::build_round_plans(rd.global_layout(), r, sizeof(float)))
          for (std::size_t q = 0; q < kRanks; ++q) {
            if (rp.sendcounts[q] > 0) {
              ++c.round_types;
              if (q != ri)
                c.round_payloads +=
                    static_cast<std::int64_t>(rp.sendtypes[q].size());
            }
            if (rp.recvcounts[q] > 0) ++c.round_types;
          }
      },
      ro);
  return out;
}

TEST(SetupPrewarm, FusedExecutorsReserveOnlyTheirLanePayloads) {
  // With and without a budget that splits the inter lanes into waves: the
  // prewarm covers every lane's payload, which is conservative across any
  // wave schedule.
  for (const std::size_t budget : {std::size_t{0}, std::size_t{4096}}) {
    const std::vector<SetupCounts> counts =
        trace_setup(Backend::point_to_point_pipelined, nullptr, budget);
    for (int r = 0; r < kRanks; ++r) {
      const SetupCounts& c = counts[static_cast<std::size_t>(r)];
      ASSERT_EQ(c.rounds, 128);
      ASSERT_EQ(c.intra_lanes, 1) << "rank " << r;
      // Intra lanes publish an 8-byte pointer instead of a payload.
      EXPECT_EQ(c.reserved, c.inter_bytes + 8 * c.intra_lanes)
          << "budget " << budget << " rank " << r;
      // Only the fused lanes were compiled: no per-round type.
      EXPECT_EQ(c.precompiled, c.fused_types)
          << "budget " << budget << " rank " << r;
      EXPECT_EQ(c.precompile_spans, 1u) << "budget " << budget << " rank " << r;
    }
  }
}

TEST(SetupPrewarm, FusedExecutorUnderFaultsReservesWholeIntraLanes) {
  // Under an active FaultModel every non-self lane moves as a payload its
  // receiver can re-request — intra-node lanes included — and still no
  // per-round plan is compiled.
  simnet::RandomFaultPlan lossless{simnet::RandomFaultParams{}};
  const std::vector<SetupCounts> counts =
      trace_setup(Backend::point_to_point_pipelined, &lossless);
  for (int r = 0; r < kRanks; ++r) {
    const SetupCounts& c = counts[static_cast<std::size_t>(r)];
    ASSERT_EQ(c.intra_lanes, 1) << "rank " << r;
    EXPECT_EQ(c.reserved, c.inter_bytes + c.intra_bytes) << "rank " << r;
    EXPECT_EQ(c.precompiled, c.fused_types) << "rank " << r;
  }
}

TEST(SetupPrewarm, PerRoundExecutorsKeepRoundPayloadsAndPlans) {
  simnet::RandomFaultPlan lossless{simnet::RandomFaultParams{}};
  for (mpi::FaultModel* fault : {static_cast<mpi::FaultModel*>(nullptr),
                                 static_cast<mpi::FaultModel*>(&lossless)}) {
    const std::vector<SetupCounts> counts =
        trace_setup(Backend::alltoallw, fault);
    for (int r = 0; r < kRanks; ++r) {
      const SetupCounts& c = counts[static_cast<std::size_t>(r)];
      const char* mode = fault != nullptr ? " under faults" : "";
      EXPECT_EQ(c.reserved, c.round_payloads) << mode << " rank " << r;
      // Only the per-round lanes were compiled: no fused lane, and no
      // intra-node sender type.
      EXPECT_EQ(c.precompiled, c.round_types) << mode << " rank " << r;
      EXPECT_EQ(c.precompile_spans, 1u) << mode << " rank " << r;
    }
  }
}

/// The staging bytes one automatic setup() of `rd` reserves, summed over
/// the communicator: every rank's non-self fused send lanes (no
/// NetworkModel, so every one of them moves as a payload).
std::uint64_t reserved_union(const mpi::Comm& comm,
                             const ddr::Redistributor& rd) {
  std::uint64_t mine = 0;
  for (const ddr::PeerLane& l :
       ddr::build_mapping(rd.global_layout(), comm.rank(), sizeof(float))
           .fused_send)
    if (l.peer != comm.rank()) mine += static_cast<std::uint64_t>(l.bytes);
  std::uint64_t sum = 0;
  comm.allreduce(&mine, &sum, 1, mpi::Datatype::of<std::uint64_t>(),
                 mpi::Op::sum<std::uint64_t>());
  return sum;
}

TEST(SetupPrewarm, RepeatedSetupsKeepSteadyStateAllocationFree) {
  // A dynamic layout sets up again on the same communicator whenever it
  // changes; the pool those setups prewarm is shared by every rank. Each
  // rank's reservation replaces its previous one, so 50 setups that never
  // run leave about one setup's staging pooled, not 50.
  mpi::run(kRanks, [](mpi::Comm& comm) {
    const int r = comm.rank();
    ddr::SetupOptions opt;
    opt.backend = Backend::automatic;
    std::optional<ddr::Redistributor> rd;
    std::uint64_t one_setup = 0;
    for (int i = 0; i < 50; ++i) {
      rd.emplace(comm, sizeof(float));
      rd->setup(blocks_of(r), brick_of(r), opt);
      if (i > 0) continue;
      // One setup's staging footprint: its lane reservation and what its
      // own metadata allgathers leave pooled.
      comm.barrier();
      one_setup = comm.staging_stats().pooled_bytes;
      comm.barrier();
      ASSERT_GE(one_setup, reserved_union(comm, *rd)) << "rank " << r;
    }
    std::vector<float> src(rd->owned_bytes() / sizeof(float), 1.0f);
    std::vector<float> dst(rd->needed_bytes() / sizeof(float));
    comm.barrier();
    const mpi::StagingStats s0 = comm.staging_stats();
    comm.barrier();
    EXPECT_LE(s0.pooled_bytes, 2 * one_setup) << "rank " << r;
    for (int i = 0; i < 20; ++i)
      rd->redistribute(std::as_bytes(std::span<const float>(src)),
                       std::as_writable_bytes(std::span<float>(dst)));
    comm.barrier();
    const mpi::StagingStats s1 = comm.staging_stats();
    EXPECT_GT(s1.acquires, s0.acquires);
    EXPECT_EQ(s1.heap_allocations, s0.heap_allocations) << "rank " << r;
  });
}

TEST(SetupPrewarm, ChangingLayoutsKeepThePoolBounded) {
  // 200 setups of a changing layout on one communicator — a 32^3 domain cut
  // into blocks of a random edge and dealt at random, gathered into bricks
  // or slabs — each followed by a checked redistribute(). Every reservation
  // replaces its rank's last one and pledges what the pool already holds,
  // so the pool stays within a few setups' worth of staging however many
  // layouts go by.
  constexpr int kSide = 32;
  mpi::run(kRanks, [](mpi::Comm& comm) {
    const int r = comm.rank();
    // One seed on every rank: every rank draws the same deals.
    std::mt19937 rng(20261021);
    auto value = [](std::int64_t x, std::int64_t y, std::int64_t z) {
      return static_cast<float>(x + kSide * (y + kSide * z));
    };
    auto cells = [](const Chunk& c, const auto& fn) {
      for (int z = 0; z < c.dims[2]; ++z)
        for (int y = 0; y < c.dims[1]; ++y)
          for (int x = 0; x < c.dims[0]; ++x)
            fn(x + c.offsets[0], y + c.offsets[1], z + c.offsets[2]);
    };
    ddr::Redistributor rd(comm, sizeof(float));
    ddr::SetupOptions opt;
    opt.backend = Backend::automatic;
    std::uint64_t largest_union = 0;
    for (int it = 0; it < 200; ++it) {
      const int edge = 4 << (rng() % 3);
      const int per = kSide / edge;
      ddr::OwnedLayout own;
      for (int b = 0; b < per * per * per; ++b)
        if (static_cast<int>(rng() % kRanks) == r)
          own.push_back(Chunk::d3(edge, edge, edge, b % per * edge,
                                  b / per % per * edge, b / (per * per) * edge));
      const Chunk need =
          it % 2 == 0 ? Chunk::d3(16, 16, 32, r % 2 * 16, r / 2 * 16, 0)
                      : Chunk::d3(32, 32, 8, 0, 0, 8 * r);
      rd.setup(own, need, opt);
      largest_union = std::max(largest_union, reserved_union(comm, rd));

      std::vector<float> src;
      for (const Chunk& c : own)
        cells(c, [&](int x, int y, int z) { src.push_back(value(x, y, z)); });
      std::vector<float> dst(static_cast<std::size_t>(need.volume()));
      rd.redistribute(std::as_bytes(std::span<const float>(src)),
                      std::as_writable_bytes(std::span<float>(dst)));
      std::size_t i = 0;
      bool exact = true;
      cells(need, [&](int x, int y, int z) {
        exact = exact && dst[i++] == value(x, y, z);
      });
      ASSERT_TRUE(exact) << "layout " << it << " rank " << r;
    }
    comm.barrier();
    const mpi::StagingStats s = comm.staging_stats();
    EXPECT_LE(s.pooled_bytes, 4 * largest_union) << "rank " << r;
  });
}

}  // namespace
