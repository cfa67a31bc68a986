// ddr::Planner tests: golden lowering pins for the bench fixtures (waves and
// completion order), the wave scheduler of the fused-lane executor's
// inter-node lanes, the budget-forced wave sequence, Backend::automatic
// resolving to the fused-lane executor, and property tests that every
// lowering — flat and two-ranks-per-node topology, with and without a
// staging budget, both completion orders — is byte-identical to the paper's
// alltoallw path on random layouts while keeping the staging pool's peak
// under the requested budget.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "ddr/ddr.hpp"
#include "ddr/planner.hpp"
#include "minimpi/minimpi.hpp"
#include "simnet/models.hpp"
#include "test_util.hpp"

namespace {

using ddr::Backend;
using ddr::Box;
using ddr::Chunk;
using ddr_test::box_to_chunk;
using ddr_test::fill_chunk;
using ddr_test::oracle_value;
using ddr_test::random_partition;
using ddr_test::random_subbox;

// The JSON bench's strided3d case: 4 ranks, 64^3 floats, 8 interleaved
// z-slabs per rank, gathered into 2x2x1 bricks — 96 per-round messages vs
// 12 fused 64 KB lanes. Measured: pipelined < alltoallw.
ddr::GlobalLayout strided3d_layout() {
  const int side = 64, nranks = 4, slabs = 8;
  ddr::GlobalLayout layout;
  for (int r = 0; r < nranks; ++r) {
    ddr::OwnedLayout own;
    for (int c = 0; c < slabs; ++c)
      own.push_back(Chunk::d3(side, side, 2, 0, 0, (r + nranks * c) * 2));
    layout.owned.push_back(own);
    layout.needed.push_back(
        {Chunk::d3(32, 32, side, (r % 2) * 32, (r / 2) * 32, 0)});
  }
  return layout;
}

// The JSON bench's rows2d case: 4 ranks, two 128x16 row blocks each,
// gathered into 64x64 quadrants — 12 per-round messages AND 12 fused 16 KB
// lanes, so fusion saves no messages. Measured: the fused lanes, completed
// post-all, beat alltoallw's per-round walk.
ddr::GlobalLayout rows2d_layout() {
  ddr::GlobalLayout layout;
  for (int r = 0; r < 4; ++r) {
    layout.owned.push_back({Chunk::d2(128, 16, 0, 16 * r),
                            Chunk::d2(128, 16, 0, 16 * (r + 4))});
    layout.needed.push_back(
        {Chunk::d2(64, 64, 64 * (r % 2), 64 * (r / 2))});
  }
  return layout;
}

// Broadcast shape: every rank needs the identical full domain, so the
// exchange is an allgather of the per-rank z-slabs.
ddr::GlobalLayout bcast3d_layout(int side) {
  const int nranks = 4;
  const int slab = side / nranks;
  ddr::GlobalLayout layout;
  for (int r = 0; r < nranks; ++r) {
    layout.owned.push_back({Chunk::d3(side, side, slab, 0, 0, slab * r)});
    layout.needed.push_back({Chunk::d3(side, side, side, 0, 0, 0)});
  }
  return layout;
}

/// The Cooley link model with two consecutive ranks per node.
simnet::LinkModel two_per_node_cooley() {
  simnet::LinkParams p = simnet::cooley_params();
  p.ranks_per_node = 2;
  return simnet::LinkModel(p);
}

/// One redistribute() over a layout: every rank's needed buffer (for
/// byte-identity checks), every rank's plan().waves and effective_backend(),
/// and the staging pool's peak over the exchange alone. The peak is
/// restarted after setup, whose metadata allgathers would otherwise dominate
/// small layouts, and the precondition agreement is off: its allreduce's
/// 8-byte control messages are not exchange staging.
struct RunResult {
  std::vector<std::vector<std::byte>> out;
  std::vector<int> waves;
  std::vector<Backend> backend;
  std::uint64_t peak = 0;
};

RunResult run_backend(const ddr::GlobalLayout& layout, Backend backend,
                std::size_t budget, const mpi::NetworkModel* net = nullptr,
                std::size_t elem_size = sizeof(float)) {
  const int nranks = layout.nranks();
  RunResult run;
  run.out.resize(static_cast<std::size_t>(nranks));
  run.waves.resize(static_cast<std::size_t>(nranks));
  run.backend.resize(static_cast<std::size_t>(nranks));
  mpi::RunOptions ropts;
  ropts.network = net;
  mpi::run(
      nranks,
      [&](mpi::Comm& comm) {
        const auto rank = static_cast<std::size_t>(comm.rank());
        ddr::Redistributor rd(comm, elem_size);
        ddr::SetupOptions opts;
        opts.backend = backend;
        opts.peak_staging_bytes = budget;
        opts.collective_error_agreement = false;
        rd.setup(layout.owned[rank], layout.needed[rank], opts);
        run.waves[rank] = rd.plan().waves;
        run.backend[rank] = rd.effective_backend();

        // An element is elem_size / 4 floats: the oracle value, then
        // distinct offsets of it, so a misplaced float shows.
        std::vector<float> own_data;
        for (const auto& c : layout.owned[rank])
          for (const float v : fill_chunk(c))
            for (std::size_t j = 0; j < elem_size / sizeof(float); ++j)
              own_data.push_back(v + 0.25f * static_cast<float>(j));
        run.out[rank].resize(rd.needed_bytes());
        comm.barrier();
        if (rank == 0) comm.reset_staging_peak();
        comm.barrier();
        rd.redistribute(std::as_bytes(std::span<const float>(own_data)),
                        std::span<std::byte>(run.out[rank]));
        comm.barrier();
        if (rank == 0) run.peak = comm.staging_stats().peak_live_bytes;
      },
      ropts);
  return run;
}

/// Total payload of `lanes`.
std::int64_t lane_bytes(const std::vector<ddr::ExchangeLane>& lanes) {
  std::int64_t n = 0;
  for (const ddr::ExchangeLane& l : lanes) n += l.bytes;
  return n;
}

TEST(PlannerGolden, Strided3dPicksPipelined) {
  std::vector<ddr::ExchangeLane> lanes;
  (void)ddr::compute_stats(strided3d_layout(), sizeof(float), &lanes);
  const ddr::Plan plan = ddr::Planner::decide(lanes, nullptr, 0);
  EXPECT_EQ(plan.decision.waves, 1);
  // 64 KB lanes clear the 32 KB threshold: the pipeline completion order.
  EXPECT_FALSE(plan.decision.post_all);
  // Without a NetworkModel every peer is a different node, so every
  // non-self byte rides an inter-node lane.
  EXPECT_EQ(lane_bytes(plan.inter_lanes), 786432);
}

TEST(PlannerGolden, Rows2dPicksPostAllFusedLanes) {
  std::vector<ddr::ExchangeLane> lanes;
  (void)ddr::compute_stats(rows2d_layout(), sizeof(float), &lanes);
  const ddr::PlanDecision d = ddr::Planner::decide(lanes, nullptr, 0).decision;
  EXPECT_TRUE(d.post_all);
  EXPECT_EQ(d.waves, 1);
}

TEST(PlannerGolden, AutomaticRunsFusedLanesOnATwoRankNode) {
  // Two ranks on one node swap 8-float halves: rank 0 owns [0,8) and needs
  // [8,16), rank 1 the reverse. The only non-self lanes are intra-node, and
  // automatic still runs them through the fused-lane executor — byte for
  // byte what alltoallw delivers.
  const simnet::LinkModel model = two_per_node_cooley();
  ddr::GlobalLayout layout;
  for (int r = 0; r < 2; ++r) {
    layout.owned.push_back({Chunk::d1(8, 8 * r)});
    layout.needed.push_back({Chunk::d1(8, 8 * (1 - r))});
  }
  const auto want = run_backend(layout, Backend::alltoallw, 0, &model).out;
  const RunResult got = run_backend(layout, Backend::automatic, 0, &model);
  ASSERT_EQ(got.out.size(), want.size());
  for (std::size_t r = 0; r < got.out.size(); ++r) {
    EXPECT_EQ(got.backend[r], Backend::point_to_point_pipelined)
        << "rank " << r;
    ASSERT_EQ(got.out[r].size(), want[r].size()) << "rank " << r;
    EXPECT_EQ(
        std::memcmp(got.out[r].data(), want[r].data(), got.out[r].size()), 0)
        << "rank " << r;
  }
}

TEST(PlannerGolden, ResizeSlabLayoutIsDeterministic) {
  // A resize-shaped exchange (4 old z-slab owners feeding 6 new ones,
  // joiners owning nothing yet): the decision must be identical across
  // repeated evaluations — it is what every rank independently derives.
  const int m = 4, n = 6;
  std::vector<ddr::OwnedLayout> old_owned;
  for (int r = 0; r < m; ++r)
    old_owned.push_back({Chunk::d3(48, 48, 12, 0, 0, 12 * r)});
  const std::vector<ddr::OwnedLayout> proposed =
      ddr::propose_resize_layout(old_owned, n);
  ddr::GlobalLayout layout;
  for (int r = 0; r < n; ++r) {
    layout.owned.push_back(r < m ? old_owned[static_cast<std::size_t>(r)]
                                 : ddr::OwnedLayout{});
    layout.needed.push_back(proposed[static_cast<std::size_t>(r)]);
  }
  auto derive = [&layout] {
    std::vector<ddr::ExchangeLane> lanes;
    (void)ddr::compute_stats(layout, sizeof(float), &lanes);
    return ddr::Planner::decide(lanes, nullptr, 0).decision;
  };
  const ddr::PlanDecision a = derive();
  const ddr::PlanDecision b = derive();
  EXPECT_EQ(a.waves, b.waves);
  EXPECT_EQ(a.post_all, b.post_all);
}

TEST(PlannerGolden, LinkModelSplitsIntraNodeBytes) {
  // Under a two-ranks-per-node model, strided3d's lane to the node
  // neighbour leaves the inter-node lanes: it moves as zero-copy intra
  // traffic, not link traffic, so the inter lanes carry part of the
  // 786432 non-self bytes but not all of them.
  const simnet::LinkModel model = two_per_node_cooley();
  std::vector<ddr::ExchangeLane> lanes;
  (void)ddr::compute_stats(strided3d_layout(), sizeof(float), &lanes);
  const std::int64_t inter =
      lane_bytes(ddr::Planner::decide(lanes, &model, 0).inter_lanes);
  EXPECT_GT(inter, 0);
  EXPECT_LT(inter, 786432);
}

TEST(PlannerWaves, BudgetPartitionsLanes) {
  std::vector<ddr::ExchangeLane> lanes = {
      {0, 1, 100, 0}, {0, 2, 100, 0}, {0, 3, 100, 0}};
  // No budget: one wave.
  EXPECT_EQ(ddr::assign_waves(lanes, 0), 1);
  for (const ddr::ExchangeLane& l : lanes) EXPECT_EQ(l.wave, 0);
  // 150 B fits one 100 B lane per wave.
  EXPECT_EQ(ddr::assign_waves(lanes, 150), 3);
  EXPECT_EQ(lanes[0].wave, 0);
  EXPECT_EQ(lanes[1].wave, 1);
  EXPECT_EQ(lanes[2].wave, 2);
  // 200 B fits two.
  EXPECT_EQ(ddr::assign_waves(lanes, 200), 2);
  // A budget below the largest lane is floored at the largest lane: every
  // lane still gets scheduled, one per wave.
  EXPECT_EQ(ddr::assign_waves(lanes, 1), 3);
  // Every wave's payload stays within max(budget, largest lane).
  std::mt19937 rng(515151);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<ddr::ExchangeLane> rnd;
    const int n = 1 + static_cast<int>(rng() % 12);
    for (int i = 0; i < n; ++i)
      rnd.push_back({0, i + 1, 1 + static_cast<std::int64_t>(rng() % 5000), 0});
    const std::size_t budget = 1 + rng() % 8000;
    std::int64_t largest = 0;
    for (const ddr::ExchangeLane& l : rnd)
      largest = std::max(largest, l.bytes);
    const std::int64_t eff =
        std::max(largest, static_cast<std::int64_t>(budget));
    const int waves = ddr::assign_waves(rnd, budget);
    std::vector<std::int64_t> per_wave(static_cast<std::size_t>(waves), 0);
    for (const ddr::ExchangeLane& l : rnd) {
      ASSERT_GE(l.wave, 0);
      ASSERT_LT(l.wave, waves);
      per_wave[static_cast<std::size_t>(l.wave)] += l.bytes;
    }
    for (const std::int64_t w : per_wave) EXPECT_LE(w, eff) << "trial " << trial;
  }
}

TEST(PlannerBudget, TightBudgetForcesCollective) {
  // 90000 B is below the 786432 B every inter lane stages at once, so the
  // fused-lane executor runs the collective (wave-sequenced) lowering: its
  // 64 KB inter lanes fenced one per wave, and the measured peak within the
  // budget.
  const ddr::GlobalLayout layout = strided3d_layout();
  std::vector<ddr::ExchangeLane> lanes;
  (void)ddr::compute_stats(layout, sizeof(float), &lanes);
  EXPECT_EQ(ddr::Planner::decide(lanes, nullptr, 90000).decision.waves, 12);
  const RunResult got = run_backend(layout, Backend::automatic, 90000);
  for (const int w : got.waves) EXPECT_EQ(w, 12);
  EXPECT_LE(got.peak, 90000u);
}

TEST(PlannerProperty, CollectiveByteIdenticalToP2pUnderBudget) {
  // Every lowering of the fused-lane executor on seeded random layouts:
  // flat and two-ranks-per-node topology, no budget / the one-lane floor /
  // a mid budget, and both completion orders — each layout runs with 4-byte
  // elements, where every lane is below the 32 KiB threshold and completes
  // post-all, and again with 128-byte elements, which push lanes over it
  // into the pipeline. Each must deliver exactly the bytes
  // the paper's alltoallw path delivers, agree on plan().waves across
  // ranks, and — under a budget — keep the pool's peak within the largest
  // wave (at most max(budget, largest inter lane)) plus the 8-byte pointers
  // the intra lanes publish.
  simnet::LinkParams cp = simnet::cooley_params();
  cp.ranks_per_node = 2;
  const simnet::LinkModel cooley(cp);
  std::mt19937 rng(818181);
  bool saw_pipeline = false;
  bool saw_post_all = false;
  for (int trial = 0; trial < 6; ++trial) {
    const int nranks = 3 + static_cast<int>(rng() % 4);
    Box domain;
    domain.ndims = 2 + trial % 2;
    // Sized so the whole float domain stays below 32 KiB (every lane
    // completes post-all) while 128-byte elements push lanes over it and
    // the pipeline actually runs.
    const int base = domain.ndims == 2 ? 45 : 10;
    for (int k = 0; k < domain.ndims; ++k) {
      domain.lo[static_cast<std::size_t>(k)] = 0;
      domain.hi[static_cast<std::size_t>(k)] =
          base + static_cast<int>(rng() % static_cast<unsigned>(base));
    }
    const auto boxes = random_partition(domain, nranks * 2, rng);
    ddr::GlobalLayout layout;
    layout.owned.resize(static_cast<std::size_t>(nranks));
    for (std::size_t i = 0; i < boxes.size(); ++i)
      layout.owned[i % static_cast<std::size_t>(nranks)].push_back(
          box_to_chunk(boxes[i]));
    for (int r = 0; r < nranks; ++r)
      layout.needed.push_back({box_to_chunk(random_subbox(domain, rng))});

    for (const std::size_t elem : {sizeof(float), std::size_t{128}}) {
      const auto want =
          run_backend(layout, Backend::alltoallw, 0, nullptr, elem).out;
      std::vector<ddr::ExchangeLane> lanes;
      (void)ddr::compute_stats(layout, elem, &lanes);
      for (const mpi::NetworkModel* net :
           {static_cast<const mpi::NetworkModel*>(nullptr),
            static_cast<const mpi::NetworkModel*>(&cooley)}) {
        const std::vector<ddr::ExchangeLane> inter =
            ddr::Planner::decide(lanes, net, 0).inter_lanes;
        std::int64_t inter_bytes = 0, largest = 0;
        for (const ddr::ExchangeLane& l : inter) {
          inter_bytes += l.bytes;
          largest = std::max(largest, l.bytes);
        }
        const bool post_all = largest < ddr::kPostAllLaneBytes;
        if (elem == sizeof(float)) {
          EXPECT_TRUE(post_all) << "trial " << trial;
        }
        saw_post_all = saw_post_all || (post_all && !inter.empty());
        saw_pipeline = saw_pipeline || !post_all;
        const std::int64_t intra_lanes =
            static_cast<std::int64_t>(lanes.size()) -
            static_cast<std::int64_t>(inter.size());
        // 1 B floors at the largest inter lane (one lane per wave); half the
        // inter traffic packs several lanes into each of a few waves.
        for (const std::size_t budget :
             {std::size_t{0}, std::size_t{1},
              static_cast<std::size_t>(std::max<std::int64_t>(
                  1, inter_bytes / 2))}) {
          const std::string where =
              "trial " + std::to_string(trial) + " elem " +
              std::to_string(elem) + (net ? " cooley" : " flat") +
              " budget " + std::to_string(budget);
          const RunResult got = run_backend(
              layout, Backend::point_to_point_pipelined, budget, net, elem);
          ASSERT_EQ(got.out.size(), want.size()) << where;
          for (std::size_t r = 0; r < got.out.size(); ++r) {
            ASSERT_EQ(got.out[r].size(), want[r].size()) << where;
            EXPECT_EQ(std::memcmp(got.out[r].data(), want[r].data(),
                                  got.out[r].size()),
                      0)
                << where << " rank " << r;
          }
          for (const int w : got.waves) EXPECT_EQ(w, got.waves[0]) << where;
          std::vector<ddr::ExchangeLane> sched = inter;
          EXPECT_EQ(got.waves[0], ddr::assign_waves(sched, budget)) << where;
          if (budget != 0) {
            const std::int64_t bound =
                std::max(largest, static_cast<std::int64_t>(budget)) +
                8 * intra_lanes;
            EXPECT_LE(got.peak, static_cast<std::uint64_t>(bound)) << where;
          }
        }
      }
    }
  }
  EXPECT_TRUE(saw_post_all) << "no layout completed post-all";
  EXPECT_TRUE(saw_pipeline) << "no layout had a lane large enough to pipeline";
}

TEST(PlannerProperty, AllgatherLoweringCutsPeakStagingAtEqualBytes) {
  // The acceptance case: a broadcast-shaped exchange moves the same bytes
  // with and without a budget, but the budgeted wave fences keep the pool's
  // concurrent footprint at a fraction of the all-at-once peak.
  const ddr::GlobalLayout layout = bcast3d_layout(32);

  // 12 lanes x 32 KB: unbudgeted, all 384 KB stage at once; a 64 KB budget
  // fences the sequence into waves of two lanes.
  const std::size_t budget = 64 * 1024;
  const RunResult a = run_backend(layout, Backend::point_to_point_pipelined, 0);
  const RunResult b =
      run_backend(layout, Backend::point_to_point_pipelined, budget);
  for (std::size_t r = 0; r < a.out.size(); ++r)
    EXPECT_EQ(
        std::memcmp(a.out[r].data(), b.out[r].data(), a.out[r].size()), 0);
  EXPECT_EQ(b.waves[0], 6);
  EXPECT_LE(b.peak, budget);
  EXPECT_LT(b.peak * 2, a.peak)
      << "the budgeted waves should at least halve the staging peak here";
}

TEST(PlannerProperty, AutomaticMatchesOracleAndExposesPlan) {
  // Backend::automatic resolves at setup() to the fused-lane executor and
  // must stay oracle-correct on random layouts; the resolution is exposed
  // through effective_backend() and the lowering through plan().
  std::mt19937 rng(929292);
  for (int trial = 0; trial < 5; ++trial) {
    const int nranks = 3 + static_cast<int>(rng() % 4);
    Box domain;
    domain.ndims = 1 + trial % 3;
    for (int k = 0; k < domain.ndims; ++k) {
      domain.lo[static_cast<std::size_t>(k)] = 0;
      domain.hi[static_cast<std::size_t>(k)] = 6 + static_cast<int>(rng() % 18);
    }
    const auto boxes = random_partition(domain, nranks * 2, rng);
    std::vector<ddr::OwnedLayout> owned(static_cast<std::size_t>(nranks));
    for (std::size_t i = 0; i < boxes.size(); ++i)
      owned[i % static_cast<std::size_t>(nranks)].push_back(
          box_to_chunk(boxes[i]));
    std::vector<Chunk> needed;
    for (int r = 0; r < nranks; ++r)
      needed.push_back(box_to_chunk(random_subbox(domain, rng)));

    mpi::run(nranks, [&](mpi::Comm& comm) {
      const auto rank = static_cast<std::size_t>(comm.rank());
      ddr::Redistributor rd(comm, sizeof(float));
      ddr::SetupOptions opts;
      opts.backend = Backend::automatic;
      rd.setup(owned[rank], needed[rank], opts);
      EXPECT_EQ(rd.effective_backend(), Backend::point_to_point_pipelined);
      EXPECT_EQ(rd.plan().waves, 1);

      std::vector<float> own_data;
      for (const auto& c : owned[rank]) {
        const auto v = fill_chunk(c);
        own_data.insert(own_data.end(), v.begin(), v.end());
      }
      std::vector<float> need_data(
          static_cast<std::size_t>(needed[rank].volume()), -1.0f);
      rd.redistribute(std::as_bytes(std::span<const float>(own_data)),
                      std::as_writable_bytes(std::span<float>(need_data)));

      const Chunk& c = needed[rank];
      const auto dim = [&](int d) {
        return d < c.ndims ? c.dims[static_cast<std::size_t>(d)] : 1;
      };
      const auto off = [&](int d) {
        return d < c.ndims ? c.offsets[static_cast<std::size_t>(d)] : 0;
      };
      std::size_t i = 0;
      for (int z = 0; z < dim(2); ++z)
        for (int y = 0; y < dim(1); ++y)
          for (int x = 0; x < dim(0); ++x) {
            ASSERT_EQ(need_data[i],
                      oracle_value(x + off(0), y + off(1), z + off(2)))
                << "trial " << trial << " rank " << comm.rank();
            ++i;
          }
    });
  }
}

/// Every rank's fused send lanes by class (self, intra, inter), summed over
/// the communicator, and the wave count every rank agreed on, after an
/// automatic setup() under `net` and `budget`.
struct LaneCensus {
  std::array<int, 3> lanes{};
  int waves = 0;
};

LaneCensus lane_census(const ddr::GlobalLayout& layout,
                       const mpi::NetworkModel* net, std::size_t budget) {
  const int nranks = layout.nranks();
  std::array<std::atomic<int>, 3> lanes{};
  std::vector<int> waves(static_cast<std::size_t>(nranks));
  mpi::RunOptions ropts;
  ropts.network = net;
  mpi::run(
      nranks,
      [&](mpi::Comm& comm) {
        const auto rank = static_cast<std::size_t>(comm.rank());
        ddr::Redistributor rd(comm, sizeof(float));
        ddr::SetupOptions opts;
        opts.backend = Backend::automatic;
        opts.peak_staging_bytes = budget;
        rd.setup(layout.owned[rank], layout.needed[rank], opts);
        waves[rank] = rd.plan().waves;
        for (const ddr::LaneClass c :
             {ddr::LaneClass::self, ddr::LaneClass::intra,
              ddr::LaneClass::inter})
          lanes[static_cast<std::size_t>(c)] += rd.fused_lane_count(c);
      },
      ropts);
  for (const int w : waves) EXPECT_EQ(w, waves[0]);
  return {{lanes[0].load(), lanes[1].load(), lanes[2].load()}, waves[0]};
}

TEST(PlannerWaves, ClassPlansUnderTwoRanksPerNode) {
  // Two ranks per node on strided3d: the fused lane set splits across all
  // three classes — each rank's self lane, 4 intra-node and 8 inter-node
  // lanes over the communicator — and the waves cover the inter lanes alone
  // (the intra lanes move zero-copy and never compete for the budget).
  const simnet::LinkModel model = two_per_node_cooley();
  const ddr::GlobalLayout layout = strided3d_layout();

  // 8 inter lanes of 64 KB, three per 200000 B wave.
  std::vector<ddr::ExchangeLane> lanes;
  (void)ddr::compute_stats(layout, sizeof(float), &lanes);
  const LaneCensus two = lane_census(layout, &model, 200000);
  EXPECT_EQ(two.lanes, (std::array<int, 3>{4, 4, 8}));
  EXPECT_EQ(two.waves, 3);
  EXPECT_EQ(ddr::Planner::decide(lanes, &model, 200000).decision.waves, 3);

  // Without a NetworkModel every non-self peer is another node: no intra
  // lanes, and without a budget the inter lanes are one pipelined wave.
  const LaneCensus flat = lane_census(layout, nullptr, 0);
  EXPECT_EQ(flat.lanes, (std::array<int, 3>{4, 0, 12}));
  EXPECT_EQ(flat.waves, 1);
  EXPECT_FALSE(ddr::Planner::decide(lanes, nullptr, 0).decision.post_all);
}

TEST(PlannerWaves, AutomaticUnderBudgetPicksWavedPipelined) {
  // Under a staging budget that rules out staging every inter lane at
  // once, automatic runs the fused-lane executor with its inter lanes in
  // waves; the intra lanes' bytes never stage, so the measured peak stays
  // within the largest wave plus one published pointer per intra lane.
  const simnet::LinkModel model = two_per_node_cooley();
  const RunResult got =
      run_backend(strided3d_layout(), Backend::automatic, 200000, &model);
  for (std::size_t r = 0; r < got.waves.size(); ++r) {
    EXPECT_EQ(got.backend[r], Backend::point_to_point_pipelined);
    EXPECT_EQ(got.waves[r], 3);
  }
  EXPECT_LE(got.peak, 3u * 65536u + 4u * 8u);
}

TEST(PlannerWaves, ByteIdenticalOnBenchCasesUnderTwoRanksPerNode) {
  // Every bench-fixture layout over a simulated two-ranks-per-node topology,
  // with and without a multi-wave budget: the fused-lane executor delivers
  // exactly the alltoallw bytes, and only the inter lanes stage — the
  // budget plus the published pointers bound the pool even though the
  // intra bytes exceed the budget.
  const simnet::LinkModel model = two_per_node_cooley();
  for (const ddr::GlobalLayout& layout :
       {strided3d_layout(), rows2d_layout(), bcast3d_layout(32)}) {
    const auto want = run_backend(layout, Backend::alltoallw, 0, &model).out;
    for (const std::size_t budget : {std::size_t{0}, std::size_t{65536}}) {
      const RunResult got = run_backend(
          layout, Backend::point_to_point_pipelined, budget, &model);
      ASSERT_EQ(got.out.size(), want.size());
      for (std::size_t r = 0; r < got.out.size(); ++r) {
        ASSERT_EQ(got.out[r].size(), want[r].size()) << "rank " << r;
        EXPECT_EQ(std::memcmp(got.out[r].data(), want[r].data(),
                              got.out[r].size()),
                  0)
            << "budget " << budget << " rank " << r;
      }
      if (budget != 0) {
        EXPECT_LE(got.peak, budget + 4u * 8u) << "budget " << budget;
      }
    }
  }
}

TEST(PlannerWaves, CrossRankAgreementUnderTwoRanksPerNode) {
  // Protocol consistency: every rank must resolve the identical backend,
  // wave count and completion order — a divergent wave schedule would
  // deadlock the fenced execution. The decision is a pure function of the
  // allgathered layout, so every rank's plan() must equal, field by field,
  // the offline Planner::decide() that ddrinfo --plan prints.
  const simnet::LinkModel model = two_per_node_cooley();
  const ddr::GlobalLayout layout = strided3d_layout();
  const int nranks = layout.nranks();
  std::vector<ddr::ExchangeLane> lanes;
  (void)ddr::compute_stats(layout, sizeof(float), &lanes);
  mpi::RunOptions ropts;
  ropts.network = &model;
  for (const std::size_t budget : {std::size_t{200000}, std::size_t{0}}) {
    std::vector<ddr::PlanDecision> plans(static_cast<std::size_t>(nranks));
    mpi::run(
        nranks,
        [&](mpi::Comm& comm) {
          const auto rank = static_cast<std::size_t>(comm.rank());
          ddr::Redistributor rd(comm, sizeof(float));
          ddr::SetupOptions opts;
          opts.backend = Backend::automatic;
          opts.peak_staging_bytes = budget;
          rd.setup(layout.owned[rank], layout.needed[rank], opts);
          plans[rank] = rd.plan();
          EXPECT_EQ(rd.effective_backend(), Backend::point_to_point_pipelined);
        },
        ropts);
    const ddr::PlanDecision want =
        ddr::Planner::decide(lanes, &model, budget).decision;
    for (int r = 0; r < nranks; ++r) {
      SCOPED_TRACE("budget " + std::to_string(budget) + " rank " +
                   std::to_string(r));
      const ddr::PlanDecision& got = plans[static_cast<std::size_t>(r)];
      EXPECT_EQ(got.waves, want.waves);
      EXPECT_EQ(got.post_all, want.post_all);
    }
  }
}

TEST(PlannerProperty, AutomaticAgreesAcrossRanksOnStrided3d) {
  // The protocol-consistency invariant: every rank must resolve automatic
  // to the same backend and the same wave schedule (here under a budget
  // that forces the wave sequence), and the exchange must complete — a
  // rank-divergent decision would deadlock or corrupt data.
  const ddr::GlobalLayout layout = strided3d_layout();
  const auto want = run_backend(layout, Backend::alltoallw, 0).out;
  const RunResult got = run_backend(layout, Backend::automatic, 200000);
  for (std::size_t r = 0; r < got.out.size(); ++r)
    EXPECT_EQ(
        std::memcmp(got.out[r].data(), want[r].data(), got.out[r].size()), 0)
        << "rank " << r;
  for (const int w : got.waves) EXPECT_EQ(w, 4);
  EXPECT_LE(got.peak, 200000u);
}

/// The schedule as the planner derived it before it read compute_stats'
/// fold: its own pass over every pair's transfers, skipping self and
/// same-node pairs, then greedy waves under the budget floored at the
/// largest lane.
struct OracleSchedule {
  std::vector<ddr::ExchangeLane> lanes;
  int waves = 1;
  bool post_all = true;
};

OracleSchedule oracle_schedule(const ddr::GlobalLayout& layout,
                               std::size_t elem, const mpi::NetworkModel* net,
                               std::size_t budget) {
  OracleSchedule o;
  for (int s = 0; s < layout.nranks(); ++s)
    for (int r = 0; r < layout.nranks(); ++r) {
      if (s == r || (net != nullptr && net->node_of(s) == net->node_of(r)))
        continue;
      std::int64_t bytes = 0;
      ddr::for_each_transfer(layout, s, r, elem,
                             [&](const ddr::Transfer& t) { bytes += t.bytes; });
      if (bytes > 0) o.lanes.push_back({s, r, bytes, 0});
    }
  std::int64_t largest = 0;
  for (const ddr::ExchangeLane& l : o.lanes)
    largest = std::max(largest, l.bytes);
  o.post_all = largest < ddr::kPostAllLaneBytes;
  if (o.lanes.empty() || budget == 0) return o;
  const std::int64_t eff = std::max(largest, static_cast<std::int64_t>(budget));
  std::int64_t acc = 0;
  int wave = 0;
  for (ddr::ExchangeLane& l : o.lanes) {
    if (acc > 0 && acc + l.bytes > eff) {
      ++wave;
      acc = 0;
    }
    l.wave = wave;
    acc += l.bytes;
  }
  o.waves = wave + 1;
  return o;
}

bool same_lanes(const std::vector<ddr::ExchangeLane>& a,
                const std::vector<ddr::ExchangeLane>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const ddr::ExchangeLane& x, const ddr::ExchangeLane& y) {
                      return x.sender == y.sender &&
                             x.receiver == y.receiver && x.bytes == y.bytes &&
                             x.wave == y.wave;
                    });
}

TEST(PlannerProperty, FoldedLanesMatchThePairwiseOracle) {
  // compute_stats' lane list is every non-self pair's summed transfers, and
  // the planner fed from it (filtering it by node, then deciding) schedules
  // exactly the lanes, waves and completion order of the pairwise oracle —
  // on 300 seeded layouts, flat and under two and three ranks per node,
  // with no budget, the one-lane floor and a mid budget.
  simnet::LinkParams p2 = simnet::cooley_params();
  p2.ranks_per_node = 2;
  simnet::LinkParams p3 = p2;
  p3.ranks_per_node = 3;
  const simnet::LinkModel two(p2), three(p3);
  std::mt19937 rng(20261021);
  int multi_wave = 0, pipelined = 0, no_lanes = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const int nranks = 1 + static_cast<int>(rng() % 8);
    Box domain;
    domain.ndims = 1 + trial % 3;
    for (std::size_t k = 0; k < static_cast<std::size_t>(domain.ndims); ++k) {
      domain.lo[k] = static_cast<int>(rng() % 5) - 2;
      domain.hi[k] = domain.lo[k] + 1 + static_cast<int>(rng() % 40);
    }
    const auto boxes = random_partition(
        domain, 1 + static_cast<int>(rng() % static_cast<unsigned>(4 * nranks)),
        rng);
    ddr::GlobalLayout layout;
    layout.owned.resize(static_cast<std::size_t>(nranks));
    layout.needed.resize(static_cast<std::size_t>(nranks));
    for (const Box& b : boxes)
      layout.owned[rng() % static_cast<unsigned>(nranks)].push_back(
          box_to_chunk(b));
    for (auto& need : layout.needed)
      for (int n = 1 + static_cast<int>(rng() % 2); n > 0; --n)
        need.push_back(box_to_chunk(random_subbox(domain, rng)));
    const std::size_t elem = rng() % 2 == 0 ? sizeof(float) : 96;
    const std::string where = "trial " + std::to_string(trial);

    std::vector<ddr::ExchangeLane> lanes;
    const ddr::MappingStats stats = ddr::compute_stats(layout, elem, &lanes);
    EXPECT_EQ(lane_bytes(lanes), stats.network_bytes) << where;
    const OracleSchedule flat = oracle_schedule(layout, elem, nullptr, 0);
    ASSERT_TRUE(same_lanes(lanes, flat.lanes)) << where;
    no_lanes += lanes.empty() ? 1 : 0;

    for (const mpi::NetworkModel* net :
         {static_cast<const mpi::NetworkModel*>(nullptr),
          static_cast<const mpi::NetworkModel*>(&two),
          static_cast<const mpi::NetworkModel*>(&three)}) {
      const std::int64_t inter_bytes =
          lane_bytes(oracle_schedule(layout, elem, net, 0).lanes);
      const auto third =
          static_cast<std::size_t>(std::max<std::int64_t>(1, inter_bytes / 3));
      for (const std::size_t budget : {std::size_t{0}, std::size_t{1}, third}) {
        const OracleSchedule want = oracle_schedule(layout, elem, net, budget);
        const ddr::Plan plan = ddr::Planner::decide(lanes, net, budget);
        const ddr::PlanDecision& got = plan.decision;
        const std::string at = where + (net == nullptr ? " flat" : " nodes") +
                               " budget " + std::to_string(budget);
        EXPECT_TRUE(same_lanes(plan.inter_lanes, want.lanes)) << at;
        EXPECT_EQ(got.waves, want.waves) << at;
        EXPECT_EQ(got.post_all, want.post_all) << at;
        multi_wave += got.waves > 1 ? 1 : 0;
        pipelined += got.post_all ? 0 : 1;
      }
    }
  }
  // The layouts must reach every case the comparison is meant to cover.
  EXPECT_GT(multi_wave, 300);
  EXPECT_GT(pipelined, 30);
  EXPECT_GT(no_lanes, 5);
}

}  // namespace
