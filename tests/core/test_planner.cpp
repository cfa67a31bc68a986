// ddr::Planner tests: golden PlanDecision pins for the bench fixtures (the
// planner must reproduce the measured winners), the wave scheduler of the
// fused-lane executor's inter-node lanes, the budget-forced wave sequence,
// and property tests that every lowering — flat and two-ranks-per-node
// topology, with and without a staging budget, both completion orders — is
// byte-identical to the paper's alltoallw path on random layouts while
// keeping the staging pool's peak under the requested budget.

#include <gtest/gtest.h>

#include <algorithm>
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

TEST(PlannerGolden, Strided3dPicksPipelined) {
  const ddr::GlobalLayout layout = strided3d_layout();
  const ddr::PlanDecision d =
      ddr::Planner::decide(layout, sizeof(float), nullptr, 0);
  EXPECT_EQ(d.backend, Backend::point_to_point_pipelined);
  EXPECT_EQ(d.shape, ddr::CollectiveShape::none);
  EXPECT_EQ(d.waves, 1);
  // 64 KB lanes clear the 32 KB threshold: the pipeline completion order.
  EXPECT_FALSE(d.post_all);
  ASSERT_EQ(d.candidates.size(), 2u);
  for (const ddr::CandidateCost& c : d.candidates) {
    // Without a budget nothing is over budget; without a NetworkModel every
    // peer is a different node, so every non-self byte is inter-node.
    EXPECT_TRUE(c.feasible) << ddr::backend_name(c.backend);
    EXPECT_EQ(c.inter_node_bytes, 786432) << ddr::backend_name(c.backend);
    EXPECT_EQ(c.intra_node_bytes, 0) << ddr::backend_name(c.backend);
  }
}

TEST(PlannerGolden, Rows2dPicksPostAllFusedLanes) {
  const ddr::PlanDecision d =
      ddr::Planner::decide(rows2d_layout(), sizeof(float), nullptr, 0);
  EXPECT_EQ(d.backend, Backend::point_to_point_pipelined);
  EXPECT_TRUE(d.post_all);
  EXPECT_STREQ(d.class_plans[2].lowering, "post_all");
  EXPECT_EQ(d.shape, ddr::CollectiveShape::none);
}

TEST(PlannerGolden, BroadcastShapeDetectedAsAllgather) {
  const ddr::PlanDecision d =
      ddr::Planner::decide(bcast3d_layout(32), sizeof(float), nullptr, 0);
  EXPECT_EQ(d.shape, ddr::CollectiveShape::allgather);
}

TEST(PlannerGolden, ScatterAndGatherShapes) {
  // One owner feeding per-rank slices: scatter. The transpose: gather.
  ddr::GlobalLayout scatter;
  scatter.owned = {{Chunk::d1(16, 0)}, {}, {}, {}};
  for (int r = 0; r < 4; ++r)
    scatter.needed.push_back({Chunk::d1(4, 4 * r)});
  EXPECT_EQ(ddr::Planner::decide(scatter, 4, nullptr, 0).shape,
            ddr::CollectiveShape::scatter);

  ddr::GlobalLayout gather;
  for (int r = 0; r < 4; ++r) {
    gather.owned.push_back({Chunk::d1(4, 4 * r)});
    gather.needed.push_back(r == 0 ? ddr::NeededLayout{Chunk::d1(16, 0)}
                                   : ddr::NeededLayout{});
  }
  EXPECT_EQ(ddr::Planner::decide(gather, 4, nullptr, 0).shape,
            ddr::CollectiveShape::gather);
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
  const ddr::PlanDecision a =
      ddr::Planner::decide(layout, sizeof(float), nullptr, 0);
  const ddr::PlanDecision b =
      ddr::Planner::decide(layout, sizeof(float), nullptr, 0);
  EXPECT_EQ(a.backend, b.backend);
  EXPECT_EQ(a.waves, b.waves);
  ASSERT_EQ(a.candidates.size(), b.candidates.size());
  for (std::size_t i = 0; i < a.candidates.size(); ++i)
    EXPECT_DOUBLE_EQ(a.candidates[i].predicted_s, b.candidates[i].predicted_s);
}

TEST(PlannerGolden, LinkModelSplitsIntraNodeBytes) {
  // Under a two-ranks-per-node model, strided3d's lane to the node
  // neighbour leaves the inter-node byte count: the planner must price it
  // as zero-copy intra traffic, not link traffic.
  simnet::LinkParams p = simnet::cooley_params();
  p.ranks_per_node = 2;
  const simnet::LinkModel model(p);
  const ddr::PlanDecision d =
      ddr::Planner::decide(strided3d_layout(), sizeof(float), &model, 0);
  ASSERT_FALSE(d.candidates.empty());
  EXPECT_EQ(d.candidates[0].inter_node_bytes + d.candidates[0].intra_node_bytes,
            786432);
  EXPECT_GT(d.candidates[0].intra_node_bytes, 0);
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
  // 90000 B is below the 98304 B one alltoallw round stages and the
  // 786432 B every inter lane stages at once, so only the collective
  // (wave-sequenced) lowering stays feasible: the fused-lane executor with
  // its 64 KB inter lanes fenced one per wave.
  const ddr::PlanDecision d =
      ddr::Planner::decide(strided3d_layout(), sizeof(float), nullptr, 90000);
  EXPECT_EQ(d.backend, Backend::point_to_point_pipelined);
  EXPECT_EQ(d.waves, 12);
  EXPECT_LE(d.predicted_peak_staging, 90000u);
  EXPECT_STREQ(d.class_plans[2].lowering, "fenced_waves");
  for (const ddr::CandidateCost& c : d.candidates) {
    if (c.backend == Backend::alltoallw)
      EXPECT_STREQ(c.infeasible_reason, "over budget");
    else
      EXPECT_TRUE(c.feasible) << ddr::backend_name(c.backend);
  }
}

/// One redistribute() over a layout: every rank's needed buffer (for
/// byte-identity checks), every rank's plan().waves, and the staging pool's
/// peak over the exchange alone. The peak is restarted after setup, whose
/// metadata allgathers would otherwise dominate small layouts, and the
/// precondition agreement is off: its allreduce's 8-byte control messages
/// are not exchange staging.
struct RunResult {
  std::vector<std::vector<std::byte>> out;
  std::vector<int> waves;
  std::uint64_t peak = 0;
};

RunResult run_backend(const ddr::GlobalLayout& layout, Backend backend,
                std::size_t budget, const mpi::NetworkModel* net = nullptr,
                std::size_t elem_size = sizeof(float)) {
  const int nranks = layout.nranks();
  RunResult run;
  run.out.resize(static_cast<std::size_t>(nranks));
  run.waves.resize(static_cast<std::size_t>(nranks));
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
      for (const mpi::NetworkModel* net :
           {static_cast<const mpi::NetworkModel*>(nullptr),
            static_cast<const mpi::NetworkModel*>(&cooley)}) {
        std::vector<ddr::ExchangeLane> inter =
            ddr::inter_node_lanes(layout, elem, net);
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
            static_cast<std::int64_t>(
                ddr::inter_node_lanes(layout, elem).size()) -
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
  const ddr::PlanDecision d =
      ddr::Planner::decide(layout, sizeof(float), nullptr, 0);
  EXPECT_EQ(d.shape, ddr::CollectiveShape::allgather);

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
  // Backend::automatic resolves at setup() and must stay oracle-correct on
  // random layouts; the resolved decision is exposed through plan() and
  // effective_backend().
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
      EXPECT_EQ(rd.effective_backend(), rd.plan().backend);
      EXPECT_NE(rd.plan().backend, Backend::automatic);
      EXPECT_EQ(rd.plan().candidates.size(), 2u);

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

simnet::LinkModel two_per_node_cooley() {
  simnet::LinkParams p = simnet::cooley_params();
  p.ranks_per_node = 2;
  return simnet::LinkModel(p);
}

TEST(PlannerWaves, ClassPlansUnderTwoRanksPerNode) {
  // Two ranks per node on strided3d: the fused lane set splits across all
  // three classes and the decision must expose a consistent partition —
  // class rows in self/intra/inter order, bytes partitioning the total
  // payload, the lowering per class, and a wave count over the inter lanes
  // alone (the intra lanes move zero-copy and never compete for the budget).
  const simnet::LinkModel model = two_per_node_cooley();
  const ddr::PlanDecision d = ddr::Planner::decide(
      strided3d_layout(), sizeof(float), &model, 200000);
  const ddr::CandidateCost* pipelined = nullptr;
  for (const ddr::CandidateCost& c : d.candidates)
    if (c.backend == Backend::point_to_point_pipelined) pipelined = &c;
  ASSERT_NE(pipelined, nullptr);
  EXPECT_TRUE(pipelined->feasible);

  ASSERT_EQ(d.class_plans.size(), 3u);
  EXPECT_EQ(d.class_plans[0].cls, ddr::LaneClass::self);
  EXPECT_EQ(d.class_plans[1].cls, ddr::LaneClass::intra);
  EXPECT_EQ(d.class_plans[2].cls, ddr::LaneClass::inter);
  EXPECT_STREQ(d.class_plans[0].lowering, "copy_regions");
  EXPECT_STREQ(d.class_plans[1].lowering, "ptr_publish");
  EXPECT_STREQ(d.class_plans[2].lowering, "fenced_waves");
  EXPECT_EQ(d.class_plans[1].lanes, 4);
  EXPECT_EQ(d.class_plans[2].lanes, 8);
  // Each rank's gathered brick covers its own interleaved slabs too: 64 KB
  // of self traffic per rank, 256 KB across the communicator. Self + intra
  // + inter partition the full 64^3 float payload.
  EXPECT_EQ(d.class_plans[0].bytes, 262144);
  EXPECT_EQ(d.class_plans[0].bytes + d.class_plans[1].bytes +
                d.class_plans[2].bytes,
            1048576);
  // The intra/inter rows partition the non-self payload exactly as the
  // candidate table's locality split does.
  EXPECT_EQ(d.class_plans[1].bytes, pipelined->intra_node_bytes);
  EXPECT_EQ(d.class_plans[2].bytes, pipelined->inter_node_bytes);
  // 8 inter lanes of 64 KB, three per 200000 B wave.
  EXPECT_EQ(d.waves, 3);

  // Without a NetworkModel every non-self peer is another node: the intra
  // row stays empty, and without a budget the inter lanes are one
  // pipelined wave.
  const ddr::PlanDecision flat =
      ddr::Planner::decide(strided3d_layout(), sizeof(float), nullptr, 0);
  ASSERT_EQ(flat.class_plans.size(), 3u);
  EXPECT_EQ(flat.class_plans[1].lanes, 0);
  EXPECT_EQ(flat.class_plans[1].bytes, 0);
  EXPECT_STREQ(flat.class_plans[2].lowering, "pipelined");
  EXPECT_EQ(flat.waves, 1);
}

TEST(PlannerWaves, AutomaticUnderBudgetPicksWavedPipelined) {
  // Under a staging budget that rules out staging every inter lane at
  // once, automatic picks the fused-lane executor with its inter lanes in
  // waves; the intra lanes' bytes never stage, so the predicted peak is the
  // largest wave plus one published pointer per intra lane.
  const simnet::LinkModel model = two_per_node_cooley();
  const ddr::PlanDecision d = ddr::Planner::decide(
      strided3d_layout(), sizeof(float), &model, 200000);
  EXPECT_EQ(d.backend, Backend::point_to_point_pipelined);
  EXPECT_EQ(d.waves, 3);
  EXPECT_EQ(d.predicted_peak_staging, 3u * 65536u + 4u * 8u);
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
  // wave count and per-class partition — a divergent wave schedule would
  // deadlock the fenced execution. The decision is a pure function of the
  // allgathered layout, so every rank's plan() must equal, field by field,
  // the offline decide() that ddrinfo --plan prints.
  const simnet::LinkModel model = two_per_node_cooley();
  const ddr::GlobalLayout layout = strided3d_layout();
  const int nranks = layout.nranks();
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
          EXPECT_EQ(rd.effective_backend(), rd.plan().backend);
        },
        ropts);
    const ddr::PlanDecision want =
        ddr::Planner::decide(layout, sizeof(float), &model, budget);
    for (int r = 0; r < nranks; ++r) {
      SCOPED_TRACE("budget " + std::to_string(budget) + " rank " +
                   std::to_string(r));
      const ddr::PlanDecision& got = plans[static_cast<std::size_t>(r)];
      EXPECT_EQ(got.backend, want.backend);
      EXPECT_EQ(got.predicted_s, want.predicted_s);
      EXPECT_EQ(got.predicted_peak_staging, want.predicted_peak_staging);
      EXPECT_EQ(got.shape, want.shape);
      EXPECT_EQ(got.waves, want.waves);
      EXPECT_EQ(got.post_all, want.post_all);
      ASSERT_EQ(got.class_plans.size(), want.class_plans.size());
      for (std::size_t i = 0; i < want.class_plans.size(); ++i) {
        const ddr::ClassPlan& a = got.class_plans[i];
        const ddr::ClassPlan& b = want.class_plans[i];
        EXPECT_EQ(a.cls, b.cls);
        EXPECT_EQ(a.lanes, b.lanes);
        EXPECT_EQ(a.bytes, b.bytes);
        EXPECT_EQ(a.predicted_s, b.predicted_s);
        EXPECT_STREQ(a.lowering, b.lowering);
      }
      ASSERT_EQ(got.candidates.size(), want.candidates.size());
      for (std::size_t i = 0; i < want.candidates.size(); ++i) {
        const ddr::CandidateCost& a = got.candidates[i];
        const ddr::CandidateCost& b = want.candidates[i];
        EXPECT_EQ(a.backend, b.backend);
        EXPECT_EQ(a.predicted_s, b.predicted_s);
        EXPECT_EQ(a.messages, b.messages);
        EXPECT_EQ(a.inter_node_bytes, b.inter_node_bytes);
        EXPECT_EQ(a.intra_node_bytes, b.intra_node_bytes);
        EXPECT_EQ(a.self_bytes, b.self_bytes);
        EXPECT_EQ(a.predicted_peak_staging, b.predicted_peak_staging);
        EXPECT_EQ(a.feasible, b.feasible);
        EXPECT_STREQ(a.infeasible_reason, b.infeasible_reason);
      }
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

}  // namespace
