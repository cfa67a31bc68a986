// Pencil-transpose workload properties: a forward + inverse FFT transpose
// chain must be byte-identical to the initial slab buffer on randomized grid
// sizes and rank counts, on EVERY backend (including the planner's automatic
// mode and the fused-lane executor's fenced waves under a tight staging
// budget), under a simnet topology; and the generator's closed-form
// accounting must agree exactly with the geometric mapping machinery.

#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "ddr/ddr.hpp"
#include "minimpi/minimpi.hpp"
#include "simnet/models.hpp"
#include "workloads/workloads.hpp"

namespace {

using ddr::Backend;
using workloads::Accounting;
using workloads::PencilParams;
using workloads::PencilTimestepper;
using workloads::PencilTranspose;
using workloads::Stage;

float cell_value(std::int64_t x, std::int64_t y, std::int64_t z) {
  return static_cast<float>(((x * 31 + y) * 31 + z) % 509) * 0.5f;
}

std::vector<std::byte> oracle_slab(const ddr::Chunk& c) {
  std::vector<std::byte> out(static_cast<std::size_t>(c.volume()) *
                             sizeof(float));
  std::size_t off = 0;
  for (int z = 0; z < c.dims[2]; ++z)
    for (int y = 0; y < c.dims[1]; ++y)
      for (int x = 0; x < c.dims[0]; ++x) {
        const float v = cell_value(c.offsets[0] + x, c.offsets[1] + y,
                                   c.offsets[2] + z);
        std::memcpy(out.data() + off, &v, sizeof(float));
        off += sizeof(float);
      }
  return out;
}

PencilParams random_params(int nranks, std::mt19937& rng) {
  std::uniform_int_distribution<int> ext(nranks, nranks + 16);
  PencilParams p;
  p.nranks = nranks;
  p.nx = ext(rng);
  p.ny = ext(rng);
  p.nz = ext(rng);
  p.elem_size = sizeof(float);
  return p;
}

TEST(PencilAccounting, MatchesComputeStatsOnRandomGrids) {
  // The Table-III-style closed-form accounting (1-D block-interval overlap
  // products, remainder-aware) must agree EXACTLY with ddr::compute_stats
  // over the geometric mapping, for every stage pair, grid shape and rank
  // count — two independent derivations of the same physics.
  std::mt19937 rng(20260808u);
  const Stage stages[] = {Stage::slab, Stage::pencil_y, Stage::pencil_z};
  for (const int nranks : {1, 2, 3, 4, 5, 6, 7, 8, 12}) {
    for (int trial = 0; trial < 3; ++trial) {
      const PencilParams p = random_params(nranks, rng);
      const PencilTranspose gen(p);
      const std::int64_t domain_bytes =
          static_cast<std::int64_t>(p.nx) * p.ny * p.nz *
          static_cast<std::int64_t>(p.elem_size);
      for (const Stage from : stages)
        for (const Stage to : stages) {
          const Accounting a = gen.accounting(from, to);
          const ddr::MappingStats s =
              ddr::compute_stats(gen.transpose_layout(from, to), p.elem_size);
          const std::string where =
              std::string(workloads::stage_name(from)) + "->" +
              workloads::stage_name(to) + " p=" + std::to_string(nranks) +
              " grid " + std::to_string(p.nx) + "x" + std::to_string(p.ny) +
              "x" + std::to_string(p.nz);
          EXPECT_EQ(a.self_bytes, s.self_bytes) << where;
          EXPECT_EQ(a.network_bytes, s.network_bytes) << where;
          // Stages partition the grid exactly, so every domain byte is
          // delivered exactly once.
          EXPECT_EQ(a.self_bytes + a.network_bytes, domain_bytes) << where;
          EXPECT_EQ(a.total_bytes, domain_bytes) << where;
          const auto transfers =
              ddr::enumerate_transfers(gen.transpose_layout(from, to),
                                       p.elem_size);
          std::int64_t lanes = 0;
          for (const auto& t : transfers)
            if (t.sender != t.receiver) ++lanes;
          EXPECT_EQ(a.messages, lanes) << where;
        }
    }
  }
}

struct Scenario {
  int nranks;
  Backend backend;
  bool tight_budget;  ///< cap peak_staging_bytes well below the domain
  unsigned seed;
};

std::string scenario_name(const ::testing::TestParamInfo<Scenario>& info) {
  std::string n = "p" + std::to_string(info.param.nranks) + "_" +
                  ddr::backend_name(info.param.backend);
  if (info.param.tight_budget) n += "_budget";
  return n;
}

class PencilRoundTrip : public ::testing::TestWithParam<Scenario> {};

TEST_P(PencilRoundTrip, ByteIdenticalOnRandomGrids) {
  const Scenario sc = GetParam();
  std::mt19937 rng(sc.seed);
  const simnet::LinkModel model(simnet::cooley_params());
  mpi::RunOptions ropts;
  ropts.network = &model;

  for (int trial = 0; trial < 2; ++trial) {
    const PencilParams p = random_params(sc.nranks, rng);
    const PencilTranspose gen(p);
    mpi::run(
        sc.nranks,
        [&](mpi::Comm& comm) {
          ddr::SetupOptions opt;
          opt.backend = sc.backend;
          if (sc.tight_budget) opt.peak_staging_bytes = 512;
          PencilTimestepper ts(comm, p, opt);

          const ddr::Chunk mine = gen.chunk(Stage::slab, comm.rank());
          std::vector<std::byte> slab = oracle_slab(mine);
          const std::vector<std::byte> initial = slab;
          ASSERT_EQ(slab.size(), ts.slab_bytes());

          ts.run(2, slab);
          ASSERT_EQ(slab, initial)
              << "rank " << comm.rank() << " grid " << p.nx << "x" << p.ny
              << "x" << p.nz;

          // The chain is compiled once and replayed; step() onto a separate
          // output buffer must work too (repeatability contract).
          std::vector<std::byte> out(ts.slab_bytes());
          ts.step(slab, out);
          ASSERT_EQ(out, initial);
        },
        ropts);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, PencilRoundTrip,
    ::testing::Values(
        // Every backend on 4 ranks (square process grid)...
        Scenario{4, Backend::alltoallw, false, 11u},
        Scenario{4, Backend::point_to_point_pipelined, false, 14u},
        Scenario{4, Backend::automatic, false, 16u},
        // ...the planner and the budgeted fused-lane executor across rank
        // counts, including prime (1 x P grid) and non-square (2 x 3)
        // shapes. Cooley's two ranks per node gives every chain transposes
        // with self, intra AND inter lanes; the budget forces multi-wave
        // inter sequences next to the zero-copy intra lanes.
        Scenario{2, Backend::automatic, false, 21u},
        Scenario{3, Backend::point_to_point_pipelined, true, 22u},
        Scenario{3, Backend::automatic, false, 23u},
        Scenario{6, Backend::point_to_point_pipelined, true, 24u},
        Scenario{6, Backend::automatic, false, 25u},
        Scenario{4, Backend::point_to_point_pipelined, true, 26u}),
    scenario_name);

}  // namespace
