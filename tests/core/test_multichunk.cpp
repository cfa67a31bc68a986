// Tests for the multi-chunk-receive extension (the paper's §V future work,
// "support for more data patterns"): a rank may declare SEVERAL needed
// chunks, packed consecutively in its destination buffer. Covers the
// halo-pattern use case, overlapping needed chunks, struct-of-subarray lane
// coalescing, both backends, and a random-layout oracle sweep.

#include <gtest/gtest.h>

#include <random>
#include <span>
#include <vector>

#include "ddr/ddr.hpp"
#include "minimpi/minimpi.hpp"
#include "test_util.hpp"

namespace {

using ddr::Backend;
using ddr::Chunk;
using ddr::NeededLayout;
using ddr::Redistributor;
using ddr_test::box_to_chunk;
using ddr_test::fill_chunk;
using ddr_test::oracle_value;
using ddr_test::random_partition;
using ddr_test::random_subbox;

std::span<const std::byte> cbytes(const std::vector<float>& v) {
  return std::as_bytes(std::span<const float>(v));
}
std::span<std::byte> wbytes(std::vector<float>& v) {
  return std::as_writable_bytes(std::span<float>(v));
}

/// Verifies the concatenated needed buffer against the oracle.
void expect_oracle_multi(const std::vector<float>& data,
                         const NeededLayout& needed) {
  std::size_t i = 0;
  for (const Chunk& c : needed) {
    const auto dim = [&](int d) {
      return d < c.ndims ? c.dims[static_cast<std::size_t>(d)] : 1;
    };
    const auto off = [&](int d) {
      return d < c.ndims ? c.offsets[static_cast<std::size_t>(d)] : 0;
    };
    for (int z = 0; z < dim(2); ++z)
      for (int y = 0; y < dim(1); ++y)
        for (int x = 0; x < dim(0); ++x) {
          ASSERT_EQ(data[i], oracle_value(x + off(0), y + off(1), z + off(2)))
              << "chunk " << c.describe() << " local (" << x << "," << y
              << "," << z << ")";
          ++i;
        }
  }
  ASSERT_EQ(i, data.size());
}

/// The exchange family a MultiBackends instance runs: the paper's per-round
/// alltoallw, or point-to-point (the fused-lane executor). The suite is
/// parameterized on the family rather than on Backend so that its instance
/// ids stay fixed when the executor behind a family changes.
enum class Exchange : int { alltoallw = 0, p2p = 1 };

Backend backend_of(Exchange e) {
  return e == Exchange::alltoallw ? Backend::alltoallw
                                  : Backend::point_to_point_pipelined;
}

class MultiBackends : public ::testing::TestWithParam<Exchange> {};

TEST_P(MultiBackends, BlockPlusHaloColumns) {
  // 1-D halo pattern: each of 4 ranks owns a 16-element block and needs its
  // block PLUS one-element halos from each neighbour — three needed chunks.
  const Backend backend = backend_of(GetParam());
  mpi::run(4, [backend](mpi::Comm& comm) {
    const int r = comm.rank();
    const int p = comm.size();
    const ddr::OwnedLayout own{Chunk::d1(16, 16 * r)};
    NeededLayout need;
    if (r > 0) need.push_back(Chunk::d1(1, 16 * r - 1));  // left halo
    need.push_back(Chunk::d1(16, 16 * r));                // my block
    if (r < p - 1) need.push_back(Chunk::d1(1, 16 * (r + 1)));  // right halo

    Redistributor rd(comm, sizeof(float));
    ddr::SetupOptions opts;
    opts.backend = backend;
    rd.setup(own, need, opts);

    std::vector<float> own_data = fill_chunk(own[0]);
    std::vector<float> need_data(rd.needed_bytes() / sizeof(float), -1.0f);
    rd.redistribute(cbytes(own_data), wbytes(need_data));
    expect_oracle_multi(need_data, need);
  });
}

TEST_P(MultiBackends, TwoQuadrantsPerRank2D) {
  // 2 ranks each need two diagonal quadrants of an 8x8 domain — a pattern
  // impossible to express as one contiguous chunk.
  const Backend backend = backend_of(GetParam());
  mpi::run(2, [backend](mpi::Comm& comm) {
    const int r = comm.rank();
    const ddr::OwnedLayout own{Chunk::d2(8, 4, 0, 4 * r)};
    NeededLayout need;
    if (r == 0) {
      need = {Chunk::d2(4, 4, 0, 0), Chunk::d2(4, 4, 4, 4)};  // main diagonal
    } else {
      need = {Chunk::d2(4, 4, 4, 0), Chunk::d2(4, 4, 0, 4)};  // anti-diagonal
    }
    Redistributor rd(comm, sizeof(float));
    ddr::SetupOptions opts;
    opts.backend = backend;
    rd.setup(own, need, opts);
    EXPECT_EQ(rd.needed_bytes(), 32 * sizeof(float));

    std::vector<float> own_data = fill_chunk(own[0]);
    std::vector<float> need_data(32, -1.0f);
    rd.redistribute(cbytes(own_data), wbytes(need_data));
    expect_oracle_multi(need_data, need);
  });
}

TEST_P(MultiBackends, OverlappingNeededChunksWithinOneRank) {
  // The same region requested twice by one rank must be delivered to both
  // destination chunks.
  const Backend backend = backend_of(GetParam());
  mpi::run(2, [backend](mpi::Comm& comm) {
    const int r = comm.rank();
    const ddr::OwnedLayout own{Chunk::d1(8, 8 * r)};
    const NeededLayout need{Chunk::d1(6, 2), Chunk::d1(6, 6)};  // overlap [6,8)
    Redistributor rd(comm, sizeof(float));
    ddr::SetupOptions opts;
    opts.backend = backend;
    rd.setup(own, need, opts);

    std::vector<float> own_data = fill_chunk(own[0]);
    std::vector<float> need_data(12, -1.0f);
    rd.redistribute(cbytes(own_data), wbytes(need_data));
    expect_oracle_multi(need_data, need);
  });
}

TEST_P(MultiBackends, ThreeDimensionalMultiBrick) {
  // 2 ranks, each needing two small bricks of a 4x4x4 domain.
  const Backend backend = backend_of(GetParam());
  mpi::run(2, [backend](mpi::Comm& comm) {
    const int r = comm.rank();
    const ddr::OwnedLayout own{Chunk::d3(4, 4, 2, 0, 0, 2 * r)};
    const NeededLayout need{Chunk::d3(2, 2, 2, 2 * r, 0, 0),
                            Chunk::d3(2, 2, 2, 0, 2 * r, 2)};
    Redistributor rd(comm, sizeof(float));
    ddr::SetupOptions opts;
    opts.backend = backend;
    rd.setup(own, need, opts);

    std::vector<float> own_data = fill_chunk(own[0]);
    std::vector<float> need_data(16, -1.0f);
    rd.redistribute(cbytes(own_data), wbytes(need_data));
    expect_oracle_multi(need_data, need);
  });
}

INSTANTIATE_TEST_SUITE_P(AllBackends, MultiBackends,
                         ::testing::Values(Exchange::alltoallw, Exchange::p2p),
                         [](const auto& info) {
                           return info.param == Exchange::alltoallw
                                      ? "alltoallw"
                                      : "p2p";
                         });

TEST(MultiChunk, RandomLayoutsMatchOracle) {
  // Property sweep: random owned partitions, 1-3 random needed boxes per
  // rank, 2-D and 3-D, alternating backends.
  std::mt19937 rng(20260706);
  for (int trial = 0; trial < 10; ++trial) {
    const int ndims = 2 + trial % 2;
    const int nranks = 3 + static_cast<int>(rng() % 4);
    ddr::Box domain;
    domain.ndims = ndims;
    for (int d = 0; d < ndims; ++d) {
      domain.lo[static_cast<std::size_t>(d)] = 0;
      domain.hi[static_cast<std::size_t>(d)] =
          std::uniform_int_distribution<std::int64_t>(5, 14)(rng);
    }
    const auto boxes = random_partition(domain, nranks * 2, rng);
    std::vector<ddr::OwnedLayout> owned(static_cast<std::size_t>(nranks));
    for (std::size_t i = 0; i < boxes.size(); ++i)
      owned[i % static_cast<std::size_t>(nranks)].push_back(
          box_to_chunk(boxes[i]));
    std::vector<NeededLayout> needed(static_cast<std::size_t>(nranks));
    for (auto& nl : needed) {
      const int count = 1 + static_cast<int>(rng() % 3);
      for (int j = 0; j < count; ++j)
        nl.push_back(box_to_chunk(random_subbox(domain, rng)));
    }
    const Backend backend = trial % 2 == 0
                                ? Backend::alltoallw
                                : Backend::point_to_point_pipelined;

    mpi::run(nranks, [&](mpi::Comm& comm) {
      const auto r = static_cast<std::size_t>(comm.rank());
      Redistributor rd(comm, sizeof(float));
      ddr::SetupOptions opts;
      opts.backend = backend;
      rd.setup(owned[r], needed[r], opts);

      std::vector<float> own_data;
      for (const auto& c : owned[r]) {
        const auto v = fill_chunk(c);
        own_data.insert(own_data.end(), v.begin(), v.end());
      }
      std::vector<float> need_data(rd.needed_bytes() / sizeof(float), -1.0f);
      rd.redistribute(cbytes(own_data), wbytes(need_data));
      expect_oracle_multi(need_data, needed[r]);
    });
  }
}

TEST(MultiChunk, StatsCountAllNeededChunks) {
  ddr::GlobalLayout l;
  l.owned.push_back({Chunk::d1(8, 0)});
  l.owned.push_back({Chunk::d1(8, 8)});
  // Rank 0 needs two chunks covering everything; rank 1 needs nothing.
  l.needed.push_back({Chunk::d1(8, 0), Chunk::d1(8, 8)});
  l.needed.push_back(NeededLayout{});
  const auto s = ddr::compute_stats(l, 4);
  EXPECT_EQ(s.self_bytes, 8 * 4);
  EXPECT_EQ(s.network_bytes, 8 * 4);
  const auto ts = ddr::enumerate_transfers(l, 4);
  ASSERT_EQ(ts.size(), 2u);
  EXPECT_EQ(ts[0].needed_index, 0);
  EXPECT_EQ(ts[1].needed_index, 1);
}

TEST(MultiChunk, CApiMultiEntryPoint) {
  // DDR_SetupDataMappingMulti: same halo pattern through the C-style API.
  mpi::run(2, [](mpi::Comm& comm) {
    const int r = comm.rank();
    DDR_DataDescriptor* desc = DDR_NewDataDescriptor(
        2, DDR_DATA_TYPE_1D, DDR_FLOAT, sizeof(float), comm);
    const int dims_own[] = {8};
    const int offsets_own[] = {8 * r};
    // Each rank needs its block plus the adjacent 2 elements of the peer.
    const int dims_need[] = {8, 2};
    const int offsets_need[] = {8 * r, r == 0 ? 8 : 6};
    DDR_SetupDataMappingMulti(r, 2, 1, dims_own, offsets_own, 2, dims_need,
                              offsets_need, desc);

    std::vector<float> own(8), need(10, -1.0f);
    for (int i = 0; i < 8; ++i)
      own[static_cast<std::size_t>(i)] = oracle_value(8 * r + i, 0, 0);
    DDR_ReorganizeData(2, own.data(), need.data(), desc);

    for (int i = 0; i < 8; ++i)
      EXPECT_EQ(need[static_cast<std::size_t>(i)],
                oracle_value(8 * r + i, 0, 0));
    const int halo0 = r == 0 ? 8 : 6;
    EXPECT_EQ(need[8], oracle_value(halo0, 0, 0));
    EXPECT_EQ(need[9], oracle_value(halo0 + 1, 0, 0));
    DDR_FreeDataDescriptor(desc);
  });
}

TEST(MultiChunk, EmptyNeededLayoutRejectedBySetup) {
  EXPECT_THROW(mpi::run(1,
                        [](mpi::Comm& comm) {
                          Redistributor rd(comm, 4);
                          rd.setup({Chunk::d1(4, 0)}, NeededLayout{});
                        }),
               ddr::Error);
}

TEST(MultiChunk, MixedDimensionalityInNeededRejected) {
  EXPECT_THROW(
      mpi::run(1,
               [](mpi::Comm& comm) {
                 Redistributor rd(comm, 4);
                 rd.setup({Chunk::d2(4, 4, 0, 0)},
                          NeededLayout{Chunk::d2(2, 2, 0, 0), Chunk::d1(4, 0)});
               }),
      ddr::Error);
}

}  // namespace
