// End-to-end tests of the C++ Redistributor API: both backends, all three
// dimensionalities, contract violations, and the use-case-shaped layouts
// (TIFF slabs -> bricks, LBM slices -> near-square rectangles).

#include <gtest/gtest.h>

#include <atomic>
#include <span>
#include <string>
#include <vector>

#include "ddr/ddr.hpp"
#include "minimpi/minimpi.hpp"
#include "test_util.hpp"

namespace {

using ddr::Backend;
using ddr::Chunk;
using ddr::Redistributor;
using ddr_test::fill_chunk;
using ddr_test::oracle_value;

[[maybe_unused]] std::span<const std::byte> bytes_of(
    const std::vector<float>& v) {
  return std::as_bytes(std::span<const float>(v));
}
std::span<std::byte> bytes_of(std::vector<float>& v) {
  return std::as_writable_bytes(std::span<float>(v));
}

/// Checks a needed buffer against the oracle.
void expect_oracle(const std::vector<float>& need, const Chunk& c) {
  std::size_t i = 0;
  const auto dim = [&](int d) {
    return d < c.ndims ? c.dims[static_cast<std::size_t>(d)] : 1;
  };
  const auto off = [&](int d) {
    return d < c.ndims ? c.offsets[static_cast<std::size_t>(d)] : 0;
  };
  for (int z = 0; z < dim(2); ++z)
    for (int y = 0; y < dim(1); ++y)
      for (int x = 0; x < dim(0); ++x) {
        EXPECT_EQ(need[i], oracle_value(x + off(0), y + off(1), z + off(2)))
            << "at local (" << x << "," << y << "," << z << ")";
        ++i;
      }
}

class Backends : public ::testing::TestWithParam<Backend> {};

TEST_P(Backends, RowsToQuadrants2D) {
  const Backend backend = GetParam();
  mpi::run(4, [backend](mpi::Comm& comm) {
    const int rank = comm.rank();
    Redistributor r(comm, sizeof(float));
    const ddr::OwnedLayout own{Chunk::d2(8, 1, 0, rank),
                               Chunk::d2(8, 1, 0, rank + 4)};
    const Chunk need = Chunk::d2(4, 4, 4 * (rank % 2), 4 * (rank / 2));
    ddr::SetupOptions opts;
    opts.backend = backend;
    r.setup(own, need, opts);

    std::vector<float> own_data;
    for (const auto& c : own) {
      const auto v = fill_chunk(c);
      own_data.insert(own_data.end(), v.begin(), v.end());
    }
    std::vector<float> need_data(static_cast<std::size_t>(need.volume()), -1);
    r.redistribute(bytes_of(own_data), bytes_of(need_data));
    expect_oracle(need_data, need);
  });
}

TEST_P(Backends, SlabsToBricks3D) {
  // The TIFF use case in miniature: 8 z-slices read as slabs by 8 ranks,
  // needed as 2x2x2 bricks of a 8x8x8 volume.
  const Backend backend = GetParam();
  mpi::run(8, [backend](mpi::Comm& comm) {
    const int rank = comm.rank();
    Redistributor r(comm, sizeof(float));
    const ddr::OwnedLayout own{Chunk::d3(8, 8, 1, 0, 0, rank)};
    const int bx = rank % 2, by = (rank / 2) % 2, bz = rank / 4;
    const Chunk need = Chunk::d3(4, 4, 4, 4 * bx, 4 * by, 4 * bz);
    ddr::SetupOptions opts;
    opts.backend = backend;
    r.setup(own, need, opts);
    EXPECT_EQ(r.rounds(), 1);

    std::vector<float> own_data = fill_chunk(own[0]);
    std::vector<float> need_data(static_cast<std::size_t>(need.volume()), -1);
    r.redistribute(bytes_of(own_data), bytes_of(need_data));
    expect_oracle(need_data, need);
  });
}

TEST_P(Backends, SlicesToNearSquares2D) {
  // The LBM use case in miniature: 6 producer slices covering the width of
  // a 12x12 domain, redistributed to 4 near-square consumer rectangles.
  const Backend backend = GetParam();
  mpi::run(6, [backend](mpi::Comm& comm) {
    const int rank = comm.rank();
    Redistributor r(comm, sizeof(float));
    const ddr::OwnedLayout own{Chunk::d2(12, 2, 0, 2 * rank)};
    // Ranks 0-3 need 6x6 quadrants; ranks 4-5 need nothing (M != N).
    Chunk need = Chunk::d2(0, 0, 0, 0);
    if (rank < 4) need = Chunk::d2(6, 6, 6 * (rank % 2), 6 * (rank / 2));
    ddr::SetupOptions opts;
    opts.backend = backend;
    r.setup(own, need, opts);

    std::vector<float> own_data = fill_chunk(own[0]);
    std::vector<float> need_data(static_cast<std::size_t>(need.volume()), -1);
    r.redistribute(bytes_of(own_data), bytes_of(need_data));
    if (rank < 4) expect_oracle(need_data, need);
  });
}

TEST_P(Backends, OverlappingNeedsReplicateData) {
  // Receive side may overlap: both ranks want the full 1D domain (halo-free
  // replication), while each owns half.
  const Backend backend = GetParam();
  mpi::run(2, [backend](mpi::Comm& comm) {
    const int rank = comm.rank();
    Redistributor r(comm, sizeof(float));
    const ddr::OwnedLayout own{Chunk::d1(8, 8 * rank)};
    const Chunk need = Chunk::d1(16, 0);
    ddr::SetupOptions opts;
    opts.backend = backend;
    r.setup(own, need, opts);

    std::vector<float> own_data = fill_chunk(own[0]);
    std::vector<float> need_data(16, -1);
    r.redistribute(bytes_of(own_data), bytes_of(need_data));
    expect_oracle(need_data, need);
  });
}

TEST_P(Backends, UnevenChunkCountsPadRounds) {
  // Rank 0 owns three chunks, rank 1 owns one: three rounds, and ranks with
  // fewer chunks still participate in every collective call.
  const Backend backend = GetParam();
  mpi::run(2, [backend](mpi::Comm& comm) {
    const int rank = comm.rank();
    Redistributor r(comm, sizeof(float));
    ddr::OwnedLayout own;
    if (rank == 0) {
      own = {Chunk::d1(4, 0), Chunk::d1(4, 8), Chunk::d1(4, 12)};
    } else {
      own = {Chunk::d1(4, 4)};
    }
    const Chunk need = Chunk::d1(8, 8 * rank);
    ddr::SetupOptions opts;
    opts.backend = backend;
    r.setup(own, need, opts);
    EXPECT_EQ(r.rounds(), 3);

    std::vector<float> own_data;
    for (const auto& c : own) {
      const auto v = fill_chunk(c);
      own_data.insert(own_data.end(), v.begin(), v.end());
    }
    std::vector<float> need_data(8, -1);
    r.redistribute(bytes_of(own_data), bytes_of(need_data));
    expect_oracle(need_data, need);
  });
}

INSTANTIATE_TEST_SUITE_P(AllBackends, Backends,
                         ::testing::Values(Backend::alltoallw,
                                           Backend::point_to_point_pipelined),
                         [](const auto& info) {
                           return info.param == Backend::alltoallw
                                      ? "alltoallw"
                                      : "p2p_pipelined";
                         });

TEST(Redistributor, BackendsProduceIdenticalResults) {
  mpi::run(4, [](mpi::Comm& comm) {
    const int rank = comm.rank();
    const ddr::OwnedLayout own{Chunk::d2(8, 2, 0, 2 * rank)};
    const Chunk need = Chunk::d2(4, 4, 4 * (rank % 2), 4 * (rank / 2));
    std::vector<float> own_data = fill_chunk(own[0]);

    std::vector<float> via_w(16, -1), via_fused(16, -3);
    {
      Redistributor r(comm, sizeof(float));
      r.setup(own, need);
      r.redistribute(bytes_of(own_data), bytes_of(via_w));
    }
    {
      Redistributor r(comm, sizeof(float));
      ddr::SetupOptions opts;
      opts.backend = Backend::point_to_point_pipelined;
      r.setup(own, need, opts);
      r.redistribute(bytes_of(own_data), bytes_of(via_fused));
    }
    EXPECT_EQ(via_w, via_fused);
  });
}

TEST(Redistributor, FusedBackendPostsOneMessagePerPeerPair) {
  // The whole point of fusion: the fused-lane backend (pipelined) cuts the
  // message count from rounds x peers to peers. 4 ranks each own 4
  // round-robin chunks (4 rounds) and every rank needs the whole domain, so
  // every peer pair has traffic in every round.
  constexpr int kGoTag = 7, kDoneTag = 8;
  mpi::run(4, [](mpi::Comm& comm) {
    const int rank = comm.rank();
    const int p = comm.size();
    ddr::OwnedLayout own;
    for (int c = 0; c < 4; ++c) own.push_back(Chunk::d1(4, 4 * (rank + 4 * c)));
    const Chunk need = Chunk::d1(64, 0);
    std::vector<float> own_data;
    for (const auto& c : own) {
      const auto v = fill_chunk(c);
      own_data.insert(own_data.end(), v.begin(), v.end());
    }
    std::vector<float> need_data(64, -1);
    const mpi::Datatype byte = mpi::Datatype::bytes(1);

    // Disable the precondition allreduce so the counter diff sees only data
    // messages. The counter is world-global, so rank 0 brackets everyone's
    // redistribute with explicit go/done messages: nobody posts before the
    // "before" read (all blocked on go) and everything is posted before the
    // "after" read (a rank sends done only after its call returns).
    ddr::SetupOptions opts;
    opts.collective_error_agreement = false;

    auto count_messages = [&](Backend b) -> std::uint64_t {
      Redistributor r(comm, sizeof(float));
      opts.backend = b;
      r.setup(own, need, opts);
      std::uint64_t before = 0;
      if (rank == 0) {
        // Wait until every rank is past setup (all its collective traffic
        // posted) and parked in recv(go) before snapshotting the counter.
        for (int q = 1; q < p; ++q) comm.recv(nullptr, 0, byte, q, kDoneTag);
        before = comm.messages_posted();
        for (int q = 1; q < p; ++q) comm.send(nullptr, 0, byte, q, kGoTag);
      } else {
        comm.send(nullptr, 0, byte, 0, kDoneTag);
        comm.recv(nullptr, 0, byte, 0, kGoTag);
      }
      r.redistribute(bytes_of(own_data), bytes_of(need_data));
      expect_oracle(need_data, need);
      if (rank != 0) {
        comm.send(nullptr, 0, byte, 0, kDoneTag);
        // Hold here until rank 0 has read the counter — otherwise this
        // rank's next setup() would post messages into the open window.
        comm.recv(nullptr, 0, byte, 0, kGoTag);
        return 0;
      }
      for (int q = 1; q < p; ++q) comm.recv(nullptr, 0, byte, q, kDoneTag);
      const std::uint64_t window = comm.messages_posted() - before;
      for (int q = 1; q < p; ++q) comm.send(nullptr, 0, byte, q, kGoTag);
      return window;
    };

    const std::uint64_t plain = count_messages(Backend::alltoallw);
    const std::uint64_t fused =
        count_messages(Backend::point_to_point_pipelined);
    if (rank == 0) {
      // Window contents: 3 go + data + 3 done. Data: every rank sends to its
      // 3 peers once per round (4 rounds) under the per-round alltoallw,
      // once total in the fused backend; self lanes are direct copies, no
      // messages.
      EXPECT_EQ(plain, 3u + 4u * 3u * 4u + 3u);
      EXPECT_EQ(fused, 3u + 4u * 3u + 3u);
    }
  });
}

TEST(Redistributor, SetupRejectsOverlappingOwnedChunks) {
  EXPECT_THROW(mpi::run(2,
                        [](mpi::Comm& comm) {
                          Redistributor r(comm, 4);
                          // Both ranks claim the same half.
                          const ddr::OwnedLayout own{Chunk::d1(8, 0)};
                          r.setup(own, Chunk::d1(8, 0));
                        }),
               ddr::Error);
}

TEST(Redistributor, SetupRejectsIncompleteOwnedLayout) {
  EXPECT_THROW(mpi::run(2,
                        [](mpi::Comm& comm) {
                          Redistributor r(comm, 4);
                          // [8, 12) of the bounding box is unowned.
                          const ddr::OwnedLayout own{
                              comm.rank() == 0 ? Chunk::d1(8, 0)
                                               : Chunk::d1(4, 12)};
                          r.setup(own, Chunk::d1(4, comm.rank() * 4));
                        }),
               ddr::Error);
}

TEST(Redistributor, RedistributeBeforeSetupThrows) {
  EXPECT_THROW(mpi::run(1,
                        [](mpi::Comm& comm) {
                          Redistributor r(comm, 4);
                          std::vector<float> a(4), b(4);
                          r.redistribute(bytes_of(a), bytes_of(b));
                        }),
               ddr::Error);
}

TEST(Redistributor, MismatchedElementSizeThrowsOnEveryRank) {
  // Rank 0 moves 4-byte elements, rank 1 8-byte ones: setup() must fail on
  // both ranks with one error naming both sizes, not let the exchange
  // misread the bytes later.
  std::vector<std::string> errors(2);
  mpi::run(2, [&](mpi::Comm& comm) {
    const int rank = comm.rank();
    Redistributor r(comm, rank == 0 ? 4 : 8);
    try {
      r.setup({Chunk::d1(8, 8 * rank)}, Chunk::d1(16, 0));
      ADD_FAILURE() << "rank " << rank << " accepted mismatched element sizes";
    } catch (const ddr::Error& e) {
      errors[static_cast<std::size_t>(rank)] = e.what();
    }
  });
  EXPECT_EQ(errors[0], errors[1]);
  EXPECT_NE(errors[0].find("rank 0 declared 4-byte elements but rank 1 "
                           "declared 8"),
            std::string::npos)
      << errors[0];
}

TEST(Redistributor, NegativeExtentThrowsOnEveryRank) {
  // A negative extent, owned or needed, fails setup() on every rank with
  // one error naming the rank and the chunk (zero extents stay legal).
  for (const bool owned_side : {false, true}) {
    std::vector<std::string> errors(2);
    mpi::run(2, [&](mpi::Comm& comm) {
      const int rank = comm.rank();
      Redistributor r(comm, sizeof(float));
      const Chunk bad = Chunk::d1(-8, 0);
      const Chunk own = rank == 1 && owned_side ? bad : Chunk::d1(8, 8 * rank);
      const Chunk need = rank == 1 && !owned_side ? bad : Chunk::d1(16, 0);
      try {
        r.setup({own, Chunk::d1(0, 16)}, need);
        ADD_FAILURE() << "rank " << rank << " accepted a negative extent";
      } catch (const ddr::Error& e) {
        errors[static_cast<std::size_t>(rank)] = e.what();
      }
    });
    EXPECT_EQ(errors[0], errors[1]);
    const std::string want = std::string("rank 1's ") +
                             (owned_side ? "owned" : "needed") +
                             " chunk 0 has a negative extent (-8";
    EXPECT_NE(errors[0].find(want), std::string::npos) << errors[0];
  }
}

TEST(Redistributor, FailedSetupVoidsThePreviousMapping) {
  // A setup() that throws must not leave the previous mapping executable:
  // every rank's next redistribute() fails with the collective "call
  // setup() first" error instead of moving the data by the old mapping.
  std::atomic<int> threw{0};
  mpi::run(2, [&](mpi::Comm& comm) {
    Redistributor r(comm, sizeof(float));
    r.setup({Chunk::d1(8, 8 * comm.rank())}, Chunk::d1(16, 0));
    EXPECT_TRUE(r.is_setup());
    // Both ranks claim [0, 8): overlapping owned chunks, rejected on both.
    EXPECT_THROW(r.setup({Chunk::d1(8, 0)}, Chunk::d1(16, 0)), ddr::Error);
    EXPECT_FALSE(r.is_setup());
    std::vector<float> own(8, 1.0f), need(16, -1.0f);
    try {
      r.redistribute(bytes_of(own), bytes_of(need));
    } catch (const ddr::Error& e) {
      EXPECT_NE(std::string(e.what()).find("call setup() first"),
                std::string::npos)
          << e.what();
      threw.fetch_add(1);
    }
  });
  EXPECT_EQ(threw.load(), 2);
}

TEST(Redistributor, UndersizedBuffersThrow) {
  EXPECT_THROW(mpi::run(1,
                        [](mpi::Comm& comm) {
                          Redistributor r(comm, sizeof(float));
                          r.setup({Chunk::d1(8, 0)}, Chunk::d1(8, 0));
                          std::vector<float> a(8), b(2);  // b too small
                          r.redistribute(bytes_of(a), bytes_of(b));
                        }),
               ddr::Error);
}

TEST(Redistributor, MixedDimensionalityRejected) {
  EXPECT_THROW(mpi::run(1,
                        [](mpi::Comm& comm) {
                          Redistributor r(comm, 4);
                          r.setup({Chunk::d1(8, 0)}, Chunk::d2(2, 4, 0, 0));
                        }),
               ddr::Error);
}

TEST(Redistributor, SetupCanBeRerunForNewLayout) {
  // Layout changes require a new setup (paper: mapping reusable only "as
  // long as the layout of data remains consistent"); re-setup must work.
  mpi::run(2, [](mpi::Comm& comm) {
    const int rank = comm.rank();
    Redistributor r(comm, sizeof(float));
    r.setup({Chunk::d1(8, 8 * rank)}, Chunk::d1(8, 8 * (1 - rank)));
    std::vector<float> own = fill_chunk(Chunk::d1(8, 8 * rank));
    std::vector<float> need(8, -1);
    r.redistribute(bytes_of(own), bytes_of(need));
    expect_oracle(need, Chunk::d1(8, 8 * (1 - rank)));

    // Second layout: swap to identity.
    r.setup({Chunk::d1(8, 8 * rank)}, Chunk::d1(8, 8 * rank));
    std::vector<float> need2(8, -1);
    r.redistribute(bytes_of(own), bytes_of(need2));
    expect_oracle(need2, Chunk::d1(8, 8 * rank));
  });
}

}  // namespace
