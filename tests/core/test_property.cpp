// Property-based tests: random mutually-exclusive+complete owned partitions
// and random (possibly overlapping, possibly hole-leaving) needed boxes must
// always redistribute to the analytic oracle, in 1D/2D/3D, on both backends.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <random>
#include <span>
#include <vector>

#include "ddr/ddr.hpp"
#include "minimpi/minimpi.hpp"
#include "test_util.hpp"
#include "trace/trace.hpp"

namespace {

using ddr::Backend;
using ddr::Box;
using ddr::Chunk;
using ddr_test::box_to_chunk;
using ddr_test::fill_chunk;
using ddr_test::oracle_value;
using ddr_test::random_partition;
using ddr_test::random_subbox;

struct Scenario {
  int ndims;
  int nranks;
  Backend backend;
  unsigned seed;
};

// "p2p" names the point-to-point backend, the fused-lane executor.
std::string scenario_name(const ::testing::TestParamInfo<Scenario>& info) {
  return "d" + std::to_string(info.param.ndims) + "_p" +
         std::to_string(info.param.nranks) + "_" +
         (info.param.backend == Backend::alltoallw ? "w" : "p2p");
}

Box make_domain(int ndims, std::mt19937& rng) {
  Box d;
  d.ndims = ndims;
  std::uniform_int_distribution<std::int64_t> ext(4, 24);
  for (int k = 0; k < ndims; ++k) {
    d.lo[static_cast<std::size_t>(k)] = 0;
    d.hi[static_cast<std::size_t>(k)] = ext(rng);
  }
  return d;
}

class RandomRedistribution : public ::testing::TestWithParam<Scenario> {};

TEST_P(RandomRedistribution, MatchesOracle) {
  const Scenario sc = GetParam();
  std::mt19937 rng(sc.seed);

  for (int trial = 0; trial < 8; ++trial) {
    const Box domain = make_domain(sc.ndims, rng);
    // Partition into about 2.5 chunks per rank on average, dealt
    // round-robin so chunk counts differ across ranks.
    const auto boxes =
        random_partition(domain, sc.nranks * 2 + sc.nranks / 2, rng);
    std::vector<ddr::OwnedLayout> owned(static_cast<std::size_t>(sc.nranks));
    for (std::size_t i = 0; i < boxes.size(); ++i)
      owned[i % static_cast<std::size_t>(sc.nranks)].push_back(
          box_to_chunk(boxes[i]));
    std::vector<Chunk> needed;
    for (int r = 0; r < sc.nranks; ++r)
      needed.push_back(box_to_chunk(random_subbox(domain, rng)));

    mpi::run(sc.nranks, [&](mpi::Comm& comm) {
      const auto rank = static_cast<std::size_t>(comm.rank());
      ddr::Redistributor rd(comm, sizeof(float));
      ddr::SetupOptions opts;
      opts.backend = sc.backend;
      rd.setup(owned[rank], needed[rank], opts);

      std::vector<float> own_data;
      for (const auto& c : owned[rank]) {
        const auto v = fill_chunk(c);
        own_data.insert(own_data.end(), v.begin(), v.end());
      }
      std::vector<float> need_data(
          static_cast<std::size_t>(needed[rank].volume()), -1.0f);
      rd.redistribute(std::as_bytes(std::span<const float>(own_data)),
                      std::as_writable_bytes(std::span<float>(need_data)));

      // Oracle check over the needed box.
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
                << "trial " << trial << " rank " << comm.rank() << " local ("
                << x << "," << y << "," << z << ")";
            ++i;
          }
    });
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RandomRedistribution,
    ::testing::Values(Scenario{1, 3, Backend::alltoallw, 101},
                      Scenario{1, 5, Backend::point_to_point_pipelined, 102},
                      Scenario{2, 4, Backend::alltoallw, 201},
                      Scenario{2, 7, Backend::point_to_point_pipelined, 202},
                      Scenario{2, 9, Backend::alltoallw, 203},
                      Scenario{3, 4, Backend::alltoallw, 301},
                      Scenario{3, 6, Backend::point_to_point_pipelined, 302},
                      Scenario{3, 8, Backend::alltoallw, 303}),
    scenario_name);

TEST(PropertyInvariants, StatsConserveBytes) {
  // For any random layout: self_bytes + network_bytes must equal the total
  // bytes needed (summed over ranks), because owned chunks are complete.
  std::mt19937 rng(4242);
  for (int trial = 0; trial < 20; ++trial) {
    const int nranks = 2 + static_cast<int>(rng() % 7);
    const Box domain = make_domain(2, rng);
    const auto boxes = random_partition(domain, nranks * 2, rng);
    ddr::GlobalLayout layout;
    layout.owned.resize(static_cast<std::size_t>(nranks));
    for (std::size_t i = 0; i < boxes.size(); ++i)
      layout.owned[i % static_cast<std::size_t>(nranks)].push_back(
          box_to_chunk(boxes[i]));
    std::int64_t needed_total = 0;
    for (int r = 0; r < nranks; ++r) {
      const Box nb = random_subbox(domain, rng);
      layout.needed.push_back({box_to_chunk(nb)});
      needed_total += nb.volume() * 4;
    }
    const auto s = ddr::compute_stats(layout, 4);
    EXPECT_EQ(s.self_bytes + s.network_bytes, needed_total) << "trial " << trial;
    EXPECT_EQ(s.rounds, layout.rounds());
  }
}

TEST(PropertyInvariants, TransfersPartitionTheNeededBoxes) {
  // The incoming transfers of each rank must cover its needed box exactly
  // once (no double-delivery): volumes sum AND pairwise disjoint.
  std::mt19937 rng(777);
  for (int trial = 0; trial < 10; ++trial) {
    const int nranks = 3 + static_cast<int>(rng() % 4);
    const Box domain = make_domain(3, rng);
    const auto boxes = random_partition(domain, nranks * 2, rng);
    ddr::GlobalLayout layout;
    layout.owned.resize(static_cast<std::size_t>(nranks));
    for (std::size_t i = 0; i < boxes.size(); ++i)
      layout.owned[i % static_cast<std::size_t>(nranks)].push_back(
          box_to_chunk(boxes[i]));
    for (int r = 0; r < nranks; ++r)
      layout.needed.push_back({box_to_chunk(random_subbox(domain, rng))});

    const auto transfers = ddr::enumerate_transfers(layout, 1);
    for (int r = 0; r < nranks; ++r) {
      std::vector<Box> incoming;
      std::int64_t covered = 0;
      for (const auto& t : transfers)
        if (t.receiver == r) {
          incoming.push_back(t.region);
          covered += t.region.volume();
        }
      EXPECT_EQ(covered,
                layout.needed[static_cast<std::size_t>(r)][0].volume());
      for (std::size_t i = 0; i < incoming.size(); ++i)
        for (std::size_t j = i + 1; j < incoming.size(); ++j)
          EXPECT_FALSE(ddr::overlaps(incoming[i], incoming[j]))
              << "double delivery to rank " << r;
    }
  }
}

TEST(PropertyInvariants, TracedBytesConserveDomain) {
  // Dynamic counterpart of StatsConserveBytes, measured from the trace layer
  // instead of the static cost model: when both the owned and the needed
  // sides are mutually-exclusive+complete partitions of the domain, every
  // domain byte is delivered exactly once, so across all ranks
  //   sum(ddr.msg.send bytes) == sum(ddr.msg.recv bytes)       (network), and
  //   network + sum(mpi.copy_regions bytes)  == domain bytes   (self lanes).
  // Self lanes must never surface as message instants — only as zero-copy
  // region-copy spans.
  const Backend backends[] = {Backend::alltoallw,
                              Backend::point_to_point_pipelined};
  std::mt19937 rng(9090);
  for (int trial = 0; trial < 6; ++trial) {
    const int nranks = 3 + static_cast<int>(rng() % 4);
    const Box domain = make_domain(2 + trial % 2, rng);
    const auto own_boxes = random_partition(domain, nranks * 2, rng);
    const auto need_boxes = random_partition(domain, nranks * 2 + 1, rng);
    std::vector<ddr::OwnedLayout> owned(static_cast<std::size_t>(nranks));
    std::vector<ddr::NeededLayout> needed(static_cast<std::size_t>(nranks));
    for (std::size_t i = 0; i < own_boxes.size(); ++i)
      owned[i % static_cast<std::size_t>(nranks)].push_back(
          box_to_chunk(own_boxes[i]));
    for (std::size_t i = 0; i < need_boxes.size(); ++i)
      needed[i % static_cast<std::size_t>(nranks)].push_back(
          box_to_chunk(need_boxes[i]));

    std::vector<trace::Recorder> recs;
    recs.reserve(static_cast<std::size_t>(nranks));
    for (int r = 0; r < nranks; ++r) recs.emplace_back(r);

    mpi::run(nranks, [&](mpi::Comm& comm) {
      const auto rank = static_cast<std::size_t>(comm.rank());
      ddr::Redistributor rd(comm, sizeof(float));
      rd.trace_sink(&recs[rank]);
      ddr::SetupOptions opts;
      opts.backend = backends[trial % 2];
      rd.setup(owned[rank], needed[rank], opts);
      recs[rank].clear();
      std::vector<float> src(rd.owned_bytes() / sizeof(float), 1.0f);
      std::vector<float> dst(rd.needed_bytes() / sizeof(float));
      rd.redistribute(std::as_bytes(std::span<const float>(src)),
                      std::as_writable_bytes(std::span<float>(dst)));
    });

    std::int64_t sent = 0, recvd = 0, copied = 0;
    for (int r = 0; r < nranks; ++r) {
      const auto& ev = recs[static_cast<std::size_t>(r)].events();
      ASSERT_TRUE(trace::spans_balanced(ev)) << "trial " << trial;
      sent += trace::total_bytes(ev, "ddr.msg.send");
      recvd += trace::total_bytes(ev, "ddr.msg.recv");
      copied += trace::total_bytes(ev, "mpi.copy_regions");
      const auto by_peer_s = trace::bytes_by_peer(ev, "ddr.msg.send");
      const auto by_peer_r = trace::bytes_by_peer(ev, "ddr.msg.recv");
      EXPECT_FALSE(by_peer_s.contains(r)) << "self lane sent as message";
      EXPECT_FALSE(by_peer_r.contains(r)) << "self lane received as message";
    }
    EXPECT_EQ(sent, recvd) << "trial " << trial;
    EXPECT_EQ(sent + copied,
              domain.volume() * static_cast<std::int64_t>(sizeof(float)))
        << "trial " << trial;
  }
}

TEST(PropertyInvariants, ResizeMatchesFreshSetupOnRandomLayouts) {
  // M -> N resize equivalence: a committed resize_rebalance must land every
  // member on exactly the layout an N-rank run would compute offline from
  // the same pre-resize partition (the planner is deterministic, so the
  // offline proposal IS the fresh-setup layout), holding oracle-correct
  // bytes; the plan must conserve bytes (kept + moved == total) and never
  // move more than the naive full re-scatter.
  const auto expect_chunks = [](const ddr::OwnedLayout& got,
                                const ddr::OwnedLayout& want) {
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].ndims, want[i].ndims) << "chunk " << i;
      for (std::size_t d = 0; d < ddr::kMaxDims; ++d) {
        EXPECT_EQ(got[i].dims[d], want[i].dims[d]) << "chunk " << i;
        EXPECT_EQ(got[i].offsets[d], want[i].offsets[d]) << "chunk " << i;
      }
    }
  };
  const auto expect_oracle_data = [](const ddr::OwnedLayout& owned,
                                     const std::vector<std::byte>& data) {
    std::size_t off = 0;
    for (const Chunk& c : owned) {
      const std::vector<float> want = fill_chunk(c);
      ASSERT_LE(off + want.size() * sizeof(float), data.size());
      std::vector<float> got(want.size());
      std::memcpy(got.data(), data.data() + off, want.size() * sizeof(float));
      for (std::size_t i = 0; i < want.size(); ++i)
        ASSERT_EQ(got[i], want[i]) << "element " << i;
      off += want.size() * sizeof(float);
    }
    EXPECT_EQ(off, data.size());
  };

  std::mt19937 rng(20260808);
  const int cases[][2] = {{3, 5}, {5, 3}, {4, 4}, {2, 6}, {6, 2}};
  for (int trial = 0; trial < 5; ++trial) {
    const int m = cases[trial][0];
    const int n = cases[trial][1];
    const Box domain = make_domain(1 + trial % 3, rng);
    const auto boxes = random_partition(domain, m * 2, rng);
    std::vector<ddr::OwnedLayout> owned(static_cast<std::size_t>(m));
    for (std::size_t i = 0; i < boxes.size(); ++i)
      owned[i % static_cast<std::size_t>(m)].push_back(box_to_chunk(boxes[i]));
    const std::vector<ddr::OwnedLayout> proposed =
        ddr::propose_resize_layout(owned, n);

    std::atomic<int> committed{0};
    const auto check = [&](const ddr::ResizeOutcome& out) {
      ASSERT_TRUE(out.comm.valid());
      ASSERT_EQ(out.comm.size(), n);
      expect_chunks(out.owned,
                    proposed[static_cast<std::size_t>(out.comm.rank())]);
      expect_oracle_data(out.owned, out.data);
      committed.fetch_add(1);
    };
    mpi::RunOptions opts;
    opts.max_ranks = std::max(m, n);
    opts.joiner_main = [&](mpi::Comm& comm) {
      const auto out = ddr::Redistributor::resize_join(comm, sizeof(float));
      ASSERT_TRUE(out.committed) << "trial " << trial;
      check(out);
    };
    mpi::run(
        m,
        [&](mpi::Comm& comm) {
          const auto rank = static_cast<std::size_t>(comm.rank());
          std::vector<float> data;
          for (const Chunk& c : owned[rank]) {
            const auto v = fill_chunk(c);
            data.insert(data.end(), v.begin(), v.end());
          }
          ddr::Redistributor r(comm, sizeof(float));
          const auto out = r.resize_rebalance(
              n, owned[rank], std::as_bytes(std::span<const float>(data)));
          ASSERT_TRUE(out.committed) << "trial " << trial;
          EXPECT_EQ(out.stats.kept_bytes + out.stats.moved_bytes,
                    out.stats.total_bytes);
          EXPECT_LE(out.stats.moved_bytes, out.stats.naive_bytes);
          if (out.retired) {
            EXPECT_FALSE(out.comm.valid());
            EXPECT_TRUE(out.data.empty());
            return;
          }
          check(out);
        },
        opts);
    EXPECT_EQ(committed.load(), n) << "trial " << trial;
  }
}

}  // namespace
