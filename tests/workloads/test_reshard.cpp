// SPMD resharding workload properties: random sharding -> sharding changes
// must conserve bytes (closed-form accounting == geometric mapping == what
// actually arrives), the planner's decision on reshard shapes must be
// identical on every rank, and a plan_resize-driven resize of a resharded
// tensor must land on exactly the layout a fresh setup would compute —
// extending PropertyInvariants.ResizeMatchesFreshSetupOnRandomLayouts to
// sharded specs.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <mutex>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "ddr/ddr.hpp"
#include "minimpi/minimpi.hpp"
#include "test_util.hpp"
#include "workloads/workloads.hpp"

namespace {

using ddr::Backend;
using ddr::Chunk;
using ddr_test::fill_chunk;
using workloads::Accounting;
using workloads::ReshardParams;
using workloads::ReshardSampler;
using workloads::ReshardSuite;
using workloads::ShardingSpec;

TEST(ReshardAccounting, MatchesComputeStatsOnRandomChanges) {
  // Closed-form accounting (mesh coordinate maps + per-axis block-interval
  // overlaps, replication multiplying the delivered bytes) vs. the
  // geometric mapping machinery: exact agreement required, including on
  // replicated destinations where total > domain.
  for (const int nranks : {2, 3, 4, 6, 8, 12, 16}) {
    ReshardSampler sampler(7000u + static_cast<unsigned>(nranks), nranks, 3,
                           {24, 18, 20}, sizeof(float));
    for (int trial = 0; trial < 6; ++trial) {
      const ReshardParams p = sampler.next();
      const ReshardSuite suite(p);
      const Accounting a = suite.accounting();
      const ddr::GlobalLayout layout = suite.layout();
      const ddr::MappingStats s = ddr::compute_stats(layout, p.elem_size);
      const std::string where = "p=" + std::to_string(nranks) + " " +
                                p.src.describe(p.ndims) + "  ->  " +
                                p.dst.describe(p.ndims);
      EXPECT_EQ(a.self_bytes, s.self_bytes) << where;
      EXPECT_EQ(a.network_bytes, s.network_bytes) << where;
      // Conservation: everything the destination sharding needs is
      // delivered, either locally or over the network.
      std::int64_t needed_bytes = 0;
      for (const auto& nl : layout.needed)
        for (const Chunk& c : nl)
          needed_bytes +=
              c.volume() * static_cast<std::int64_t>(p.elem_size);
      EXPECT_EQ(a.total_bytes, needed_bytes) << where;
      EXPECT_EQ(a.self_bytes + a.network_bytes, needed_bytes) << where;
      const auto transfers = ddr::enumerate_transfers(layout, p.elem_size);
      std::int64_t lanes = 0;
      for (const auto& t : transfers)
        if (t.sender != t.receiver) ++lanes;
      EXPECT_EQ(a.messages, lanes) << where;
    }
  }
}

TEST(ReshardProperty, ChangesConserveBytesAndPlannerAgreesAcrossRanks) {
  // Live end-to-end on >= 3 rank counts: every destination shard receives
  // exactly the oracle values its chunk covers, the measured MappingStats
  // equal the analytic accounting, and the backend and PlanDecision every
  // rank derived under Backend::automatic are identical (the
  // protocol-consistency invariant the planner documents).
  for (const int nranks : {2, 4, 6}) {
    ReshardSampler sampler(9100u + static_cast<unsigned>(nranks), nranks, 3,
                           {nranks + 9, nranks + 5, nranks + 7},
                           sizeof(float));
    for (int trial = 0; trial < 3; ++trial) {
      const ReshardParams p = sampler.next();
      const ReshardSuite suite(p);
      const Accounting a = suite.accounting();

      std::mutex mu;
      std::vector<ddr::PlanDecision> plans(static_cast<std::size_t>(nranks));
      std::vector<Backend> backends(static_cast<std::size_t>(nranks));
      mpi::run(nranks, [&](mpi::Comm& comm) {
        const int rank = comm.rank();
        ddr::Redistributor rd(comm, p.elem_size);
        ddr::SetupOptions opt;
        opt.backend = Backend::automatic;
        rd.setup({ReshardSuite::chunk(p.src, p.ndims, p.dims, rank)},
                 ReshardSuite::chunk(p.dst, p.ndims, p.dims, rank), opt);

        EXPECT_EQ(rd.stats().self_bytes, a.self_bytes);
        EXPECT_EQ(rd.stats().network_bytes, a.network_bytes);

        const std::vector<float> own =
            fill_chunk(ReshardSuite::chunk(p.src, p.ndims, p.dims, rank));
        std::vector<std::byte> need(rd.needed_bytes());
        rd.redistribute(std::as_bytes(std::span<const float>(own)), need);

        const std::vector<float> want =
            fill_chunk(ReshardSuite::chunk(p.dst, p.ndims, p.dims, rank));
        ASSERT_EQ(need.size(), want.size() * sizeof(float));
        std::vector<float> got(want.size());
        std::memcpy(got.data(), need.data(), need.size());
        for (std::size_t i = 0; i < want.size(); ++i)
          ASSERT_EQ(got[i], want[i])
              << "rank " << rank << " element " << i << " of "
              << p.dst.describe(p.ndims);

        std::lock_guard lk(mu);
        plans[static_cast<std::size_t>(rank)] = rd.plan();
        backends[static_cast<std::size_t>(rank)] = rd.effective_backend();
      });

      for (int r = 1; r < nranks; ++r) {
        const auto& p0 = plans[0];
        const auto& pr = plans[static_cast<std::size_t>(r)];
        EXPECT_EQ(backends[0], backends[static_cast<std::size_t>(r)])
            << "rank " << r;
        EXPECT_EQ(p0.waves, pr.waves) << "rank " << r;
      }
    }
  }
}

TEST(ReshardProperty, ResizeMatchesFreshSetupOnShardedSpecs) {
  // M -> N elastic resize of a resharded tensor: starting from a sharded
  // exact partition, the committed resize must land every member on the
  // deterministic plan_resize proposal with oracle-correct bytes, and the
  // plan must conserve bytes and never beat the naive re-scatter bound.
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

  const int cases[][2] = {{4, 6}, {6, 4}, {2, 4}, {4, 2}, {3, 3}};
  for (int trial = 0; trial < 5; ++trial) {
    const int m = cases[trial][0];
    const int n = cases[trial][1];
    // Sharded starting layout: a random exact-partition spec over m ranks.
    ReshardSampler sampler(3300u + static_cast<unsigned>(trial), m, 3,
                           {14, 12, 10}, sizeof(float), false);
    const ReshardParams p = sampler.next();
    std::vector<ddr::OwnedLayout> owned(static_cast<std::size_t>(m));
    for (int r = 0; r < m; ++r)
      owned[static_cast<std::size_t>(r)] = {
          ReshardSuite::chunk(p.src, p.ndims, p.dims, r)};

    const std::vector<ddr::OwnedLayout> proposed =
        ddr::propose_resize_layout(owned, n);
    const ddr::ResizePlan plan = ddr::plan_resize(owned, proposed, p.elem_size);
    EXPECT_EQ(plan.stats.kept_bytes + plan.stats.moved_bytes,
              plan.stats.total_bytes)
        << "trial " << trial;
    EXPECT_LE(plan.stats.moved_bytes, plan.stats.naive_bytes)
        << "trial " << trial;

    std::atomic<int> committed{0};
    const auto check = [&](const ddr::ResizeOutcome& out) {
      ASSERT_TRUE(out.comm.valid());
      ASSERT_EQ(out.comm.size(), n);
      expect_chunks(out.owned,
                    plan.new_owned[static_cast<std::size_t>(out.comm.rank())]);
      std::size_t off = 0;
      for (const Chunk& c : out.owned) {
        const std::vector<float> want = fill_chunk(c);
        ASSERT_LE(off + want.size() * sizeof(float), out.data.size());
        std::vector<float> got(want.size());
        std::memcpy(got.data(), out.data.data() + off,
                    want.size() * sizeof(float));
        for (std::size_t i = 0; i < want.size(); ++i)
          ASSERT_EQ(got[i], want[i]) << "element " << i;
        off += want.size() * sizeof(float);
      }
      EXPECT_EQ(off, out.data.size());
      committed.fetch_add(1);
    };

    mpi::RunOptions opts;
    opts.max_ranks = std::max(m, n);
    opts.joiner_main = [&](mpi::Comm& comm) {
      const auto out = ddr::Redistributor::resize_join(comm, p.elem_size);
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
          ddr::Redistributor r(comm, p.elem_size);
          const auto out = r.resize_rebalance(
              n, owned[rank], std::as_bytes(std::span<const float>(data)));
          ASSERT_TRUE(out.committed) << "trial " << trial;
          EXPECT_EQ(out.stats.kept_bytes, plan.stats.kept_bytes);
          EXPECT_EQ(out.stats.moved_bytes, plan.stats.moved_bytes);
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
