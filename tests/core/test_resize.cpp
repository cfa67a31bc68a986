// Elastic resize: the movement-minimizing planner (propose_resize_layout /
// plan_resize) and the transactional Redistributor::resize_rebalance /
// resize_join protocol, plus the comm-less rebuild(owned, needed) recovery
// path.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstring>
#include <numeric>
#include <random>
#include <span>
#include <vector>

#include "ddr/ddr.hpp"
#include "minimpi/minimpi.hpp"
#include "test_util.hpp"

namespace {

using ddr::Chunk;
using ddr::OwnedLayout;
using ddr_test::box_to_chunk;
using ddr_test::fill_chunk;
using ddr_test::oracle_value;
using ddr_test::random_partition;

std::int64_t layout_volume(const std::vector<OwnedLayout>& owned) {
  std::int64_t v = 0;
  for (const OwnedLayout& chunks : owned)
    for (const Chunk& c : chunks) v += c.volume();
  return v;
}

/// Wraps a proposal as the owned side of a GlobalLayout so validate_owned
/// checks the planner's exclusivity + completeness invariant.
ddr::LayoutValidation validate_proposal(const std::vector<OwnedLayout>& owned) {
  ddr::GlobalLayout g;
  g.owned = owned;
  g.needed.resize(owned.size());
  return ddr::validate_owned(g);
}

TEST(ResizePlan, GrowBalancesToExactQuotas) {
  // 8 members each own a 16x8 slab of a 128x8 domain; grow to 12.
  std::vector<OwnedLayout> old_owned(8);
  for (int r = 0; r < 8; ++r)
    old_owned[static_cast<std::size_t>(r)] = {Chunk::d2(16, 8, 16 * r, 0)};
  const auto proposed = ddr::propose_resize_layout(old_owned, 12);
  ASSERT_EQ(proposed.size(), 12u);
  const std::int64_t total = 128 * 8;
  for (std::size_t i = 0; i < proposed.size(); ++i) {
    std::int64_t v = 0;
    for (const Chunk& c : proposed[i]) v += c.volume();
    const std::int64_t quota =
        total / 12 + (static_cast<std::int64_t>(i) < total % 12 ? 1 : 0);
    EXPECT_EQ(v, quota) << "member " << i;
  }
  const auto v = validate_proposal(proposed);
  EXPECT_TRUE(v.ok()) << v.detail;
}

TEST(ResizePlan, ShrinkFoldsRetiringMembersOntoKeepers) {
  std::vector<OwnedLayout> old_owned(16);
  for (int r = 0; r < 16; ++r)
    old_owned[static_cast<std::size_t>(r)] = {Chunk::d1(8, 8 * r)};
  const auto proposed = ddr::propose_resize_layout(old_owned, 8);
  ASSERT_EQ(proposed.size(), 8u);
  for (const OwnedLayout& chunks : proposed) {
    std::int64_t v = 0;
    for (const Chunk& c : chunks) v += c.volume();
    EXPECT_EQ(v, 16);
  }
  // Keepers keep their whole old chunk: it is below the new quota.
  for (int r = 0; r < 8; ++r) {
    const auto& mine = proposed[static_cast<std::size_t>(r)];
    ASSERT_FALSE(mine.empty());
    EXPECT_EQ(mine.front().box(), old_owned[static_cast<std::size_t>(r)][0].box());
  }
  const auto v = validate_proposal(proposed);
  EXPECT_TRUE(v.ok()) << v.detail;
}

TEST(ResizePlan, BalancedSameSizeProposalKeepsEverythingInPlace) {
  std::vector<OwnedLayout> old_owned(4);
  for (int r = 0; r < 4; ++r)
    old_owned[static_cast<std::size_t>(r)] = {Chunk::d3(4, 4, 4, 4 * r, 0, 0)};
  const auto proposed = ddr::propose_resize_layout(old_owned, 4);
  for (int r = 0; r < 4; ++r) {
    const auto k = static_cast<std::size_t>(r);
    ASSERT_EQ(proposed[k].size(), 1u);
    EXPECT_EQ(proposed[k][0].box(), old_owned[k][0].box());
  }
  const auto plan = ddr::plan_resize(old_owned, proposed, sizeof(float));
  EXPECT_EQ(plan.stats.moved_bytes, 0);
  EXPECT_EQ(plan.stats.kept_bytes, plan.stats.total_bytes);
}

TEST(ResizePlan, RandomizedProposalsStayExclusiveCompleteAndBalanced) {
  std::mt19937 rng(20260808);
  for (int iter = 0; iter < 40; ++iter) {
    ddr::Box domain;
    domain.ndims = 3;
    for (int d = 0; d < 3; ++d) {
      const auto k = static_cast<std::size_t>(d);
      domain.lo[k] = 0;
      domain.hi[k] = std::uniform_int_distribution<std::int64_t>(3, 9)(rng);
    }
    const int old_members = std::uniform_int_distribution<int>(1, 6)(rng);
    const auto boxes = random_partition(domain, old_members, rng);
    std::vector<OwnedLayout> old_owned(
        static_cast<std::size_t>(old_members));
    for (std::size_t i = 0; i < boxes.size(); ++i)
      old_owned[i % old_owned.size()].push_back(box_to_chunk(boxes[i]));
    const int new_members = std::uniform_int_distribution<int>(1, 9)(rng);

    const auto proposed = ddr::propose_resize_layout(old_owned, new_members);
    ASSERT_EQ(proposed.size(), static_cast<std::size_t>(new_members));
    const std::int64_t total = domain.volume();
    EXPECT_EQ(layout_volume(proposed), total);
    for (std::size_t i = 0; i < proposed.size(); ++i) {
      std::int64_t v = 0;
      for (const Chunk& c : proposed[i]) v += c.volume();
      const std::int64_t quota =
          total / new_members +
          (static_cast<std::int64_t>(i) < total % new_members ? 1 : 0);
      EXPECT_EQ(v, quota) << "iter " << iter << " member " << i;
    }
    const auto v = validate_proposal(proposed);
    EXPECT_TRUE(v.ok()) << "iter " << iter << ": " << v.detail;

    // Determinism: every member derives the identical proposal offline.
    EXPECT_EQ(proposed, ddr::propose_resize_layout(old_owned, new_members));

    const auto plan = ddr::plan_resize(old_owned, proposed, sizeof(float));
    EXPECT_EQ(plan.stats.kept_bytes + plan.stats.moved_bytes,
              plan.stats.total_bytes);
    EXPECT_LE(plan.stats.moved_bytes, plan.stats.naive_bytes);
  }
}

TEST(ResizePlan, MovementBeatsNaiveTwofoldOnThePaperShapes) {
  // The bench's strided3d-flavoured acceptance shapes: growing 8 -> 12 keeps
  // 2/3 of the domain in place, folding 16 -> 8 keeps exactly half — both at
  // least 2x less traffic than the naive full re-scatter.
  std::vector<OwnedLayout> grow8(8);
  for (int r = 0; r < 8; ++r)
    grow8[static_cast<std::size_t>(r)] = {Chunk::d3(24, 24, 3, 0, 0, 3 * r)};
  const auto grown = ddr::propose_resize_layout(grow8, 12);
  const auto gplan = ddr::plan_resize(grow8, grown, sizeof(float));
  EXPECT_GE(gplan.stats.naive_bytes, 2 * gplan.stats.moved_bytes);

  std::vector<OwnedLayout> fold16(16);
  for (int r = 0; r < 16; ++r)
    fold16[static_cast<std::size_t>(r)] = {Chunk::d3(24, 24, 3, 0, 0, 3 * r)};
  const auto folded = ddr::propose_resize_layout(fold16, 8);
  const auto fplan = ddr::plan_resize(fold16, folded, sizeof(float));
  EXPECT_GE(fplan.stats.naive_bytes, 2 * fplan.stats.moved_bytes);
}

TEST(ResizePlan, NodeAwareProposalShiftsMovedBytesIntraNodeAtEqualMovement) {
  // Fold 16 -> 8 under a node map that pairs receiver i with retiring donor
  // 15-i. The flat proposal hands receiver i donor 8+i's chunk (pool
  // order), which crosses nodes everywhere except the middle pair; the
  // node-aware proposal rotates each receiver's same-node donation to the
  // pool head instead. The cross-member byte total must be IDENTICAL — the
  // preference only re-routes donations — while the intra-node share goes
  // from near-zero to all of it.
  std::vector<OwnedLayout> old_owned(16);
  for (int r = 0; r < 16; ++r)
    old_owned[static_cast<std::size_t>(r)] = {Chunk::d1(8, 8 * r)};
  std::vector<int> node(16);
  for (int m = 0; m < 16; ++m)
    node[static_cast<std::size_t>(m)] = m < 8 ? m : 15 - m;

  const auto flat = ddr::propose_resize_layout(old_owned, 8);
  const auto aware = ddr::propose_resize_layout(old_owned, 8, &node);
  for (const auto* proposed : {&flat, &aware}) {
    const auto v = validate_proposal(*proposed);
    EXPECT_TRUE(v.ok()) << v.detail;
    EXPECT_EQ(layout_volume(*proposed), 128);
  }
  // Determinism extends to the node-aware variant.
  EXPECT_EQ(aware, ddr::propose_resize_layout(old_owned, 8, &node));

  const auto classify = [&](const std::vector<OwnedLayout>& proposed) {
    ddr::GlobalLayout g;
    g.owned = old_owned;
    g.needed.resize(16);
    for (std::size_t i = 0; i < proposed.size(); ++i)
      g.needed[i] = proposed[i];
    std::int64_t moved = 0, intra = 0;
    for (const auto& t : ddr::enumerate_transfers(g, sizeof(float))) {
      if (t.sender == t.receiver) continue;
      moved += t.bytes;
      if (node[static_cast<std::size_t>(t.sender)] ==
          node[static_cast<std::size_t>(t.receiver)])
        intra += t.bytes;
    }
    return std::pair<std::int64_t, std::int64_t>{moved, intra};
  };
  const auto [flat_moved, flat_intra] = classify(flat);
  const auto [aware_moved, aware_intra] = classify(aware);
  EXPECT_EQ(aware_moved, flat_moved);  // bytes moved never regress
  EXPECT_GT(aware_intra, flat_intra);
  EXPECT_EQ(aware_intra, aware_moved);  // every donation found its node here
}

TEST(ResizePlan, RejectsDegenerateInputs) {
  std::vector<OwnedLayout> ok{{Chunk::d1(4, 0)}};
  EXPECT_THROW((void)ddr::propose_resize_layout(ok, 0), ddr::Error);
  EXPECT_THROW((void)ddr::propose_resize_layout({}, 2), ddr::Error);
  std::vector<OwnedLayout> empty{{}};
  EXPECT_THROW((void)ddr::propose_resize_layout(empty, 2), ddr::Error);
  std::vector<OwnedLayout> mixed{{Chunk::d1(4, 0), Chunk::d2(2, 2, 4, 0)}};
  EXPECT_THROW((void)ddr::propose_resize_layout(mixed, 2), ddr::Error);
  EXPECT_THROW((void)ddr::plan_resize(ok, ok, 0), ddr::Error);
  EXPECT_THROW((void)ddr::plan_resize({}, {}, 4), ddr::Error);
}

// --- transactional resize over minimpi ---------------------------------------

/// Checks `data` holds the oracle values of `owned` (chunks packed
/// consecutively, x fastest).
void expect_oracle(const OwnedLayout& owned, std::span<const std::byte> data) {
  std::size_t off = 0;
  for (const Chunk& c : owned) {
    const std::vector<float> want = fill_chunk(c);
    ASSERT_LE(off + want.size() * sizeof(float), data.size());
    std::vector<float> got(want.size());
    std::memcpy(got.data(), data.data() + off, want.size() * sizeof(float));
    EXPECT_EQ(got, want);
    off += want.size() * sizeof(float);
  }
  EXPECT_EQ(off, data.size());
}

TEST(ResizeRebalance, GrowRebalancesAndJoinersGetOracleData) {
  mpi::RunOptions opts;
  opts.max_ranks = 4;
  std::atomic<int> committed{0};
  opts.joiner_main = [&](mpi::Comm& comm) {
    const auto out = ddr::Redistributor::resize_join(comm, sizeof(float));
    ASSERT_TRUE(out.committed);
    EXPECT_FALSE(out.retired);
    EXPECT_FALSE(out.owned.empty());
    expect_oracle(out.owned, out.data);
    committed.fetch_add(1);
  };
  mpi::run(
      2,
      [&](mpi::Comm& comm) {
        // 2 ranks own 32 elements of a 64-element row; grow to 4.
        const Chunk mine = Chunk::d1(32, 32 * comm.rank());
        const std::vector<float> data = fill_chunk(mine);
        ddr::Redistributor r(comm, sizeof(float));
        auto out = r.resize_rebalance(4, {mine},
                                      std::as_bytes(std::span(data)));
        ASSERT_TRUE(out.committed);
        EXPECT_FALSE(out.retired);
        ASSERT_TRUE(out.comm.valid());
        EXPECT_EQ(out.comm.size(), 4);
        EXPECT_EQ(out.attempts, 1);
        // Balanced: 16 elements each, survivors kept a prefix in place.
        std::int64_t v = 0;
        for (const Chunk& c : out.owned) v += c.volume();
        EXPECT_EQ(v, 16);
        expect_oracle(out.owned, out.data);
        // Movement-minimizing: half the domain stays put, so the plan moves
        // at most half of what the naive full re-scatter would.
        EXPECT_EQ(out.stats.kept_bytes + out.stats.moved_bytes,
                  out.stats.total_bytes);
        EXPECT_GE(out.stats.naive_bytes, 2 * out.stats.moved_bytes);
        // The Redistributor continues on the resized communicator.
        EXPECT_FALSE(r.is_setup());
        EXPECT_EQ(r.comm().trace_id(), out.comm.trace_id());
        committed.fetch_add(1);
      },
      opts);
  EXPECT_EQ(committed.load(), 4);
}

TEST(ResizeRebalance, ShrinkShipsRetiringData) {
  std::atomic<int> retired{0};
  std::atomic<int> kept{0};
  mpi::run(4, [&](mpi::Comm& comm) {
    const Chunk mine = Chunk::d2(8, 4, 8 * comm.rank(), 0);
    const std::vector<float> data = fill_chunk(mine);
    ddr::Redistributor r(comm, sizeof(float));
    auto out = r.resize_rebalance(2, {mine}, std::as_bytes(std::span(data)));
    ASSERT_TRUE(out.committed);
    if (comm.rank() >= 2) {
      EXPECT_TRUE(out.retired);
      EXPECT_FALSE(out.comm.valid());
      EXPECT_TRUE(out.owned.empty());
      EXPECT_TRUE(out.data.empty());
      retired.fetch_add(1);
      return;
    }
    EXPECT_FALSE(out.retired);
    ASSERT_TRUE(out.comm.valid());
    EXPECT_EQ(out.comm.size(), 2);
    std::int64_t v = 0;
    for (const Chunk& c : out.owned) v += c.volume();
    EXPECT_EQ(v, 64);  // 32x8 domain halved over 2 survivors
    expect_oracle(out.owned, out.data);
    EXPECT_GE(out.stats.naive_bytes, 2 * out.stats.moved_bytes);
    kept.fetch_add(1);
  });
  EXPECT_EQ(retired.load(), 2);
  EXPECT_EQ(kept.load(), 2);
}

TEST(ResizeRebalance, SameSizeRebalancesUnevenLoad) {
  mpi::run(2, [&](mpi::Comm& comm) {
    // Rank 0 owns 30 of 32 elements: a same-size resize levels the load.
    const Chunk mine =
        comm.rank() == 0 ? Chunk::d1(30, 0) : Chunk::d1(2, 30);
    const std::vector<float> data = fill_chunk(mine);
    ddr::Redistributor r(comm, sizeof(float));
    auto out = r.resize_rebalance(2, {mine}, std::as_bytes(std::span(data)));
    ASSERT_TRUE(out.committed);
    std::int64_t v = 0;
    for (const Chunk& c : out.owned) v += c.volume();
    EXPECT_EQ(v, 16);
    expect_oracle(out.owned, out.data);
  });
}

TEST(ResizeRebalance, GrowTargetClampsToSpawnableCapacity) {
  mpi::RunOptions opts;
  opts.max_ranks = 3;  // only one dormant slot
  opts.joiner_main = [](mpi::Comm& comm) {
    const auto out = ddr::Redistributor::resize_join(comm, sizeof(float));
    EXPECT_TRUE(out.committed);
  };
  mpi::run(
      2,
      [&](mpi::Comm& comm) {
        const Chunk mine = Chunk::d1(12, 12 * comm.rank());
        const std::vector<float> data = fill_chunk(mine);
        ddr::Redistributor r(comm, sizeof(float));
        // Asking for 8 members clamps to the 3 that can exist.
        auto out = r.resize_rebalance(8, {mine},
                                      std::as_bytes(std::span(data)));
        ASSERT_TRUE(out.committed);
        ASSERT_TRUE(out.comm.valid());
        EXPECT_EQ(out.comm.size(), 3);
        std::int64_t v = 0;
        for (const Chunk& c : out.owned) v += c.volume();
        EXPECT_EQ(v, 8);
        expect_oracle(out.owned, out.data);
      },
      opts);
}

TEST(ResizeRebalance, PhaseHookSeesTheProtocolPhasesInOrder) {
  mpi::run(2, [&](mpi::Comm& comm) {
    const Chunk mine = Chunk::d1(8, 8 * comm.rank());
    const std::vector<float> data = fill_chunk(mine);
    std::vector<std::string> phases;
    ddr::ResizeOptions ropt;
    ropt.phase_hook = [&](const char* p) { phases.emplace_back(p); };
    ddr::Redistributor r(comm, sizeof(float));
    auto out =
        r.resize_rebalance(2, {mine}, std::as_bytes(std::span(data)), ropt);
    ASSERT_TRUE(out.committed);
    const std::vector<std::string> want{"rendezvous", "plan", "transfer",
                                        "commit"};
    EXPECT_EQ(phases, want);
  });
}

TEST(ResizeRebalance, RejectsDegenerateArguments) {
  mpi::run(1, [&](mpi::Comm& comm) {
    const Chunk mine = Chunk::d1(4, 0);
    const std::vector<float> data = fill_chunk(mine);
    ddr::Redistributor r(comm, sizeof(float));
    EXPECT_THROW((void)r.resize_rebalance(0, {mine},
                                          std::as_bytes(std::span(data))),
                 ddr::Error);
    ddr::ResizeOptions ropt;
    ropt.max_attempts = 0;
    EXPECT_THROW((void)r.resize_rebalance(1, {mine},
                                          std::as_bytes(std::span(data)),
                                          ropt),
                 ddr::Error);
  });
}

TEST(RebuildPolicy, AutoShrinkRebuildHealsAndRemaps) {
  mpi::run(2, [&](mpi::Comm& comm) {
    const Chunk mine = Chunk::d1(8, 8 * comm.rank());
    const std::vector<float> data = fill_chunk(mine);
    ddr::Redistributor r(comm, sizeof(float));
    r.setup({mine}, Chunk::d1(16, 0));
    // No deaths: the self-healing rebuild is a fresh comm + remap. Swap the
    // needed side so the rebuild visibly takes effect.
    const Chunk flipped = Chunk::d1(8, 8 * (1 - comm.rank()));
    r.rebuild({mine}, flipped);
    ASSERT_TRUE(r.is_setup());
    std::vector<float> out(8, -1.0f);
    r.redistribute(std::as_bytes(std::span(data)),
                   std::as_writable_bytes(std::span(out)));
    EXPECT_EQ(out, fill_chunk(flipped));
  });
}

}  // namespace
