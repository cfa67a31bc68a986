// ddr::PlanCache tests: fingerprint sensitivity (everything a PlanDecision
// is a function of must perturb the key), hit-replays-the-decision through
// Redistributor::setup, and the epoch protocol — a rebuild or committed
// resize invalidates the cache, and a Redistributor still holding the old
// epoch fails fast on redistribute() on EVERY rank (stale-plan reuse is an
// error, never a silently wrong answer).

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <span>
#include <vector>

#include "ddr/ddr.hpp"
#include "ddr/plan_cache.hpp"
#include "minimpi/minimpi.hpp"
#include "simnet/models.hpp"
#include "test_util.hpp"

namespace {

using ddr::Backend;
using ddr::Chunk;
using ddr_test::fill_chunk;

ddr::GlobalLayout row_layout(int nranks, int width) {
  ddr::GlobalLayout layout;
  for (int r = 0; r < nranks; ++r) {
    layout.owned.push_back({Chunk::d1(width, width * r)});
    layout.needed.push_back(
        {Chunk::d1(width, width * ((r + 1) % nranks))});
  }
  return layout;
}

TEST(PlanCacheFingerprint, SensitiveToEveryInput) {
  const ddr::GlobalLayout a = row_layout(4, 16);
  ddr::GlobalLayout b = a;
  b.needed[0] = {Chunk::d1(16, 32)};

  const std::uint64_t base = ddr::PlanCache::fingerprint(a, 4, 0, 0);
  // Deterministic: same inputs, same key.
  EXPECT_EQ(base, ddr::PlanCache::fingerprint(a, 4, 0, 0));
  // Layout geometry, element size, budget, planning rank and node topology
  // each perturb the key.
  EXPECT_NE(base, ddr::PlanCache::fingerprint(b, 4, 0, 0));
  EXPECT_NE(base, ddr::PlanCache::fingerprint(a, 8, 0, 0));
  EXPECT_NE(base, ddr::PlanCache::fingerprint(a, 4, 65536, 0));
  EXPECT_NE(base, ddr::PlanCache::fingerprint(a, 4, 0, 1));
  EXPECT_NE(base, ddr::PlanCache::fingerprint(a, 4, 0, 0, {0, 0, 1, 1}));
  EXPECT_NE(ddr::PlanCache::fingerprint(a, 4, 0, 0, {0, 0, 1, 1}),
            ddr::PlanCache::fingerprint(a, 4, 0, 0, {0, 1, 0, 1}));
}

TEST(PlanCacheStats, LookupAndStoreCount) {
  ddr::PlanCache cache;
  EXPECT_EQ(cache.epoch(), 0u);
  EXPECT_EQ(cache.lookup(42), nullptr);
  EXPECT_EQ(cache.stats().misses, 1u);
  ddr::PlanDecision d;
  d.backend = Backend::point_to_point_pipelined;
  cache.store(42, d);
  EXPECT_EQ(cache.stats().entries, 1u);
  const ddr::PlanDecision* hit = cache.lookup(42);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->backend, Backend::point_to_point_pipelined);
  EXPECT_EQ(cache.stats().hits, 1u);
  cache.invalidate();
  EXPECT_EQ(cache.epoch(), 1u);
  EXPECT_EQ(cache.stats().invalidations, 1u);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.lookup(42), nullptr);
}

TEST(PlanCacheSetup, HitReplaysTheDecisionExactly) {
  // Two Redistributors over the same geometry sharing one per-rank cache:
  // the second setup must hit (skipping Planner::decide) and resolve to the
  // identical plan, and the exchange must still be oracle-correct.
  const ddr::GlobalLayout layout = row_layout(3, 32);
  mpi::run(3, [&](mpi::Comm& comm) {
    const auto rank = static_cast<std::size_t>(comm.rank());
    ddr::PlanCache cache;
    ddr::SetupOptions opts;
    opts.backend = Backend::automatic;
    opts.plan_cache = &cache;

    ddr::Redistributor rd1(comm, sizeof(float));
    rd1.setup(layout.owned[rank], layout.needed[rank], opts);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().hits, 0u);

    ddr::Redistributor rd2(comm, sizeof(float));
    rd2.setup(layout.owned[rank], layout.needed[rank], opts);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(rd2.plan().backend, rd1.plan().backend);
    EXPECT_EQ(rd2.plan().waves, rd1.plan().waves);
    EXPECT_EQ(rd2.effective_backend(), rd1.effective_backend());

    const std::vector<float> data = fill_chunk(layout.owned[rank][0]);
    std::vector<float> out(
        static_cast<std::size_t>(layout.needed[rank][0].volume()), -1.0f);
    rd2.redistribute(std::as_bytes(std::span(data)),
                     std::as_writable_bytes(std::span(out)));
    EXPECT_EQ(out, fill_chunk(layout.needed[rank][0]));
  });
}

TEST(PlanCacheSetup, DistinctGeometriesMissIndependently) {
  // A pencil-chain-shaped sequence: 2 distinct geometries cycled twice
  // through one cache -> 2 misses on the first pass, 2 hits on the second.
  ddr::GlobalLayout fwd = row_layout(2, 16);
  ddr::GlobalLayout bwd = fwd;
  std::swap(bwd.owned, bwd.needed);
  mpi::run(2, [&](mpi::Comm& comm) {
    const auto rank = static_cast<std::size_t>(comm.rank());
    ddr::PlanCache cache;
    ddr::SetupOptions opts;
    opts.plan_cache = &cache;
    for (int pass = 0; pass < 2; ++pass)
      for (const ddr::GlobalLayout* l : {&fwd, &bwd}) {
        ddr::Redistributor rd(comm, sizeof(float));
        rd.setup(l->owned[rank], l->needed[rank], opts);
      }
    EXPECT_EQ(cache.stats().misses, 2u);
    EXPECT_EQ(cache.stats().hits, 2u);
  });
}

TEST(PlanCacheEpoch, StaleEpochIsAnErrorOnEveryRank) {
  // An external invalidation (standing in for any structural event)
  // between setup() and redistribute() must fail the exchange on every
  // rank with the descriptive stale-plan error — not execute a plan that
  // may no longer match the run.
  std::atomic<int> threw{0};
  mpi::run(2, [&](mpi::Comm& comm) {
    const Chunk mine = Chunk::d1(8, 8 * comm.rank());
    const Chunk want = Chunk::d1(8, 8 * (1 - comm.rank()));
    ddr::PlanCache cache;
    ddr::SetupOptions opts;
    opts.plan_cache = &cache;
    ddr::Redistributor rd(comm, sizeof(float));
    rd.setup({mine}, want, opts);
    cache.invalidate();
    const std::vector<float> data = fill_chunk(mine);
    std::vector<float> out(8, -1.0f);
    try {
      rd.redistribute(std::as_bytes(std::span(data)),
                      std::as_writable_bytes(std::span(out)));
    } catch (const ddr::Error& e) {
      EXPECT_NE(std::string(e.what()).find("epoch"), std::string::npos);
      threw.fetch_add(1);
    }
    // Recovery path: a fresh setup() re-resolves under the new epoch.
    rd.setup({mine}, want, opts);
    rd.redistribute(std::as_bytes(std::span(data)),
                    std::as_writable_bytes(std::span(out)));
    EXPECT_EQ(out, fill_chunk(want));
  });
  EXPECT_EQ(threw.load(), 2);
}

TEST(PlanCacheEpoch, RebuildInvalidates) {
  mpi::run(2, [&](mpi::Comm& comm) {
    const Chunk mine = Chunk::d1(8, 8 * comm.rank());
    ddr::PlanCache cache;
    ddr::SetupOptions opts;
    opts.plan_cache = &cache;
    ddr::Redistributor rd(comm, sizeof(float));
    rd.setup({mine}, Chunk::d1(16, 0), opts);
    EXPECT_EQ(cache.epoch(), 0u);
    // The rebuild bumps the epoch and re-resolves under it, so the rebuilt
    // Redistributor itself is NOT stale — it redistributes fine.
    rd.rebuild(comm.dup(), {mine}, Chunk::d1(16, 0), opts);
    EXPECT_EQ(cache.epoch(), 1u);
    EXPECT_EQ(cache.stats().invalidations, 1u);
    const std::vector<float> data = fill_chunk(mine);
    std::vector<float> out(16, -1.0f);
    rd.redistribute(std::as_bytes(std::span(data)),
                    std::as_writable_bytes(std::span(out)));
    EXPECT_EQ(out, fill_chunk(Chunk::d1(16, 0)));
  });
}

TEST(PlanCacheEpoch, CommittedResizeInvalidatesAndSiblingFailsFast) {
  // The real hazard the protocol exists for: two Redistributors share one
  // cache; a committed resize through one makes the other's plan void. The
  // sibling must fail fast with the stale-epoch error.
  std::atomic<int> threw{0};
  mpi::run(4, [&](mpi::Comm& comm) {
    const Chunk mine = Chunk::d2(8, 4, 8 * comm.rank(), 0);
    const std::vector<float> data = fill_chunk(mine);
    ddr::PlanCache cache;
    ddr::SetupOptions opts;
    opts.plan_cache = &cache;

    ddr::Redistributor sibling(comm, sizeof(float));
    sibling.setup({mine}, Chunk::d2(32, 4, 0, 0), opts);

    ddr::Redistributor r(comm, sizeof(float));
    r.setup({mine}, Chunk::d2(32, 4, 0, 0), opts);
    auto out = r.resize_rebalance(2, {mine}, std::as_bytes(std::span(data)));
    ASSERT_TRUE(out.committed);
    EXPECT_EQ(cache.epoch(), 1u);

    std::vector<float> buf(32 * 4, -1.0f);
    try {
      sibling.redistribute(std::as_bytes(std::span(data)),
                           std::as_writable_bytes(std::span(buf)));
    } catch (const ddr::Error& e) {
      EXPECT_NE(std::string(e.what()).find("epoch"), std::string::npos);
      threw.fetch_add(1);
    }
  });
  EXPECT_EQ(threw.load(), 4);
}

}  // namespace
