// validate_owned() and for_each_overlap() against the all-pairs scan the
// library used before the sort-and-sweep, kept here as the oracle. On seeded
// random 1D/2D/3D layouts — valid tilings, overlaps within one rank and
// across ranks, duplicated chunks, holes, ranks that own nothing and
// zero-extent chunks, and layouts built to stress the sweep's groups — both
// must report the same overlapping pairs, the same exclusive/complete
// verdict and the same diagnosis.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <random>
#include <sstream>
#include <utility>
#include <vector>

#include "ddr/layout.hpp"
#include "test_util.hpp"

namespace {

using ddr::Box;
using ddr::Chunk;
using ddr::GlobalLayout;
using ddr::LayoutValidation;
using Pairs = std::vector<std::pair<std::size_t, std::size_t>>;

std::vector<Box> owned_boxes(const GlobalLayout& layout) {
  std::vector<Box> boxes;
  for (const auto& chunks : layout.owned)
    for (const Chunk& c : chunks) boxes.push_back(c.box());
  return boxes;
}

/// Every overlapping pair i < j, in (i, j) order, by testing all pairs.
Pairs all_pairs_overlaps(const std::vector<Box>& boxes) {
  Pairs out;
  for (std::size_t i = 0; i < boxes.size(); ++i)
    for (std::size_t j = i + 1; j < boxes.size(); ++j)
      if (ddr::overlaps(boxes[i], boxes[j])) out.emplace_back(i, j);
  return out;
}

/// The all-pairs validate_owned the sweep replaced, verbatim in behaviour.
LayoutValidation all_pairs_validate(const GlobalLayout& layout) {
  LayoutValidation v;
  struct Owned {
    int rank;
    int index;
    Box box;
  };
  std::vector<Owned> all;
  for (int r = 0; r < layout.nranks(); ++r) {
    const auto& chunks = layout.owned[static_cast<std::size_t>(r)];
    for (std::size_t i = 0; i < chunks.size(); ++i)
      all.push_back({r, static_cast<int>(i), chunks[i].box()});
  }
  std::int64_t total_volume = 0;
  for (std::size_t i = 0; i < all.size(); ++i) {
    total_volume += all[i].box.volume();
    for (std::size_t j = i + 1; j < all.size(); ++j) {
      if (ddr::overlaps(all[i].box, all[j].box)) {
        v.exclusive = false;
        std::ostringstream os;
        os << "owned chunks overlap: rank " << all[i].rank << " chunk "
           << all[i].index << " " << all[i].box.describe() << " vs rank "
           << all[j].rank << " chunk " << all[j].index << " "
           << all[j].box.describe();
        v.detail = os.str();
        return v;
      }
    }
  }
  const Box domain = layout.domain();
  if (total_volume != domain.volume()) {
    v.complete = false;
    std::ostringstream os;
    os << "owned chunks do not cover the domain " << domain.describe()
       << ": covered " << total_volume << " of " << domain.volume()
       << " elements";
    v.detail = os.str();
  }
  return v;
}

int uniform(std::mt19937& rng, int lo, int hi) {
  return std::uniform_int_distribution<int>(lo, hi)(rng);
}

/// A random partition of a random `nd`-D domain, then perturbed at random:
/// chunks duplicated, grown into a neighbour, shrunk, dropped, overlaid by
/// random sub-boxes, and zero-extent chunks added. The chunks are dealt to
/// 1-6 ranks (some may own nothing) in shuffled order.
GlobalLayout random_layout(int nd, std::mt19937& rng) {
  Box domain;
  domain.ndims = nd;
  const int max_extent = nd == 1 ? 60 : nd == 2 ? 14 : 7;
  for (int d = 0; d < nd; ++d) {
    const auto k = static_cast<std::size_t>(d);
    domain.lo[k] = uniform(rng, -4, 4);
    domain.hi[k] = domain.lo[k] + uniform(rng, 1, max_extent);
  }
  std::vector<Box> boxes =
      ddr_test::random_partition(domain, uniform(rng, 1, 30), rng);

  auto pick = [&] {
    return static_cast<std::size_t>(
        uniform(rng, 0, static_cast<int>(boxes.size()) - 1));
  };
  auto axis = [&] { return static_cast<std::size_t>(uniform(rng, 0, nd - 1)); };
  if (uniform(rng, 0, 3) == 0) boxes.push_back(boxes[pick()]);  // duplicate
  if (uniform(rng, 0, 3) == 0) {  // grow one side by one element
    Box& b = boxes[pick()];
    const std::size_t k = axis();
    if (uniform(rng, 0, 1) == 0) --b.lo[k]; else ++b.hi[k];
  }
  if (uniform(rng, 0, 3) == 0) {  // shrink one side by one element
    Box& b = boxes[pick()];
    const std::size_t k = axis();
    if (uniform(rng, 0, 1) == 0) ++b.lo[k]; else --b.hi[k];
  }
  if (boxes.size() > 1 && uniform(rng, 0, 3) == 0)  // drop a chunk
    boxes.erase(boxes.begin() + static_cast<std::ptrdiff_t>(pick()));
  for (int n = uniform(rng, 0, 6) - 4; n > 0; --n)  // random sub-boxes
    boxes.push_back(ddr_test::random_subbox(domain, rng));
  for (int n = uniform(rng, 0, 5) - 3; n > 0; --n) {  // zero-extent chunks
    Box b = ddr_test::random_subbox(domain, rng);
    const std::size_t k = axis();
    b.hi[k] = b.lo[k];
    boxes.push_back(b);
  }

  GlobalLayout layout;
  const int nranks = uniform(rng, 1, 6);
  layout.owned.resize(static_cast<std::size_t>(nranks));
  layout.needed.resize(static_cast<std::size_t>(nranks));
  std::shuffle(boxes.begin(), boxes.end(), rng);
  for (const Box& b : boxes)
    layout.owned[static_cast<std::size_t>(uniform(rng, 0, nranks - 1))]
        .push_back(ddr_test::box_to_chunk(b));
  return layout;
}

TEST(ValidateSweep, MatchesAllPairsOracleOnRandomLayouts) {
  std::mt19937 rng(20240611);
  int overlapping = 0, holed = 0, valid = 0, zero_extent = 0, idle_rank = 0;
  for (int nd = 1; nd <= 3; ++nd) {
    for (int iter = 0; iter < 3000; ++iter) {
      const GlobalLayout layout = random_layout(nd, rng);
      const std::vector<Box> boxes = owned_boxes(layout);

      Pairs swept;
      ddr::for_each_overlap(boxes, [&](std::size_t i, std::size_t j) {
        swept.emplace_back(i, j);
      });
      std::sort(swept.begin(), swept.end());
      ASSERT_EQ(swept, all_pairs_overlaps(boxes)) << nd << "D layout " << iter;

      const LayoutValidation got = ddr::validate_owned(layout);
      const LayoutValidation want = all_pairs_validate(layout);
      ASSERT_EQ(got.exclusive, want.exclusive) << nd << "D layout " << iter;
      ASSERT_EQ(got.complete, want.complete) << nd << "D layout " << iter;
      ASSERT_EQ(got.detail, want.detail) << nd << "D layout " << iter;

      overlapping += want.exclusive ? 0 : 1;
      holed += want.exclusive && !want.complete ? 1 : 0;
      valid += want.ok() ? 1 : 0;
      for (const Box& b : boxes) zero_extent += b.empty() ? 1 : 0;
      for (const auto& chunks : layout.owned)
        idle_rank += chunks.empty() ? 1 : 0;
    }
  }
  // The generator must reach every case the comparison is meant to cover.
  EXPECT_GT(overlapping, 1000);
  EXPECT_GT(holed, 500);
  EXPECT_GT(valid, 1000);
  EXPECT_GT(zero_extent, 500);
  EXPECT_GT(idle_rank, 500);
}

/// Boxes that stress the sweep's groups, in a random `nd`-D domain: a grid
/// of random pitch (every box of a layer shares its start on every axis),
/// boxes spanning the whole domain on one axis (active across many groups),
/// long thin boxes along every axis (so no choice of sweep or index axis
/// keeps the candidates few), a stack of boxes sharing one corner,
/// duplicates and zero-extent boxes. Each extra is drawn at random, so some
/// layouts stay a plain tiling.
std::vector<Box> stressed_boxes(int nd, std::mt19937& rng) {
  Box domain;
  domain.ndims = nd;
  const int max_extent = nd == 1 ? 80 : nd == 2 ? 24 : 10;
  for (std::size_t k = 0; k < static_cast<std::size_t>(nd); ++k) {
    domain.lo[k] = uniform(rng, -3, 3);
    domain.hi[k] = domain.lo[k] + uniform(rng, 2, max_extent);
  }
  std::array<int, ddr::kMaxDims> pitch{1, 1, 1};
  for (int k = 0; k < nd; ++k)
    pitch[static_cast<std::size_t>(k)] = uniform(rng, 1, 4);
  std::vector<Box> boxes;
  std::array<std::int64_t, ddr::kMaxDims> at = domain.lo;
  while (true) {
    Box b;
    b.ndims = nd;
    for (std::size_t k = 0; k < static_cast<std::size_t>(nd); ++k) {
      b.lo[k] = at[k];
      b.hi[k] = std::min(at[k] + pitch[k], domain.hi[k]);
    }
    boxes.push_back(b);
    std::size_t k = 0;
    for (; k < static_cast<std::size_t>(nd); ++k) {
      at[k] += pitch[k];
      if (at[k] < domain.hi[k]) break;
      at[k] = domain.lo[k];
    }
    if (k == static_cast<std::size_t>(nd)) break;
  }
  const auto axis = [&] {
    return static_cast<std::size_t>(uniform(rng, 0, nd - 1));
  };
  for (int n = uniform(rng, 0, 6) - 3; n > 0; --n) {  // spans one axis
    Box b = ddr_test::random_subbox(domain, rng);
    const std::size_t k = axis();
    b.lo[k] = domain.lo[k];
    b.hi[k] = domain.hi[k];
    boxes.push_back(b);
  }
  if (uniform(rng, 0, 2) == 0) {  // long and thin along every axis
    for (std::size_t k = 0; k < static_cast<std::size_t>(nd); ++k) {
      Box b = ddr_test::random_subbox(domain, rng);
      for (std::size_t j = 0; j < static_cast<std::size_t>(nd); ++j)
        b.hi[j] = b.lo[j] + 1;
      b.lo[k] = domain.lo[k];
      b.hi[k] = domain.hi[k];
      boxes.push_back(b);
    }
  }
  if (uniform(rng, 0, 2) == 0) {  // a stack sharing one corner
    const Box corner = ddr_test::random_subbox(domain, rng);
    for (int n = uniform(rng, 2, 8); n > 0; --n) {
      Box b = corner;
      for (std::size_t k = 0; k < static_cast<std::size_t>(nd); ++k)
        b.hi[k] = uniform(rng, static_cast<int>(b.lo[k]) + 1,
                          static_cast<int>(domain.hi[k]));
      boxes.push_back(b);
    }
  }
  for (int n = uniform(rng, 0, 5) - 3; n > 0; --n)  // duplicates
    boxes.push_back(boxes[static_cast<std::size_t>(
        uniform(rng, 0, static_cast<int>(boxes.size()) - 1))]);
  for (int n = uniform(rng, 0, 5) - 3; n > 0; --n) {  // zero extents
    Box b = ddr_test::random_subbox(domain, rng);
    const std::size_t k = axis();
    b.hi[k] = b.lo[k];
    boxes.push_back(b);
  }
  std::shuffle(boxes.begin(), boxes.end(), rng);
  return boxes;
}

TEST(ValidateSweep, MatchesAllPairsOracleOnStressedGroups) {
  // Groups of boxes that share a sweep start, boxes active across many
  // groups and axes that no choice makes selective: the sweep must still
  // report exactly the all-pairs overlaps, and validate_owned() exactly the
  // oracle's verdict and first pair, in 1D, 2D and 3D.
  std::mt19937 rng(20261021);
  int overlapping = 0, valid = 0, big_groups = 0;
  for (int nd = 1; nd <= 3; ++nd) {
    for (int iter = 0; iter < 1500; ++iter) {
      const std::vector<Box> boxes = stressed_boxes(nd, rng);
      Pairs swept;
      ddr::for_each_overlap(boxes, [&](std::size_t i, std::size_t j) {
        swept.emplace_back(i, j);
      });
      std::sort(swept.begin(), swept.end());
      ASSERT_EQ(swept, all_pairs_overlaps(boxes)) << nd << "D layout " << iter;

      GlobalLayout layout;
      const int nranks = uniform(rng, 1, 5);
      layout.owned.resize(static_cast<std::size_t>(nranks));
      layout.needed.resize(static_cast<std::size_t>(nranks));
      for (const Box& b : boxes)
        layout.owned[static_cast<std::size_t>(uniform(rng, 0, nranks - 1))]
            .push_back(ddr_test::box_to_chunk(b));
      const LayoutValidation got = ddr::validate_owned(layout);
      const LayoutValidation want = all_pairs_validate(layout);
      ASSERT_EQ(got.exclusive, want.exclusive) << nd << "D layout " << iter;
      ASSERT_EQ(got.complete, want.complete) << nd << "D layout " << iter;
      ASSERT_EQ(got.detail, want.detail) << nd << "D layout " << iter;
      overlapping += want.exclusive ? 0 : 1;
      valid += want.ok() ? 1 : 0;
      // Boxes sharing one start on every axis fall in one group whatever
      // the sweep axis.
      std::vector<std::array<std::int64_t, ddr::kMaxDims>> starts;
      for (const Box& b : boxes)
        if (!b.empty()) starts.push_back(b.lo);
      std::sort(starts.begin(), starts.end());
      big_groups += std::adjacent_find(starts.begin(), starts.end()) !=
                            starts.end()
                        ? 1
                        : 0;
    }
  }
  EXPECT_GT(overlapping, 1500);
  EXPECT_GT(valid, 500);
  EXPECT_GT(big_groups, 1000);
}

TEST(ValidateSweep, LargeTilingVerdict) {
  // 32^3 = 32768 blocks of 2^3 dealt at random to 8 ranks: a tiling the
  // all-pairs scan would need 5.4e8 box tests for.
  constexpr int kB = 32, kE = 2, kRanks = 8;
  std::mt19937 rng(7);
  GlobalLayout layout;
  layout.owned.resize(kRanks);
  layout.needed.resize(kRanks);
  for (int b = 0; b < kB * kB * kB; ++b)
    layout.owned[static_cast<std::size_t>(uniform(rng, 0, kRanks - 1))]
        .push_back(Chunk::d3(kE, kE, kE, b % kB * kE, b / kB % kB * kE,
                             b / (kB * kB) * kE));
  EXPECT_TRUE(ddr::validate_owned(layout).ok());

  // The same tiling with one block owned twice.
  layout.owned[3].push_back(layout.owned[5].front());
  const LayoutValidation v = ddr::validate_owned(layout);
  EXPECT_FALSE(v.exclusive);
}

}  // namespace
