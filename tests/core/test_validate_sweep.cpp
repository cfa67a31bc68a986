// validate_owned() and for_each_overlap() against the all-pairs scan the
// library used before the sort-and-sweep, kept here as the oracle. On seeded
// random 1D/2D/3D layouts — valid tilings, overlaps within one rank and
// across ranks, duplicated chunks, holes, ranks that own nothing and
// zero-extent chunks — both must report the same overlapping pairs, the
// same exclusive/complete verdict and the same diagnosis.

#include <gtest/gtest.h>

#include <algorithm>
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
