#pragma once

/// \file layout.hpp
/// Chunk and layout descriptions: what each rank owns and needs.
///
/// Terminology follows the paper (§III-B):
///  * a rank OWNS any number of chunks of the global domain before
///    redistribution; owned chunks across all ranks must be mutually
///    exclusive and complete;
///  * a rank NEEDS exactly one contiguous chunk after redistribution;
///    needed chunks may overlap between ranks and may leave holes.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "ddr/box.hpp"

namespace ddr {

/// One contiguous N-D chunk: dims[d] elements starting at offsets[d] in the
/// global domain ([x, y, z] order, fastest axis first).
struct Chunk {
  int ndims = 0;
  std::array<int, kMaxDims> dims{{1, 1, 1}};
  std::array<int, kMaxDims> offsets{{0, 0, 0}};

  Chunk() = default;

  Chunk(int nd, std::span<const int> dim_values,
        std::span<const int> offset_values) {
    ndims = nd;
    for (int d = 0; d < kMaxDims; ++d) {
      const auto k = static_cast<std::size_t>(d);
      dims[k] = d < nd ? dim_values[k] : 1;
      offsets[k] = d < nd ? offset_values[k] : 0;
    }
  }

  /// Convenience constructors for the three supported ranks.
  static Chunk d1(int nx, int ox) {
    const int d[] = {nx}, o[] = {ox};
    return Chunk(1, d, o);
  }
  static Chunk d2(int nx, int ny, int ox, int oy) {
    const int d[] = {nx, ny}, o[] = {ox, oy};
    return Chunk(2, d, o);
  }
  static Chunk d3(int nx, int ny, int nz, int ox, int oy, int oz) {
    const int d[] = {nx, ny, nz}, o[] = {ox, oy, oz};
    return Chunk(3, d, o);
  }

  [[nodiscard]] Box box() const {
    return Box::from_dims_offsets(ndims, dims.data(), offsets.data());
  }

  /// Elements in the chunk.
  [[nodiscard]] std::int64_t volume() const {
    std::int64_t v = 1;
    for (int d = 0; d < ndims; ++d) v *= dims[static_cast<std::size_t>(d)];
    return v;
  }

  [[nodiscard]] std::string describe() const { return box().describe(); }

  friend bool operator==(const Chunk& a, const Chunk& b) {
    return a.ndims == b.ndims && a.dims == b.dims && a.offsets == b.offsets;
  }
};

/// The chunks one rank owns, in the order they are packed in its data
/// buffer (chunk i's elements immediately follow chunk i-1's).
using OwnedLayout = std::vector<Chunk>;

/// The chunks one rank needs after redistribution, packed consecutively in
/// its destination buffer. The paper's published library supports exactly
/// one needed chunk per rank; multiple chunks implement its §V future-work
/// extension ("support for more data patterns") — e.g. a block plus
/// separate halo regions. Needed chunks may overlap and may leave holes.
using NeededLayout = std::vector<Chunk>;

/// Full redistribution problem: every rank's owned and needed chunks.
/// Index: rank.
struct GlobalLayout {
  std::vector<OwnedLayout> owned;
  std::vector<NeededLayout> needed;

  [[nodiscard]] int nranks() const { return static_cast<int>(owned.size()); }

  /// Maximum number of chunks owned by any rank == number of
  /// MPI_Alltoallw rounds (paper §III-C).
  [[nodiscard]] int rounds() const {
    std::size_t m = 0;
    for (const auto& o : owned) m = m > o.size() ? m : o.size();
    return static_cast<int>(m);
  }

  /// Bounding box of everything owned (the global domain when the owned
  /// layout is complete).
  [[nodiscard]] Box domain() const {
    Box d;
    bool first = true;
    for (const auto& rank_chunks : owned)
      for (const auto& c : rank_chunks) {
        d = first ? c.box() : bounding_box(d, c.box());
        first = false;
      }
    return d;
  }
};

/// Validation result for the paper's send-side contract: owned chunks must
/// be mutually exclusive and complete over the domain.
struct LayoutValidation {
  bool exclusive = true;  ///< no two owned chunks overlap
  bool complete = true;   ///< owned chunks tile their bounding box exactly
  std::string detail;     ///< human-readable diagnosis when invalid

  [[nodiscard]] bool ok() const { return exclusive && complete; }
};

/// Calls visit(i, j) once for every pair i < j of boxes that share at least
/// one element (the pairs overlaps(boxes[i], boxes[j]) accepts), in no
/// particular order. All boxes must have the same dimensionality.
///
/// A sort-and-sweep: the boxes are swept in order of their start on the
/// axis they stack in the most layers, a box leaves the active set once the
/// sweep passes its end on that axis, and the active set is sorted by start
/// on a second axis (the runner-up), so each box is tested only against
/// boxes that can reach it on both axes. An axis's layer count is taken in
/// O(n) as the boxes' bounding extent there times their count over their
/// summed extents — on a grid, exactly its number of distinct starts. The
/// boxes that share a start on the sweep axis form a group: each is also
/// tested against the group's earlier members within reach on the index
/// axis, and the group joins the active set in one merge. Any axis choice
/// is exact; a good one keeps the candidates few. On a regular grid of n
/// boxes that is O(1) candidates per box in 2D and n^(1/3) in 3D, where an
/// all-pairs scan makes n^2/2 tests in all.
void for_each_overlap(
    std::span<const Box> boxes,
    const std::function<void(std::size_t, std::size_t)>& visit);

/// Checks mutual exclusivity and completeness of the owned side. When owned
/// chunks overlap, `detail` names the first overlapping pair in rank-major
/// chunk order. Built on for_each_overlap().
[[nodiscard]] LayoutValidation validate_owned(const GlobalLayout& layout);

}  // namespace ddr
