#pragma once

/// \file halo.hpp
/// Ghost-cell (halo) exchange packaged on top of DDR.
///
/// The paper positions DDR as a general redistribution primitive; this
/// header shows it subsuming the most common hand-written communication
/// pattern in stencil codes. Each rank owns one block of a regular block
/// decomposition; exchange() fills a conventional padded array (block plus
/// `halo_width` ghost layers per side, clamped at the domain boundary) from
/// everyone's current block data with a single redistribution.
///
/// The mapping is computed once at construction; exchange() repeats per
/// time step (the paper's dynamic-data workflow). Because each rank talks
/// only to its geometric neighbours, the sparse point-to-point backend (the
/// fused-lane executor) is the default.

#include <array>
#include <span>

#include "ddr/redistributor.hpp"

namespace ddr {

/// Regular block decomposition of an N-D domain over a rank grid.
struct BlockDecomposition {
  int ndims = 0;
  std::array<int, kMaxDims> domain{{1, 1, 1}};  ///< domain extents
  std::array<int, kMaxDims> grid{{1, 1, 1}};    ///< ranks per axis

  /// Total ranks the decomposition expects.
  [[nodiscard]] int nranks() const {
    int n = 1;
    for (int d = 0; d < ndims; ++d) n *= grid[static_cast<std::size_t>(d)];
    return n;
  }

  /// Grid coordinates of a rank (axis 0 fastest).
  [[nodiscard]] std::array<int, kMaxDims> coords_of(int rank) const;

  /// The block a rank owns; remainders spread over leading blocks.
  [[nodiscard]] Chunk block_of(int rank) const;
};

/// Reusable halo exchange for one decomposition.
class HaloExchanger {
 public:
  /// Collective. `halo_width` ghost layers are added on every side of the
  /// block (clamped at domain edges — no periodic wrap).
  /// \param elem_size bytes per domain element
  HaloExchanger(const mpi::Comm& comm, const BlockDecomposition& decomp,
                int halo_width, std::size_t elem_size,
                Backend backend = Backend::point_to_point_pipelined);

  /// This rank's block (what the caller owns and updates).
  [[nodiscard]] const Chunk& block() const { return block_; }

  /// The padded region exchange() fills: block grown by the halo, clamped.
  [[nodiscard]] const Chunk& padded() const { return padded_; }

  [[nodiscard]] std::size_t block_bytes() const {
    return redistributor_.owned_bytes();
  }
  [[nodiscard]] std::size_t padded_bytes() const {
    return redistributor_.needed_bytes();
  }

  /// Collective. Fills `padded_data` (padded() layout, x fastest) from all
  /// ranks' `block_data`. Repeatable on fresh data.
  void exchange(std::span<const std::byte> block_data,
                std::span<std::byte> padded_data) const;

  /// Schedule statistics (peers per rank, bytes, ...).
  [[nodiscard]] const MappingStats& stats() const {
    return redistributor_.stats();
  }

 private:
  Chunk block_;
  Chunk padded_;
  Redistributor redistributor_;
};

}  // namespace ddr
