#include "workloads/workloads.hpp"

#include <algorithm>
#include <cstring>

#include "ddr/error.hpp"

namespace workloads {

namespace {

/// Near-equal split of `extent` into `blocks` pieces, remainder dealt to the
/// LOWEST block indices: block i covers [block_start(i), block_start(i+1)).
/// The same quota rule propose_resize_layout uses, so pencil layouts and
/// resize proposals agree on how odd extents divide.
std::int64_t block_start(std::int64_t extent, int blocks, int i) {
  const std::int64_t base = extent / blocks;
  const std::int64_t rem = extent % blocks;
  return static_cast<std::int64_t>(i) * base + std::min<std::int64_t>(i, rem);
}

std::int64_t block_len(std::int64_t extent, int blocks, int i) {
  return block_start(extent, blocks, i + 1) - block_start(extent, blocks, i);
}

/// Overlap length of block `a` of an `extent`-over-`ba` split with block `b`
/// of an `extent`-over-`bb` split — the 1-D interval arithmetic the analytic
/// accounting is built from.
std::int64_t block_overlap(std::int64_t extent, int ba, int a, int bb, int b) {
  const std::int64_t lo =
      std::max(block_start(extent, ba, a), block_start(extent, bb, b));
  const std::int64_t hi = std::min(block_start(extent, ba, a + 1),
                                   block_start(extent, bb, b + 1));
  return hi > lo ? hi - lo : 0;
}

/// Per-axis decomposition of one stage: how many blocks axis d is split
/// into and which block index rank r holds. p1/p2 is the process grid
/// (rank = i + p1 * j, i in [0, p1), j in [0, p2)).
struct AxisSplit {
  std::array<int, 3> blocks{{1, 1, 1}};
  std::array<int, 3> index(int rank, int p1) const {
    std::array<int, 3> idx{{0, 0, 0}};
    const int i = rank % p1;
    const int j = rank / p1;
    for (int d = 0; d < 3; ++d) {
      if (blocks[static_cast<std::size_t>(d)] == 1) continue;
      // Exactly one or two axes are split; the first split axis takes the
      // fast grid coordinate. With a single split axis (slab) the linear
      // rank itself indexes the blocks.
      idx[static_cast<std::size_t>(d)] = -1;  // filled below
    }
    int coord = 0;
    for (int d = 0; d < 3; ++d) {
      auto& v = idx[static_cast<std::size_t>(d)];
      if (v != -1) continue;
      if (nsplit() == 1) {
        v = rank;
      } else {
        v = coord == 0 ? i : j;
      }
      ++coord;
    }
    return idx;
  }
  int nsplit() const {
    int n = 0;
    for (int d = 0; d < 3; ++d)
      if (blocks[static_cast<std::size_t>(d)] > 1) ++n;
    return n;
  }
};

}  // namespace

const char* stage_name(Stage s) {
  switch (s) {
    case Stage::slab:
      return "slab";
    case Stage::pencil_y:
      return "pencil_y";
    case Stage::pencil_z:
      return "pencil_z";
  }
  return "unknown";
}

PencilTranspose::PencilTranspose(const PencilParams& params) : p_(params) {
  ddr::require(p_.nx >= 1 && p_.ny >= 1 && p_.nz >= 1,
               "PencilTranspose: grid extents must be >= 1");
  ddr::require(p_.nranks >= 1, "PencilTranspose: nranks must be >= 1");
  ddr::require(p_.elem_size >= 1, "PencilTranspose: elem_size must be >= 1");
  // Near-square process grid, p1 <= p2 (stream::consumer_grid discipline).
  for (int d = 1; d * d <= p_.nranks; ++d)
    if (p_.nranks % d == 0) p1_ = d;
  p2_ = p_.nranks / p1_;
  ddr::require(p_.nz >= p_.nranks,
               "PencilTranspose: nz must be >= nranks (slab stage needs a "
               "nonempty z block per rank)");
  ddr::require(p_.nx >= p1_ && p_.ny >= p2_ && p_.nz >= p2_,
               "PencilTranspose: grid too small for the process grid");
}

namespace {

AxisSplit stage_split(Stage s, int nranks, int p1, int p2) {
  AxisSplit sp;
  switch (s) {
    case Stage::slab:
      sp.blocks = {1, 1, nranks};
      break;
    case Stage::pencil_y:
      sp.blocks = {p1, 1, p2};
      break;
    case Stage::pencil_z:
      sp.blocks = {p1, p2, 1};
      break;
  }
  return sp;
}

}  // namespace

ddr::Chunk PencilTranspose::chunk(Stage stage, int rank) const {
  ddr::require(rank >= 0 && rank < p_.nranks,
               "PencilTranspose::chunk: rank out of range");
  const AxisSplit sp = stage_split(stage, p_.nranks, p1_, p2_);
  const std::array<int, 3> idx = sp.index(rank, p1_);
  const std::array<std::int64_t, 3> ext = {p_.nx, p_.ny, p_.nz};
  ddr::Chunk c;
  c.ndims = 3;
  for (int d = 0; d < 3; ++d) {
    const auto k = static_cast<std::size_t>(d);
    c.dims[k] = static_cast<int>(block_len(ext[k], sp.blocks[k], idx[k]));
    c.offsets[k] = static_cast<int>(block_start(ext[k], sp.blocks[k], idx[k]));
  }
  return c;
}

std::vector<ddr::OwnedLayout> PencilTranspose::layout(Stage stage) const {
  std::vector<ddr::OwnedLayout> out;
  out.reserve(static_cast<std::size_t>(p_.nranks));
  for (int r = 0; r < p_.nranks; ++r) out.push_back({chunk(stage, r)});
  return out;
}

ddr::GlobalLayout PencilTranspose::transpose_layout(Stage from,
                                                    Stage to) const {
  ddr::GlobalLayout g;
  g.owned = layout(from);
  g.needed = layout(to);
  return g;
}

Accounting PencilTranspose::accounting(Stage from, Stage to) const {
  const AxisSplit fs = stage_split(from, p_.nranks, p1_, p2_);
  const AxisSplit ts = stage_split(to, p_.nranks, p1_, p2_);
  const std::array<std::int64_t, 3> ext = {p_.nx, p_.ny, p_.nz};
  Accounting a;
  a.rounds = 1;  // every rank owns exactly one chunk per stage
  a.total_bytes = ext[0] * ext[1] * ext[2] *
                  static_cast<std::int64_t>(p_.elem_size);
  for (int r = 0; r < p_.nranks; ++r) {
    const std::array<int, 3> fi = fs.index(r, p1_);
    for (int s = 0; s < p_.nranks; ++s) {
      const std::array<int, 3> ti = ts.index(s, p1_);
      std::int64_t v = 1;
      for (std::size_t d = 0; d < 3; ++d)
        v *= block_overlap(ext[d], fs.blocks[d], fi[d], ts.blocks[d], ti[d]);
      if (v == 0) continue;
      const std::int64_t bytes = v * static_cast<std::int64_t>(p_.elem_size);
      if (s == r) {
        a.self_bytes += bytes;
      } else {
        a.network_bytes += bytes;
        a.messages += 1;
      }
    }
  }
  return a;
}

// ---------------------------------------------------------------------------

PencilTimestepper::PencilTimestepper(mpi::Comm comm,
                                     const PencilParams& params,
                                     const ddr::SetupOptions& options)
    : gen_(params) {
  ddr::require(comm.size() == params.nranks,
               "PencilTimestepper: comm size must equal params.nranks");
  const int r = comm.rank();
  const Stage chain[kTransposesPerStep + 1] = {
      Stage::slab, Stage::pencil_y, Stage::pencil_z, Stage::pencil_y,
      Stage::slab};
  rd_.reserve(kTransposesPerStep);
  for (int t = 0; t < kTransposesPerStep; ++t) {
    rd_.emplace_back(comm, params.elem_size);
    rd_.back().setup({gen_.chunk(chain[t], r)}, gen_.chunk(chain[t + 1], r),
                     options);
  }
  slab_bytes_ = rd_.front().owned_bytes();
  py_.resize(rd_[0].needed_bytes());
  pz_.resize(rd_[1].needed_bytes());
  slab_tmp_.resize(slab_bytes_);
}

void PencilTimestepper::step(std::span<const std::byte> slab_in,
                             std::span<std::byte> slab_out) {
  ddr::require(slab_in.size() == slab_bytes_ && slab_out.size() == slab_bytes_,
               "PencilTimestepper::step: slab buffer size mismatch");
  rd_[0].redistribute(slab_in, py_);
  rd_[1].redistribute(py_, pz_);
  if (spectral_) spectral_(pz_);
  rd_[2].redistribute(pz_, py_);
  rd_[3].redistribute(py_, slab_out);
}

void PencilTimestepper::run(int n, std::span<std::byte> slab_data) {
  for (int i = 0; i < n; ++i) {
    step(slab_data, slab_tmp_);
    std::memcpy(slab_data.data(), slab_tmp_.data(), slab_bytes_);
  }
}

void PencilTimestepper::trace_sink(trace::Recorder* rec) {
  for (ddr::Redistributor& rd : rd_) rd.trace_sink(rec);
}

}  // namespace workloads
