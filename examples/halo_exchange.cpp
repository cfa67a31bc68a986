// Halo exchange expressed as a DDR redistribution, using the multi-chunk
// receive extension (the paper's §V future work, "support for more data
// patterns").
//
// A 2-D Jacobi heat-diffusion stencil runs on a 48x48 grid split into
// row-slabs across 4 ranks. Each iteration, instead of hand-written
// neighbour sends, every rank declares three needed chunks — its slab plus
// a one-row halo above and below — and calls redistribute() on the current
// field. The mapping is set up once; redistribute repeats per iteration
// (DDR's dynamic-data workflow). The result is verified against a serial
// run of the same stencil.
//
// Run: ./halo_exchange

#include <cmath>
#include <cstdio>
#include <span>
#include <vector>

#include "ddr/redistributor.hpp"
#include "minimpi/minimpi.hpp"

namespace {

constexpr int kNx = 48, kNy = 48;
constexpr int kRanks = 4;
constexpr int kIters = 60;

float initial(int x, int y) {
  // A hot square in the middle of a cold plate.
  return (x >= 18 && x < 30 && y >= 18 && y < 30) ? 100.0f : 0.0f;
}

/// One Jacobi step on rows [y0, y1) of `cur` (which carries a halo row on
/// each side when interior); fixed boundary at the plate edges.
void jacobi_rows(const std::vector<float>& padded, int padded_y0, int y0,
                 int y1, std::vector<float>& out) {
  for (int y = y0; y < y1; ++y) {
    for (int x = 0; x < kNx; ++x) {
      float v;
      if (x == 0 || x == kNx - 1 || y == 0 || y == kNy - 1) {
        v = padded[static_cast<std::size_t>((y - padded_y0) * kNx + x)];
      } else {
        auto at = [&](int xx, int yy) {
          return padded[static_cast<std::size_t>((yy - padded_y0) * kNx + xx)];
        };
        v = 0.25f * (at(x - 1, y) + at(x + 1, y) + at(x, y - 1) + at(x, y + 1));
      }
      out[static_cast<std::size_t>((y - y0) * kNx + x)] = v;
    }
  }
}

/// Serial reference for verification.
std::vector<float> serial_reference() {
  std::vector<float> cur(kNx * kNy), next(kNx * kNy);
  for (int y = 0; y < kNy; ++y)
    for (int x = 0; x < kNx; ++x)
      cur[static_cast<std::size_t>(y * kNx + x)] = initial(x, y);
  for (int it = 0; it < kIters; ++it) {
    jacobi_rows(cur, 0, 0, kNy, next);
    std::swap(cur, next);
  }
  return cur;
}

}  // namespace

int main() {
  const std::vector<float> reference = serial_reference();
  std::vector<float> distributed(kNx * kNy, -1.0f);

  mpi::run(kRanks, [&](mpi::Comm& comm) {
    const int r = comm.rank();
    const int rows = kNy / kRanks;
    const int y0 = rows * r;

    // Owned: my slab. Needed: halo row below + my slab + halo row above —
    // one redistribution call replaces both neighbour exchanges.
    const ddr::OwnedLayout own{ddr::Chunk::d2(kNx, rows, 0, y0)};
    ddr::NeededLayout need;
    const int pad_lo = r > 0 ? 1 : 0;
    const int pad_hi = r < kRanks - 1 ? 1 : 0;
    if (pad_lo) need.push_back(ddr::Chunk::d2(kNx, 1, 0, y0 - 1));
    need.push_back(ddr::Chunk::d2(kNx, rows, 0, y0));
    if (pad_hi) need.push_back(ddr::Chunk::d2(kNx, 1, 0, y0 + rows));

    ddr::Redistributor rd(comm, sizeof(float));
    ddr::SetupOptions opts;
    // Sparse (<= 2 peers): the point-to-point backend.
    opts.backend = ddr::Backend::point_to_point_pipelined;
    rd.setup(own, need, opts);

    std::vector<float> slab(static_cast<std::size_t>(kNx) * rows);
    for (int y = 0; y < rows; ++y)
      for (int x = 0; x < kNx; ++x)
        slab[static_cast<std::size_t>(y * kNx + x)] = initial(x, y0 + y);

    std::vector<float> padded(rd.needed_bytes() / sizeof(float));
    for (int it = 0; it < kIters; ++it) {
      // One DDR call = full halo refresh (mapping reused every iteration).
      rd.redistribute(std::as_bytes(std::span<const float>(slab)),
                      std::as_writable_bytes(std::span<float>(padded)));
      jacobi_rows(padded, y0 - pad_lo, y0, y0 + rows, slab);
    }

    // Gather for verification.
    const mpi::Datatype f = mpi::Datatype::of<float>();
    comm.gather(slab.data(), slab.size(), f, distributed.data(), slab.size(),
                f, 0);
    if (r == 0) {
      float max_err = 0, center = 0;
      for (std::size_t i = 0; i < distributed.size(); ++i)
        max_err = std::max(max_err, std::abs(distributed[i] - reference[i]));
      center = distributed[static_cast<std::size_t>(24 * kNx + 24)];
      std::printf("halo-exchange-as-DDR: %d Jacobi iterations on %dx%d over "
                  "%d ranks\n", kIters, kNx, kNy, kRanks);
      std::printf("  max |distributed - serial| = %g (expect 0)\n", max_err);
      std::printf("  centre temperature after diffusion: %.3f\n", center);
      std::printf("  mapping: %d round(s), %.1f peers/rank, %lld transfers\n",
                  rd.rounds(), rd.stats().mean_send_peers,
                  static_cast<long long>(rd.stats().transfer_count));
      if (max_err != 0.0f) std::printf("  MISMATCH!\n");
    }
  });
  return 0;
}
