// Ablation A1 (DESIGN.md): dense MPI_Alltoallw rounds (the paper's published
// algorithm) versus the sparse point-to-point backend (the paper's §V
// future-work optimization, DDR's fused-lane executor), on mappings of
// varying sparsity.
//
// Reports, per scenario: non-empty transfers vs dense P^2 lanes, and the
// simulated redistribution time of each backend under the Cooley link model.
// Expectation: p2p wins when each rank talks to few peers (slab->slab
// shifts, halo-like maps); the advantage shrinks as the mapping densifies
// (slabs -> bricks at small P).

#include <cmath>
#include <cstdio>
#include <numeric>
#include <span>
#include <vector>

#include "common.hpp"
#include "ddr/ddr.hpp"
#include "minimpi/minimpi.hpp"

namespace {

/// Builds a 1-D "shift" layout: rank r owns block r, needs block
/// (r + 1) % P — every rank exchanges with exactly one peer.
ddr::GlobalLayout shift_layout(int p, int block) {
  ddr::GlobalLayout l;
  for (int r = 0; r < p; ++r) {
    l.owned.push_back({ddr::Chunk::d1(block, block * r)});
    l.needed.push_back({ddr::Chunk::d1(block, block * ((r + 1) % p))});
  }
  return l;
}

/// 2-D rows -> columns transpose: every rank exchanges with every rank.
ddr::GlobalLayout transpose_layout(int p, int n) {
  ddr::GlobalLayout l;
  const int rows = n / p;
  for (int r = 0; r < p; ++r) {
    l.owned.push_back({ddr::Chunk::d2(n, rows, 0, rows * r)});
    l.needed.push_back({ddr::Chunk::d2(rows, n, rows * r, 0)});
  }
  return l;
}

int dvr_grid(int p) { return static_cast<int>(std::lround(std::cbrt(p))); }

/// 3-D slabs -> bricks (the TIFF use case shape). `n` must be divisible by
/// both p and the cubic grid.
ddr::GlobalLayout slab_to_brick_layout(int p, int n) {
  ddr::GlobalLayout l;
  const auto grid = dvr_grid(p);
  const int slab = n / p;
  for (int r = 0; r < p; ++r) {
    l.owned.push_back({ddr::Chunk::d3(n, n, slab, 0, 0, slab * r)});
    const int bx = r % grid, by = (r / grid) % grid, bz = r / (grid * grid);
    const int b = n / grid;
    l.needed.push_back(
        {ddr::Chunk::d3(b, b, b, b * bx, b * by, b * bz)});
  }
  return l;
}

/// Simulated redistribution time for one backend.
double simulate(const ddr::GlobalLayout& layout, ddr::Backend backend,
                const mpi::NetworkModel& net) {
  const int p = layout.nranks();
  mpi::RunOptions opts;
  opts.network = &net;
  const mpi::RunResult res = mpi::run(
      p,
      [&](mpi::Comm& comm) {
        const auto r = static_cast<std::size_t>(comm.rank());
        ddr::Redistributor rd(comm, 4);
        ddr::SetupOptions so;
        so.backend = backend;
        rd.setup(layout.owned[r], layout.needed[r], so);
        std::vector<std::byte> own(rd.owned_bytes(), std::byte{1});
        std::vector<std::byte> need(rd.needed_bytes());
        comm.barrier();
        comm.clock().reset();  // time the redistribution only
        rd.redistribute(own, need);
      },
      opts);
  return res.makespan();
}

void report(const char* name, const ddr::GlobalLayout& layout,
            const mpi::NetworkModel& net) {
  const int p = layout.nranks();
  const auto stats = ddr::compute_stats(layout, 4);
  const double t_w = simulate(layout, ddr::Backend::alltoallw, net);
  const double t_p2p =
      simulate(layout, ddr::Backend::point_to_point_pipelined, net);
  const long long lanes =
      static_cast<long long>(p) * (p - 1) * stats.rounds;
  std::printf("%-22s %-5d %-7d %-9lld %-7lld %-12.4f %-12.4f %.2fx\n", name,
              p, stats.rounds, lanes, static_cast<long long>(stats.transfer_count),
              t_w, t_p2p, t_w / t_p2p);
}

}  // namespace

int main() {
  std::printf("Ablation A1: alltoallw backend vs sparse point-to-point "
              "backend (simulated seconds, Cooley link model)\n\n");
  std::printf("%-22s %-5s %-7s %-9s %-7s %-12s %-12s %s\n", "scenario", "P",
              "rounds", "lanes", "xfers", "alltoallw", "p2p", "speedup");
  std::printf("---------------------------------------------------------"
              "--------------------------------\n");

  const simnet::LinkModel net(bench::tiff_link_params());

  for (int p : {8, 27, 64}) {
    report("1D shift (1 peer)", shift_layout(p, 1 << 16), net);
  }
  for (int p : {4, 8, 16}) {
    report("2D transpose (dense)", transpose_layout(p, 256), net);
  }
  report("3D slabs->bricks", slab_to_brick_layout(8, 128), net);
  report("3D slabs->bricks", slab_to_brick_layout(27, 216), net);
  report("3D slabs->bricks", slab_to_brick_layout(64, 256), net);

  std::printf("\nreading the table: 'lanes' is what a dense alltoallw must "
              "consider (P*(P-1)*rounds); 'xfers' is what actually moves. "
              "The sparser the mapping, the bigger the p2p win — the paper's "
              "future-work hypothesis.\n");
  std::printf("caveat: the p2p backend posts all nonblocking transfers at "
              "once, so the model charges it no pairwise-step serialization; "
              "treat absolute speedups as an upper bound and compare the "
              "TREND across sparsity.\n");
  return 0;
}
