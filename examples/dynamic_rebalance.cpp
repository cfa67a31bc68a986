// Dynamic 1-D redistribution with the sparse point-to-point backend.
//
// A producer writes a time-series signal in uneven segments (rank r owns a
// segment whose size drifts every step — think adaptive sampling), while the
// consumer side always wants an even, load-balanced split. Because the
// layout changes each step, the mapping is re-set-up per step; because each
// rank only exchanges with a few neighbours, the example uses DDR's
// point-to-point backend (the paper's §V future-work optimization) and
// prints how many messages it saved compared to the dense alltoallw lanes.
//
// Run: ./dynamic_rebalance

#include <cmath>
#include <cstdio>
#include <mutex>
#include <numeric>
#include <span>
#include <vector>

#include "ddr/ddr.hpp"
#include "minimpi/minimpi.hpp"

namespace {

constexpr int kRanks = 6;
constexpr int kTotal = 6000;  // global samples
constexpr int kSteps = 5;

/// Uneven segment boundaries that drift with the step index.
std::vector<int> segment_bounds(int step) {
  std::vector<int> bounds{0};
  double acc = 0;
  std::vector<double> weights;
  for (int r = 0; r < kRanks; ++r) {
    weights.push_back(1.0 + 0.8 * std::sin(0.9 * r + 0.6 * step));
    acc += weights.back();
  }
  double cum = 0;
  for (int r = 0; r < kRanks - 1; ++r) {
    cum += weights[static_cast<std::size_t>(r)];
    bounds.push_back(static_cast<int>(kTotal * cum / acc));
  }
  bounds.push_back(kTotal);
  return bounds;
}

float signal(int i, int step) {
  return std::sin(0.002f * static_cast<float>(i)) +
         0.1f * static_cast<float>(step);
}

}  // namespace

int main() {
  std::mutex print_mutex;

  mpi::run(kRanks, [&](mpi::Comm& comm) {
    const int rank = comm.rank();
    // The consumer side is fixed: an even split.
    const int even = kTotal / kRanks;
    const ddr::Chunk need = ddr::Chunk::d1(even, even * rank);
    std::vector<float> balanced(static_cast<std::size_t>(even));

    for (int step = 0; step < kSteps; ++step) {
      const std::vector<int> bounds = segment_bounds(step);
      const int lo = bounds[static_cast<std::size_t>(rank)];
      const int hi = bounds[static_cast<std::size_t>(rank) + 1];

      // "New data arrives" in an uneven segment.
      std::vector<float> segment;
      for (int i = lo; i < hi; ++i) segment.push_back(signal(i, step));

      // Layout changed -> new mapping; transfers are sparse -> the
      // point-to-point (fused-lane) backend.
      ddr::Redistributor rd(comm, sizeof(float));
      ddr::SetupOptions opts;
      opts.backend = ddr::Backend::point_to_point_pipelined;
      rd.setup({ddr::Chunk::d1(hi - lo, lo)}, need, opts);
      rd.redistribute(std::as_bytes(std::span<const float>(segment)),
                      std::as_writable_bytes(std::span<float>(balanced)));

      // Verify and report.
      for (int i = 0; i < even; ++i) {
        const float expect = signal(even * rank + i, step);
        if (balanced[static_cast<std::size_t>(i)] != expect) {
          std::fprintf(stderr, "MISMATCH rank %d step %d i %d\n", rank, step,
                       i);
          return;
        }
      }
      if (rank == 0) {
        const auto& st = rd.stats();
        std::lock_guard lk(print_mutex);
        std::printf(
            "step %d: segments sized", step);
        for (int r = 0; r < kRanks; ++r)
          std::printf(" %d", bounds[static_cast<std::size_t>(r) + 1] -
                                 bounds[static_cast<std::size_t>(r)]);
        std::printf(
            "  ->  %lld sparse transfers vs %d dense alltoallw lanes "
            "(%.0f%% saved), %.1f peers/rank\n",
            static_cast<long long>(st.transfer_count),
            kRanks * (kRanks - 1) * st.rounds,
            100.0 * (1.0 - static_cast<double>(st.transfer_count) /
                               (kRanks * (kRanks - 1) * st.rounds)),
            st.mean_send_peers);
      }
      comm.barrier();
    }
    if (rank == 0)
      std::printf("all %d steps rebalanced and verified on %d ranks.\n",
                  kSteps, kRanks);
  });
  return 0;
}
