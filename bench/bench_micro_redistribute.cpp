// Microbenchmark (wall clock, google-benchmark): throughput of the DDR
// engine itself on this machine — setup cost and redistribute cost for the
// two use-case-shaped mappings and both backends, across data sizes.
//
// Unlike the table benches (which report simulated cluster time), this
// measures the real cost of the library's own machinery: geometric mapping
// construction, subarray pack/unpack, and the threaded message layer.

#include <benchmark/benchmark.h>

#include <vector>

#include "ddr/ddr.hpp"
#include "minimpi/minimpi.hpp"

namespace {

using ddr::Backend;
using ddr::Chunk;

/// Rows -> near-square rectangles on a side x side float grid (use case B).
void BM_RedistributeRowsToRects(benchmark::State& state) {
  const int side = static_cast<int>(state.range(0));
  const Backend backend = state.range(1) == 0
                              ? Backend::alltoallw
                              : Backend::point_to_point_pipelined;
  constexpr int kRanks = 4;
  for (auto _ : state) {
    mpi::run(kRanks, [&](mpi::Comm& comm) {
      const int r = comm.rank();
      const int rows = side / kRanks;
      ddr::Redistributor rd(comm, sizeof(float));
      ddr::SetupOptions opts;
      opts.backend = backend;
      rd.setup({Chunk::d2(side, rows, 0, rows * r)},
               Chunk::d2(side / 2, side / 2, (r % 2) * side / 2,
                         (r / 2) * side / 2),
               opts);
      std::vector<float> own(static_cast<std::size_t>(side) * rows, 1.0f);
      std::vector<float> need(static_cast<std::size_t>(side) * side / 4);
      rd.redistribute(std::as_bytes(std::span<const float>(own)),
                      std::as_writable_bytes(std::span<float>(need)));
      benchmark::DoNotOptimize(need.data());
    });
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          side * side * 4);
}
BENCHMARK(BM_RedistributeRowsToRects)
    ->ArgsProduct({{128, 512, 1024}, {0, 1}})
    ->ArgNames({"side", "p2p"})
    ->UseRealTime();

/// Mapping-setup cost alone as the chunk count grows (round-robin shape).
void BM_SetupManyChunks(benchmark::State& state) {
  const int chunks = static_cast<int>(state.range(0));
  constexpr int kRanks = 8;
  for (auto _ : state) {
    mpi::run(kRanks, [&](mpi::Comm& comm) {
      const int r = comm.rank();
      ddr::OwnedLayout own;
      for (int c = 0; c < chunks; ++c)
        own.push_back(Chunk::d3(16, 16, 1, 0, 0, r + kRanks * c));
      ddr::Redistributor rd(comm, 4);
      rd.setup(own, Chunk::d3(16, 16, chunks * kRanks / 8, 0, 0,
                              r * chunks * kRanks / 8));
      benchmark::DoNotOptimize(rd.rounds());
    });
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          chunks * kRanks);
}
BENCHMARK(BM_SetupManyChunks)->Arg(8)->Arg(32)->Arg(128)->ArgNames({"chunks"})->UseRealTime();

/// The raw threaded message layer: ping-pong latency and bandwidth.
void BM_MinimpiPingPong(benchmark::State& state) {
  const std::size_t bytes = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    mpi::run(2, [&](mpi::Comm& comm) {
      const mpi::Datatype b = mpi::Datatype::bytes(1);
      std::vector<std::byte> buf(bytes);
      const int peer = 1 - comm.rank();
      for (int round = 0; round < 8; ++round) {
        if (comm.rank() == 0) {
          comm.send(buf.data(), bytes, b, peer, 0);
          comm.recv(buf.data(), bytes, b, peer, 0);
        } else {
          comm.recv(buf.data(), bytes, b, peer, 0);
          comm.send(buf.data(), bytes, b, peer, 0);
        }
      }
    });
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 16 *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_MinimpiPingPong)->Arg(64)->Arg(64 * 1024)->Arg(4 * 1024 * 1024)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
