// Failover rebalancing: surviving a rank kill mid-simulation.
//
// Four ranks cycle a 1-D domain through DDR redistributions (the producer
// side owns fixed quarters, the consumer side wants the cyclically shifted
// quarters). Mid-run a fault plan kills rank 3 — the way a node loss looks
// to an MPI job. The survivors' next collective can never complete; instead
// of hanging the job forever, minimpi's deadlock watchdog raises
// mpi::ErrorClass::deadlock on every blocked survivor. The survivors then:
//
//   1. agree on the dead set (Comm::failed_ranks — no messages needed),
//   2. re-declare the surviving data and call the comm-less
//      Redistributor::rebuild(owned, needed), which heals the communicator
//      itself (Comm::shrink) and remaps in one step,
//   3. keep redistributing the surviving region.
//
// Run: ./failover_rebalance

#include <cstdio>
#include <mutex>
#include <span>
#include <vector>

#include "ddr/ddr.hpp"
#include "minimpi/minimpi.hpp"
#include "simnet/faults.hpp"

namespace {

constexpr int kRanks = 4;
constexpr int kQuarter = 1024;  // elements owned per rank

float element(int i) { return 0.5f * static_cast<float>(i); }

}  // namespace

int main() {
  simnet::RankKillPlan kill_rank3({3});
  std::mutex print_mutex;
  int exit_code = 0;

  mpi::RunOptions opts;
  opts.fault = &kill_rank3;
  opts.deadlock_grace_s = 0.15;  // short grace: this is an interactive demo

  mpi::run(
      kRanks,
      [&](mpi::Comm& comm) {
        const int rank = comm.rank();
        ddr::Redistributor r(comm, sizeof(float));

        // Rank r owns [r*Q, (r+1)*Q); needs its right neighbour's quarter.
        const ddr::OwnedLayout own{ddr::Chunk::d1(kQuarter, kQuarter * rank)};
        const ddr::Chunk need =
            ddr::Chunk::d1(kQuarter, kQuarter * ((rank + 1) % kRanks));
        r.setup(own, need);

        std::vector<float> mine(kQuarter);
        for (int i = 0; i < kQuarter; ++i)
          mine[static_cast<std::size_t>(i)] = element(kQuarter * rank + i);
        std::vector<float> got(kQuarter, -1.0f);

        r.redistribute(std::as_bytes(std::span<const float>(mine)),
                       std::as_writable_bytes(std::span<float>(got)));
        if (rank == 0) {
          std::lock_guard lk(print_mutex);
          std::printf("step 0: all %d ranks redistributed their quarters\n",
                      kRanks);
        }

        // A node dies. Rank 3 arms its own death once it is fully out of
        // the barrier, so it deterministically dies at its first fault
        // checkpoint inside the next redistribution — were another rank to
        // arm the plan, rank 3 could die halfway through the barrier and
        // strand peers outside the try block below.
        comm.barrier();
        if (rank == 3) kill_rank3.arm();

        try {
          r.redistribute(std::as_bytes(std::span<const float>(mine)),
                         std::as_writable_bytes(std::span<float>(got)));
          // Rank 3 never gets here; if a survivor does, recovery is moot.
        } catch (const mpi::Error& e) {
          if (e.error_class() != mpi::ErrorClass::deadlock) throw;
          std::lock_guard lk(print_mutex);
          std::printf("rank %d: watchdog: %s\n", rank, e.what());
        }

        // Recovery on the survivors. Derive the post-shrink identity from
        // the dead set alone (survivors keep their order), declare the new
        // needed side, and let the comm-less rebuild heal + remap.
        const std::vector<int> dead = comm.failed_ranks();
        int new_rank = rank;
        for (int d : dead)
          if (d < rank) --new_rank;
        const int new_size = kRanks - static_cast<int>(dead.size());

        // The dead rank's quarter is gone; rebalance the surviving region
        // [0, 3*Q) with the same cyclic-shift pattern over three ranks.
        const ddr::Chunk new_need =
            ddr::Chunk::d1(kQuarter, kQuarter * ((new_rank + 1) % new_size));
        r.rebuild(own, new_need);
        {
          std::lock_guard lk(print_mutex);
          std::printf("rank %d: %zu rank(s) lost, continuing as %d/%d\n", rank,
                      dead.size(), r.comm().rank(), r.comm().size());
        }
        r.redistribute(std::as_bytes(std::span<const float>(mine)),
                       std::as_writable_bytes(std::span<float>(got)));

        // Verify: got must hold the neighbour's quarter of the element
        // sequence.
        const int base = kQuarter * ((new_rank + 1) % new_size);
        for (int i = 0; i < kQuarter; ++i)
          if (got[static_cast<std::size_t>(i)] != element(base + i)) {
            std::lock_guard lk(print_mutex);
            std::printf("rank %d: MISMATCH at %d\n", rank, i);
            exit_code = 1;
            return;
          }
        {
          std::lock_guard lk(print_mutex);
          std::printf("rank %d: post-failover redistribution verified\n",
                      rank);
        }
      },
      opts);

  if (exit_code == 0) std::printf("failover_rebalance: OK\n");
  return exit_code;
}
