// Fault-tolerance tests of the DDR core: redistribution under lossy
// fault-injection plans (drop/duplicate/delay), fail-safe collective error
// agreement, and failover via shrink()+rebuild() after a rank kill.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "ddr/ddr.hpp"
#include "minimpi/minimpi.hpp"
#include "simnet/faults.hpp"
#include "simnet/models.hpp"
#include "test_util.hpp"
#include "trace/trace.hpp"

namespace {

using ddr::Backend;
using ddr::Chunk;
using ddr::Redistributor;
using ddr_test::fill_chunk;
using ddr_test::oracle_value;

std::span<std::byte> bytes_of(std::vector<float>& v) {
  return std::as_writable_bytes(std::span<float>(v));
}

void expect_oracle(const std::vector<float>& need, const Chunk& c) {
  std::size_t i = 0;
  const auto dim = [&](int d) {
    return d < c.ndims ? c.dims[static_cast<std::size_t>(d)] : 1;
  };
  const auto off = [&](int d) {
    return d < c.ndims ? c.offsets[static_cast<std::size_t>(d)] : 0;
  };
  for (int z = 0; z < dim(2); ++z)
    for (int y = 0; y < dim(1); ++y)
      for (int x = 0; x < dim(0); ++x) {
        ASSERT_EQ(need[i], oracle_value(x + off(0), y + off(1), z + off(2)))
            << "at local (" << x << "," << y << "," << z << ")";
        ++i;
      }
}

/// The 2D rows-to-quadrants exchange from the paper's E1, run under a fault
/// plan with the given backend; the result must match the oracle exactly.
void run_quadrants_under_faults(Backend backend, mpi::FaultModel* fault,
                                int repetitions = 1) {
  mpi::RunOptions ropts;
  ropts.fault = fault;
  mpi::run(
      4,
      [&](mpi::Comm& comm) {
        const int rank = comm.rank();
        Redistributor r(comm, sizeof(float));
        const ddr::OwnedLayout own{Chunk::d2(8, 1, 0, rank),
                                   Chunk::d2(8, 1, 0, rank + 4)};
        const Chunk need = Chunk::d2(4, 4, 4 * (rank % 2), 4 * (rank / 2));
        ddr::SetupOptions opts;
        opts.backend = backend;
        r.setup(own, need, opts);

        std::vector<float> own_data;
        for (const auto& c : own) {
          const auto v = fill_chunk(c);
          own_data.insert(own_data.end(), v.begin(), v.end());
        }
        for (int rep = 0; rep < repetitions; ++rep) {
          std::vector<float> need_data(static_cast<std::size_t>(need.volume()),
                                       -1);
          r.redistribute(bytes_of(own_data), bytes_of(need_data));
          expect_oracle(need_data, need);
        }
      },
      ropts);
}

TEST(FaultTolerance, P2pCompletesBitIdenticallyUnderTenPercentDrop) {
  // The acceptance scenario: a seeded 10% drop plan on the data plane; the
  // point-to-point backend must detect the losses, re-request the missing
  // lanes and deliver exactly the oracle data. Three repetitions exercise
  // the per-call epoch scoping (a retry of call N must never satisfy call
  // N+1).
  simnet::RandomFaultParams p;
  p.drop_rate = 0.10;
  p.seed = 1234;
  simnet::RandomFaultPlan plan(p);
  run_quadrants_under_faults(Backend::point_to_point_pipelined, &plan,
                             /*repetitions=*/3);
  const auto stats = plan.stats();
  EXPECT_GT(stats.dropped, 0u) << "the plan never dropped anything — the "
                                  "retry path was not exercised";
}

TEST(FaultTolerance, P2pCompletesUnderDuplicationAndDelay) {
  simnet::RandomFaultParams p;
  p.duplicate_rate = 0.30;
  p.delay_rate = 0.50;
  p.delay_s = 1.0e-3;
  p.seed = 99;
  simnet::RandomFaultPlan plan(p);
  run_quadrants_under_faults(Backend::point_to_point_pipelined, &plan,
                             /*repetitions=*/2);
  const auto stats = plan.stats();
  EXPECT_GT(stats.duplicated, 0u);
  EXPECT_GT(stats.delayed, 0u);
}

TEST(FaultTolerance, P2pCompletesUnderCombinedDropAndDuplication) {
  simnet::RandomFaultParams p;
  p.drop_rate = 0.15;
  p.duplicate_rate = 0.15;
  p.seed = 7;
  simnet::RandomFaultPlan plan(p);
  run_quadrants_under_faults(Backend::point_to_point_pipelined, &plan,
                             /*repetitions=*/2);
}

TEST(FaultTolerance, PipelinedP2pIsGatedOffUnderActiveFaultModel) {
  // The happy path's completion wait would block forever on a dropped lane
  // (nothing ever completes the orphaned receive), so under an active
  // FaultModel the fused-lane executor moves its lanes through the
  // per-lane retry protocol (the ddr.exchange.reliable span) — and still
  // delivers the oracle bytes. Delay injection reorders lanes, which the
  // up-front receive window must also survive. A staging budget changes
  // nothing here: the wave barriers assume lossless delivery too, so the
  // waved executor takes the same path.
  simnet::RandomFaultParams p;
  p.drop_rate = 0.10;
  p.delay_rate = 0.30;
  p.delay_s = 1.0e-3;
  p.seed = 2468;
  simnet::RandomFaultPlan plan(p);
  mpi::RunOptions ropts;
  ropts.fault = &plan;
  mpi::run(
      4,
      [&](mpi::Comm& comm) {
        const int rank = comm.rank();
        const ddr::OwnedLayout own{Chunk::d2(8, 1, 0, rank),
                                   Chunk::d2(8, 1, 0, rank + 4)};
        const Chunk need = Chunk::d2(4, 4, 4 * (rank % 2), 4 * (rank / 2));
        std::vector<float> own_data;
        for (const auto& c : own) {
          const auto v = fill_chunk(c);
          own_data.insert(own_data.end(), v.begin(), v.end());
        }
        for (const std::size_t budget : {std::size_t{0}, std::size_t{64}}) {
          Redistributor r(comm, sizeof(float));
          trace::Recorder rec(rank);
          r.trace_sink(&rec);
          ddr::SetupOptions opts;
          opts.backend = Backend::point_to_point_pipelined;
          opts.peak_staging_bytes = budget;
          r.setup(own, need, opts);
          EXPECT_EQ(r.effective_backend(), Backend::point_to_point_pipelined);
          // Two repetitions exercise the per-call epoch scoping on the
          // retry path (a retry of call N must never satisfy call N+1).
          for (int rep = 0; rep < 2; ++rep) {
            std::vector<float> need_data(
                static_cast<std::size_t>(need.volume()), -1);
            r.redistribute(bytes_of(own_data), bytes_of(need_data));
            expect_oracle(need_data, need);
          }
          // The gate: every call ran the retry protocol, none the happy
          // path's receive window.
          EXPECT_EQ(trace::count_events(rec.events(), "ddr.exchange.reliable",
                                        trace::Phase::begin),
                    2u);
          EXPECT_EQ(trace::count_events(rec.events(), "ddr.pipeline.post",
                                        trace::Phase::begin),
                    0u);
        }
      },
      ropts);
  const auto stats = plan.stats();
  EXPECT_GT(stats.dropped + stats.delayed, 0u)
      << "the plan never touched a message — the fallback was not exercised";
}

TEST(FaultTolerance, IntraNodeLanesMoveAsPayloadsUnderTenPercentDrop) {
  // E1 with two ranks per node, so every rank has a self, an intra-node and
  // two inter-node lanes. Under the 10% drop plan the intra lane cannot
  // ride the zero-copy pointer publish — the plan could drop the pointer —
  // so it moves as one payload the retry protocol re-requests like any
  // other, and the exchange completes bit-identically.
  simnet::LinkParams lp;
  lp.ranks_per_node = 2;
  const simnet::LinkModel net(lp);
  simnet::RandomFaultParams p;
  p.drop_rate = 0.10;
  p.seed = 4321;
  simnet::RandomFaultPlan plan(p);
  mpi::RunOptions ropts;
  ropts.network = &net;
  ropts.fault = &plan;
  mpi::run(
      4,
      [&](mpi::Comm& comm) {
        const int rank = comm.rank();
        Redistributor r(comm, sizeof(float));
        trace::Recorder rec(rank);
        r.trace_sink(&rec);
        const ddr::OwnedLayout own{Chunk::d2(8, 1, 0, rank),
                                   Chunk::d2(8, 1, 0, rank + 4)};
        const Chunk need = Chunk::d2(4, 4, 4 * (rank % 2), 4 * (rank / 2));
        ddr::SetupOptions opts;
        opts.backend = Backend::point_to_point_pipelined;
        r.setup(own, need, opts);
        ASSERT_EQ(r.fused_lane_count(ddr::LaneClass::intra), 1);
        std::vector<float> own_data;
        for (const auto& c : own) {
          const auto v = fill_chunk(c);
          own_data.insert(own_data.end(), v.begin(), v.end());
        }
        for (int rep = 0; rep < 3; ++rep) {
          rec.clear();
          std::vector<float> need_data(
              static_cast<std::size_t>(need.volume()), -1);
          r.redistribute(bytes_of(own_data), bytes_of(need_data));
          expect_oracle(need_data, need);
          // The same-node peer's lane arrived as a 16-byte payload, not
          // through a published pointer.
          EXPECT_EQ(trace::bytes_by_peer(rec.events(), "ddr.msg.recv")
                        .at(rank ^ 1),
                    16);
          EXPECT_EQ(trace::count_events(rec.events(), "ddr.intra.publish",
                                        trace::Phase::instant),
                    0u);
        }
      },
      ropts);
  EXPECT_GT(plan.stats().dropped, 0u)
      << "the plan never dropped anything — the retry path was not exercised";
}

TEST(FaultTolerance, PipelinedP2pStaysPipelinedWithoutFaultModel) {
  mpi::run(2, [](mpi::Comm& comm) {
    Redistributor r(comm, sizeof(float));
    ddr::SetupOptions opts;
    opts.backend = Backend::point_to_point_pipelined;
    r.setup({Chunk::d1(4, 4 * comm.rank())}, Chunk::d1(4, 4 * comm.rank()),
            opts);
    EXPECT_EQ(r.effective_backend(), Backend::point_to_point_pipelined);
  });
}

TEST(FaultTolerance, PipelinedSpansCloseWhenSenderDiesMidExchange) {
  // Span-closing contract extended to the pipelined path: a redistribute()
  // requested as pipelined that dies mid-exchange (killed sender, diagnosed
  // by the retry protocol's watchdog-style death detection) must close
  // every span it opened by unwinding, so each survivor's recorded stream
  // stays balanced. In E1's quadrants every rank expects data from rank 3,
  // so all three survivors diagnose the death.
  simnet::RankKillPlan plan({3});
  mpi::RunOptions ropts;
  ropts.fault = &plan;
  std::vector<trace::Recorder> recs;
  recs.reserve(4);
  for (int r = 0; r < 4; ++r) recs.emplace_back(r);
  std::atomic<int> diagnosed{0};
  mpi::run(
      4,
      [&](mpi::Comm& comm) {
        const int rank = comm.rank();
        const auto ri = static_cast<std::size_t>(rank);
        Redistributor r(comm, sizeof(float));
        r.trace_sink(&recs[ri]);
        const ddr::OwnedLayout own{Chunk::d2(8, 1, 0, rank),
                                   Chunk::d2(8, 1, 0, rank + 4)};
        const Chunk need = Chunk::d2(4, 4, 4 * (rank % 2), 4 * (rank / 2));
        ddr::SetupOptions opts;
        opts.backend = Backend::point_to_point_pipelined;
        // Go straight to the exchange so rank 3 dies inside it, not in the
        // precondition agreement collective.
        opts.collective_error_agreement = false;
        r.setup(own, need, opts);
        recs[ri].clear();
        std::vector<float> own_data;
        for (const auto& c : own) {
          const auto v = fill_chunk(c);
          own_data.insert(own_data.end(), v.begin(), v.end());
        }
        std::vector<float> need_data(static_cast<std::size_t>(need.volume()),
                                     -1);
        comm.barrier();
        if (rank == 3) plan.arm();
        try {
          r.redistribute(bytes_of(own_data), bytes_of(need_data));
          ASSERT_EQ(rank, -1) << "exchange with a killed sender completed";
        } catch (const std::exception& e) {
          if (rank != 3) {
            EXPECT_NE(std::string(e.what()).find("killed"), std::string::npos)
                << "unexpected error: " << e.what();
            diagnosed.fetch_add(1);
          }
        }
        // Unwinding must have closed everything redistribute() opened.
        if (rank != 3) {
          EXPECT_EQ(recs[ri].open_spans(), 0u) << "rank " << rank;
        }
      },
      ropts);
  EXPECT_EQ(diagnosed.load(), 3);
  for (int r = 0; r < 3; ++r)
    EXPECT_TRUE(trace::spans_balanced(recs[static_cast<std::size_t>(r)]
                                          .events()))
        << "rank " << r;
}

TEST(FaultTolerance, AlltoallwUnaffectedByDataPlaneLoss) {
  // The alltoallw backend moves data over the collective channel, which the
  // default plan leaves reliable (control/collective plane); it must work
  // untouched even under heavy data-plane loss.
  simnet::RandomFaultParams p;
  p.drop_rate = 0.50;
  p.seed = 5;
  simnet::RandomFaultPlan plan(p);
  run_quadrants_under_faults(Backend::alltoallw, &plan, /*repetitions=*/2);
}

TEST(FaultTolerance, RetryExhaustionAbortsCollectively) {
  // Total data-plane loss is unrecoverable: the receiver must give up after
  // its bounded retry attempts and fail the run instead of retrying forever.
  simnet::RandomFaultParams p;
  p.drop_rate = 1.0;
  simnet::RandomFaultPlan plan(p);
  try {
    run_quadrants_under_faults(Backend::point_to_point_pipelined, &plan);
    FAIL() << "an unrecoverable loss plan completed";
  } catch (const ddr::Error& e) {
    EXPECT_NE(std::string(e.what()).find("attempt"), std::string::npos)
        << "unexpected error: " << e.what();
  }
}

TEST(FaultTolerance, P2pReportsKilledSenderInsteadOfRetryingForever) {
  // Rank 1 dies before it can send; rank 0's receiver must diagnose the
  // death (not burn retries into the void) and point at the recovery path.
  simnet::RankKillPlan plan({1});
  mpi::RunOptions ropts;
  ropts.fault = &plan;
  try {
    mpi::run(
        2,
        [&](mpi::Comm& comm) {
          const int rank = comm.rank();
          Redistributor r(comm, sizeof(float));
          const ddr::OwnedLayout own{Chunk::d1(4, 4 * rank)};
          const Chunk need = Chunk::d1(4, 4 * (1 - rank));  // swap halves
          ddr::SetupOptions opts;
          opts.backend = Backend::point_to_point_pipelined;
          // Agreement collectives would die with rank 1 first; go straight
          // to the exchange to exercise the retry loop's death detection.
          opts.collective_error_agreement = false;
          r.setup(own, need, opts);
          std::vector<float> own_data = fill_chunk(own.front());
          std::vector<float> need_data(4, -1);
          // Rank 1 arms its own death after the (collective) setup, so it
          // deterministically dies at its first fault checkpoint inside the
          // exchange — before delivering any data. send_packed checkpoints
          // before posting, so nothing from rank 1 ever reaches rank 0.
          if (rank == 1) plan.arm();
          r.redistribute(bytes_of(own_data), bytes_of(need_data));
        },
        ropts);
    FAIL() << "exchange with a killed sender completed";
  } catch (const ddr::Error& e) {
    EXPECT_NE(std::string(e.what()).find("killed"), std::string::npos)
        << "unexpected error: " << e.what();
  }
}

TEST(FaultTolerance, ShortBufferProducesSameErrorOnAllRanks) {
  // Fail-safe collective contract: rank 1 passes an undersized needed
  // buffer; EVERY rank must throw the identical error naming rank 1, and no
  // rank may hang in a half-entered collective.
  std::atomic<int> agreed{0};
  mpi::run(2, [&](mpi::Comm& comm) {
    const int rank = comm.rank();
    Redistributor r(comm, sizeof(float));
    const ddr::OwnedLayout own{Chunk::d1(4, 4 * rank)};
    const Chunk need = Chunk::d1(4, 4 * (1 - rank));
    r.setup(own, need);
    std::vector<float> own_data = fill_chunk(own.front());
    // Rank 1's needed buffer is one element short.
    std::vector<float> need_data(rank == 1 ? 3 : 4, -1);
    try {
      r.redistribute(bytes_of(own_data), bytes_of(need_data));
      FAIL() << "redistribute with a short buffer succeeded on rank " << rank;
    } catch (const ddr::Error& e) {
      EXPECT_NE(std::string(e.what()).find("rank 1"), std::string::npos)
          << "error does not name the failing rank: " << e.what();
      EXPECT_NE(std::string(e.what()).find("needed buffer"), std::string::npos);
      agreed.fetch_add(1);
    }
  });
  EXPECT_EQ(agreed.load(), 2);
}

TEST(FaultTolerance, EmptyNeededDeclarationAgreedAcrossRanks) {
  std::atomic<int> agreed{0};
  mpi::run(2, [&](mpi::Comm& comm) {
    const int rank = comm.rank();
    Redistributor r(comm, sizeof(float));
    const ddr::OwnedLayout own{Chunk::d1(4, 4 * rank)};
    ddr::NeededLayout need;
    if (rank != 0) need.push_back(Chunk::d1(4, 0));  // rank 0: nothing
    try {
      r.setup(own, need);
      FAIL() << "setup with an empty needed layout succeeded on rank " << rank;
    } catch (const ddr::Error& e) {
      EXPECT_NE(std::string(e.what()).find("rank 0"), std::string::npos)
          << "error does not name the failing rank: " << e.what();
      agreed.fetch_add(1);
    }
  });
  EXPECT_EQ(agreed.load(), 2);
}

TEST(FaultTolerance, MixedDimensionalityAcrossRanksRejectedEverywhere) {
  // Each rank is self-consistent (so local checks pass) but rank 0 declares
  // 1D and rank 1 declares 2D; before this check the mixed allgather
  // produced a garbage GlobalLayout. All ranks must throw the same error.
  std::atomic<int> agreed{0};
  mpi::run(2, [&](mpi::Comm& comm) {
    const int rank = comm.rank();
    Redistributor r(comm, sizeof(float));
    ddr::OwnedLayout own;
    Chunk need;
    if (rank == 0) {
      own = {Chunk::d1(8, 0)};
      need = Chunk::d1(8, 0);
    } else {
      own = {Chunk::d2(4, 2, 0, 1)};
      need = Chunk::d2(4, 2, 0, 1);
    }
    try {
      r.setup(own, need);
      FAIL() << "setup with mixed dimensionality succeeded on rank " << rank;
    } catch (const ddr::Error& e) {
      EXPECT_NE(std::string(e.what()).find("dimensionality"),
                std::string::npos)
          << "unexpected error: " << e.what();
      agreed.fetch_add(1);
    }
  });
  EXPECT_EQ(agreed.load(), 2);
}

// --- transactional resize under rank death -----------------------------------

/// One elastic-resize scenario with a death injected in a chosen protocol
/// phase: 3 ranks each owning 8 elements of [0,24) grow to 5. The victim —
/// old member (world rank 1) or first-attempt joiner (world rank 3) — arms
/// its own death at the start of `victim_phase`, so it dies inside that
/// phase. The resize must either complete (death absorbed before the plan,
/// e.g. in the rendezvous) or roll back and retry: afterwards the committed
/// members' layouts must cover exactly the surviving data, every byte
/// matching the oracle — never a partially-applied layout.
void run_resize_death(const char* victim_phase, bool victim_is_joiner) {
  const int victim_world = victim_is_joiner ? 3 : 1;
  simnet::RankKillPlan plan({victim_world});
  mpi::RunOptions ropts;
  ropts.fault = &plan;
  ropts.deadlock_grace_s = 0.1;
  ropts.max_ranks = 6;  // headroom for the first attempt AND the retry

  std::atomic<std::int64_t> committed_volume{0};
  std::atomic<int> committed_members{0};
  std::atomic<int> retired_joiners{0};
  std::atomic<int> rollbacks_seen{0};

  const auto check_committed = [&](const ddr::ResizeOutcome& out) {
    ASSERT_TRUE(out.comm.valid());
    std::size_t off = 0;
    std::int64_t vol = 0;
    for (const Chunk& c : out.owned) {
      const std::vector<float> want = fill_chunk(c);
      std::vector<float> got(want.size());
      ASSERT_LE(off + want.size() * sizeof(float), out.data.size());
      std::memcpy(got.data(), out.data.data() + off,
                  want.size() * sizeof(float));
      EXPECT_EQ(got, want);
      off += want.size() * sizeof(float);
      vol += c.volume();
    }
    committed_volume.fetch_add(vol);
    committed_members.fetch_add(1);
  };

  ropts.joiner_main = [&](mpi::Comm& comm) {
    ddr::ResizeOptions ropt;
    // First-attempt joiners sit at comm ranks [3, 5); world rank == comm
    // rank there, so the victim identifies itself and dies in its phase.
    const int my_rank = comm.rank();
    ropt.phase_hook = [&, my_rank](const char* p) {
      if (victim_is_joiner && my_rank == victim_world &&
          std::strcmp(p, victim_phase) == 0)
        plan.arm(victim_world);
    };
    const auto out =
        ddr::Redistributor::resize_join(comm, sizeof(float), ropt);
    if (out.committed) {
      check_committed(out);
    } else {
      EXPECT_TRUE(out.retired);
      EXPECT_FALSE(out.comm.valid());
      EXPECT_TRUE(out.owned.empty());
      EXPECT_TRUE(out.data.empty());
      retired_joiners.fetch_add(1);
    }
  };

  mpi::run(
      3,
      [&](mpi::Comm& comm) {
        const int rank = comm.rank();
        const Chunk mine = Chunk::d1(8, 8 * rank);
        const std::vector<float> data = fill_chunk(mine);
        ddr::ResizeOptions ropt;
        ropt.phase_hook = [&, rank](const char* p) {
          if (!victim_is_joiner && rank == victim_world &&
              std::strcmp(p, victim_phase) == 0)
            plan.arm(victim_world);
        };
        ddr::Redistributor r(comm, sizeof(float));
        const auto out = r.resize_rebalance(5, {mine},
                                            std::as_bytes(std::span(data)),
                                            ropt);
        // The victim never reaches here (killed); every surviving initiator
        // must commit within the attempt budget.
        ASSERT_TRUE(out.committed) << "rank " << rank;
        EXPECT_FALSE(out.retired);
        rollbacks_seen.fetch_add(out.rollbacks);
        check_committed(out);
      },
      ropts);

  // The committed layouts cover exactly the surviving data — the victim's
  // chunk is lost with it when an old member dies, nothing else.
  const std::int64_t surviving = victim_is_joiner ? 24 : 16;
  EXPECT_EQ(committed_volume.load(), surviving)
      << "phase " << victim_phase
      << (victim_is_joiner ? " (joiner victim)" : " (old-member victim)");
  EXPECT_GE(committed_members.load(), 3);
  // A death after the rendezvous can only resolve through a rollback; a
  // rendezvous death is absorbed by the healing shrink before any planning.
  if (std::strcmp(victim_phase, "rendezvous") != 0) {
    EXPECT_GE(rollbacks_seen.load(), 1) << "phase " << victim_phase;
    EXPECT_GE(retired_joiners.load(), 1) << "phase " << victim_phase;
  }
}

TEST(ResizeFault, OldMemberDeathInEachPhaseCompletesOrRollsBack) {
  // 5 repetitions per phase: a 20x flake loop over the scheduler
  // interleavings (run under TSan in the sanitizers workflow).
  for (const char* phase : {"rendezvous", "plan", "transfer", "commit"})
    for (int i = 0; i < 5; ++i) {
      SCOPED_TRACE(std::string(phase) + " #" + std::to_string(i));
      run_resize_death(phase, /*victim_is_joiner=*/false);
      if (HasFatalFailure()) return;
    }
}

TEST(ResizeFault, JoinerDeathInEachPhaseCompletesOrRollsBack) {
  // Joiners exist only from the plan phase on.
  for (const char* phase : {"plan", "transfer", "commit"})
    for (int i = 0; i < 5; ++i) {
      SCOPED_TRACE(std::string(phase) + " #" + std::to_string(i));
      run_resize_death(phase, /*victim_is_joiner=*/true);
      if (HasFatalFailure()) return;
    }
}

TEST(FaultTolerance, WatchdogShrinkRebuildRedistributesSurvivingData) {
  // THE acceptance scenario: 4 ranks redistribute a 1D domain; rank 3 is
  // killed; the survivors' next collective deadlocks; the watchdog reports
  // it on every survivor; they shrink the communicator, rebuild the mapping
  // over the surviving region and redistribute the surviving data.
  simnet::RankKillPlan plan({3});
  mpi::RunOptions ropts;
  ropts.fault = &plan;
  ropts.deadlock_grace_s = 0.15;
  std::atomic<int> recovered{0};
  mpi::run(
      4,
      [&](mpi::Comm& comm) {
        const int rank = comm.rank();
        Redistributor r(comm, sizeof(float));
        // Everyone owns a quarter of [0,16); everyone needs its right
        // neighbour's quarter (cyclic shift).
        const ddr::OwnedLayout own{Chunk::d1(4, 4 * rank)};
        const Chunk need = Chunk::d1(4, 4 * ((rank + 1) % 4));
        r.setup(own, need);
        std::vector<float> own_data = fill_chunk(own.front());
        std::vector<float> need_data(4, -1);
        r.redistribute(bytes_of(own_data), bytes_of(need_data));
        expect_oracle(need_data, need);

        // Synchronize, then kill rank 3: it arms its own death after fully
        // exiting the barrier (another rank arming could catch rank 3 still
        // inside the barrier and strand peers outside the try below), so
        // its next MPI call — inside the redistribution — is fatal.
        comm.barrier();
        if (rank == 3) plan.arm();

        try {
          // Another round: rank 3 dies inside it, the others deadlock.
          std::vector<float> again(4, -1);
          r.redistribute(bytes_of(own_data), bytes_of(again));
          ASSERT_EQ(rank, -1) << "collective with a dead rank completed";
        } catch (const mpi::Error& e) {
          ASSERT_EQ(e.error_class(), mpi::ErrorClass::deadlock)
              << "expected the watchdog, got: " << e.what();
        }

        // Recovery: agree on the dead, shrink, rebuild over the surviving
        // region [0,12), and move the surviving data.
        ASSERT_EQ(comm.failed_ranks(), std::vector<int>{3});
        mpi::Comm survivors = comm.shrink();
        ASSERT_EQ(survivors.size(), 3);
        const int new_rank = survivors.rank();
        const Chunk new_need = Chunk::d1(4, 4 * ((new_rank + 1) % 3));
        r.rebuild(survivors, own, new_need);
        std::vector<float> new_data(4, -1);
        r.redistribute(bytes_of(own_data), bytes_of(new_data));
        expect_oracle(new_data, new_need);
        recovered.fetch_add(1);
      },
      ropts);
  EXPECT_EQ(recovered.load(), 3);
}

}  // namespace
