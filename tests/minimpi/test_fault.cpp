// Fault-injection layer and deadlock watchdog: message fates (drop,
// duplicate, delay), rank kills, the all-blocked watchdog, and recovery via
// failed_ranks()/shrink().

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <sstream>
#include <string>
#include <vector>

#include "minimpi/minimpi.hpp"
#include "trace/trace.hpp"

namespace {

using mpi::Comm;
using mpi::Datatype;

/// Drops every user-channel message.
class DropAllUser final : public mpi::FaultModel {
 public:
  mpi::MsgFate on_message(const mpi::MsgContext& ctx) override {
    mpi::MsgFate fate;
    fate.drop = !ctx.collective;
    return fate;
  }
};

/// Duplicates every user-channel message once.
class DuplicateAllUser final : public mpi::FaultModel {
 public:
  mpi::MsgFate on_message(const mpi::MsgContext& ctx) override {
    mpi::MsgFate fate;
    if (!ctx.collective) fate.extra_copies = 1;
    return fate;
  }
};

/// Delays every user-channel message by a fixed virtual time.
class DelayAllUser final : public mpi::FaultModel {
 public:
  explicit DelayAllUser(double delay_s) : delay_s_(delay_s) {}
  mpi::MsgFate on_message(const mpi::MsgContext& ctx) override {
    mpi::MsgFate fate;
    if (!ctx.collective) fate.delay_s = delay_s_;
    return fate;
  }

 private:
  double delay_s_;
};

/// Kills one world rank at its first MPI entry point.
class KillRank final : public mpi::FaultModel {
 public:
  explicit KillRank(int target) : target_(target) {}
  bool should_kill(int world_rank, double) override {
    return world_rank == target_;
  }

 private:
  int target_;
};

TEST(Fault, DroppedMessagesTriggerDeadlockWatchdog) {
  // Every user message is dropped, so both ranks block in recv forever; the
  // watchdog must convert the hang into ErrorClass::deadlock on BOTH ranks.
  DropAllUser fault;
  mpi::RunOptions opts;
  opts.fault = &fault;
  opts.deadlock_grace_s = 0.1;
  std::atomic<int> deadlocked{0};
  mpi::run(
      2,
      [&](Comm& comm) {
        const int peer = 1 - comm.rank();
        const int v = comm.rank();
        comm.send(&v, 1, Datatype::of<int>(), peer, 7);
        int got = -1;
        try {
          comm.recv(&got, 1, Datatype::of<int>(), peer, 7);
          FAIL() << "recv of a dropped message returned";
        } catch (const mpi::Error& e) {
          EXPECT_EQ(e.error_class(), mpi::ErrorClass::deadlock);
          deadlocked.fetch_add(1);
        }
      },
      opts);
  EXPECT_EQ(deadlocked.load(), 2);
}

TEST(Fault, ApplicationDeadlockDetectedWithoutFaultModel) {
  // The watchdog is independent of fault injection: a plain application
  // deadlock (both ranks receive on a tag nobody sends) is diagnosed too.
  mpi::RunOptions opts;
  opts.deadlock_grace_s = 0.1;
  std::atomic<int> deadlocked{0};
  mpi::run(
      2,
      [&](Comm& comm) {
        int got = -1;
        try {
          comm.recv(&got, 1, Datatype::of<int>(), 1 - comm.rank(), 99);
          FAIL() << "recv with no matching send returned";
        } catch (const mpi::Error& e) {
          EXPECT_EQ(e.error_class(), mpi::ErrorClass::deadlock);
          deadlocked.fetch_add(1);
        }
      },
      opts);
  EXPECT_EQ(deadlocked.load(), 2);
}

TEST(Fault, WaitAnyDeadlockDetectedWithoutFaultModel) {
  // wait_any blocks like recv: rank 0 waits on two receives from rank 1,
  // which never sends, and the watchdog must name the wait instead of
  // letting it poll forever.
  mpi::RunOptions opts;
  opts.deadlock_grace_s = 0.1;
  std::atomic<int> deadlocked{0};
  mpi::run(
      2,
      [&](Comm& comm) {
        if (comm.rank() == 1) return;
        int a = -1, b = -1;
        std::vector<mpi::Request> r;
        r.push_back(comm.irecv(&a, 1, Datatype::of<int>(), 1, 5));
        r.push_back(comm.irecv(&b, 1, Datatype::of<int>(), 1, 6));
        try {
          (void)mpi::wait_any(r);
          FAIL() << "wait_any with no matching send returned";
        } catch (const mpi::Error& e) {
          EXPECT_EQ(e.error_class(), mpi::ErrorClass::deadlock);
          EXPECT_NE(std::string(e.what()).find("0:wait_any"),
                    std::string::npos)
              << e.what();
          deadlocked.fetch_add(1);
        }
      },
      opts);
  EXPECT_EQ(deadlocked.load(), 1);
}

TEST(Fault, WatchdogDisabledLeavesAbortSemanticsIntact) {
  // With the watchdog off, the classic abort path must still work: one rank
  // throws, the blocked rank is woken with the abort error.
  mpi::RunOptions opts;
  opts.deadlock_grace_s = 0.0;
  EXPECT_THROW(mpi::run(
                   2,
                   [](Comm& comm) {
                     if (comm.rank() == 1) throw std::runtime_error("boom");
                     int v;
                     comm.recv(&v, 1, Datatype::of<int>(), 1, 0);
                   },
                   opts),
               std::runtime_error);
}

TEST(Fault, DuplicatedMessageIsDeliveredTwice) {
  DuplicateAllUser fault;
  mpi::RunOptions opts;
  opts.fault = &fault;
  mpi::run(
      2,
      [](Comm& comm) {
        const Datatype i = Datatype::of<int>();
        if (comm.rank() == 0) {
          const int v = 42;
          comm.send(&v, 1, i, 1, 3);
          comm.barrier();
        } else {
          int a = -1, b = -1;
          comm.recv(&a, 1, i, 0, 3);
          comm.recv(&b, 1, i, 0, 3);  // the duplicate
          EXPECT_EQ(a, 42);
          EXPECT_EQ(b, 42);
          comm.barrier();
          EXPECT_FALSE(comm.iprobe(0, 3).has_value());
        }
      },
      opts);
}

TEST(Fault, DelayedMessageChargesVirtualTime) {
  DelayAllUser fault(1.5);
  mpi::RunOptions opts;
  opts.fault = &fault;
  const mpi::RunResult res = mpi::run(
      2,
      [](Comm& comm) {
        const Datatype i = Datatype::of<int>();
        if (comm.rank() == 0) {
          const int v = 1;
          comm.send(&v, 1, i, 1, 0);
        } else {
          int v;
          comm.recv(&v, 1, i, 0, 0);
          // Causality: the receiver's clock reaches the delayed departure.
          EXPECT_GE(comm.clock().now(), 1.5);
        }
      },
      opts);
  EXPECT_GE(res.vtimes[1], 1.5);
}

TEST(Fault, KilledRankDiesSilentlyWhenNobodyDependsOnIt) {
  // Rank 2 is killed at its first MPI call; the other ranks never talk to it
  // and the run must succeed.
  KillRank fault(2);
  mpi::RunOptions opts;
  opts.fault = &fault;
  std::atomic<int> finished{0};
  mpi::run(
      3,
      [&](Comm& comm) {
        if (comm.rank() == 2) {
          const int v = 0;
          comm.send(&v, 1, Datatype::of<int>(), 2, 0);  // dies here
          FAIL() << "killed rank survived its MPI call";
        }
        const Datatype i = Datatype::of<int>();
        if (comm.rank() == 0) {
          const int v = 5;
          comm.send(&v, 1, i, 1, 0);
        } else {
          int v;
          comm.recv(&v, 1, i, 0, 0);
          EXPECT_EQ(v, 5);
        }
        finished.fetch_add(1);
      },
      opts);
  EXPECT_EQ(finished.load(), 2);
}

TEST(Fault, KilledRankSurvivorsShrinkAndContinue) {
  // The acceptance scenario at the minimpi level: rank 3 dies, the
  // survivors' collective deadlocks, the watchdog reports it, and the
  // survivors rebuild on a shrunk communicator and finish the job.
  KillRank fault(3);
  mpi::RunOptions opts;
  opts.fault = &fault;
  opts.deadlock_grace_s = 0.1;
  std::atomic<int> recovered{0};
  mpi::run(
      4,
      [&](Comm& comm) {
        const Datatype i = Datatype::of<int>();
        int sum = 0;
        const int one = 1;
        if (comm.rank() == 3) {
          comm.allreduce(&one, &sum, 1, i, mpi::Op::sum<int>());  // dies here
          FAIL() << "killed rank survived";
        }
        try {
          comm.allreduce(&one, &sum, 1, i, mpi::Op::sum<int>());
          FAIL() << "collective with a dead participant completed";
        } catch (const mpi::Error& e) {
          ASSERT_EQ(e.error_class(), mpi::ErrorClass::deadlock);
        }
        const std::vector<int> failed = comm.failed_ranks();
        ASSERT_EQ(failed, std::vector<int>{3});
        Comm survivors = comm.shrink();
        ASSERT_EQ(survivors.size(), 3);
        EXPECT_EQ(survivors.world_rank(survivors.rank()), comm.rank());
        int total = 0;
        survivors.allreduce(&one, &total, 1, i, mpi::Op::sum<int>());
        EXPECT_EQ(total, 3);
        recovered.fetch_add(1);
      },
      opts);
  EXPECT_EQ(recovered.load(), 3);
}

TEST(Fault, ThrowingCollectiveClosesTraceSpans) {
  // Span lifetime under failure: when a collective dies with a deadlock
  // error, every trace span opened on the failing path (the collective's own
  // span plus any application span around it) must be closed by unwinding,
  // so the recorded stream stays balanced and the Chrome-trace JSON
  // serialization stays well-formed.
  KillRank fault(3);
  mpi::RunOptions opts;
  opts.fault = &fault;
  opts.deadlock_grace_s = 0.1;
  std::vector<trace::Recorder> recs;
  recs.reserve(4);
  for (int r = 0; r < 4; ++r) recs.emplace_back(r);
  std::atomic<int> survived{0};
  mpi::run(
      4,
      [&](Comm& comm) {
        const int r = comm.rank();
        trace::ScopedRecorder sr(&recs[static_cast<std::size_t>(r)]);
        const Datatype i = Datatype::of<int>();
        const int one = 1;
        int sum = 0;
        if (r == 3) {
          comm.allreduce(&one, &sum, 1, i, mpi::Op::sum<int>());  // dies here
          FAIL() << "killed rank survived";
        }
        try {
          DDR_TRACE_SPAN(app, "app.step");
          comm.allreduce(&one, &sum, 1, i, mpi::Op::sum<int>());
          FAIL() << "collective with a dead participant completed";
        } catch (const mpi::Error& e) {
          ASSERT_EQ(e.error_class(), mpi::ErrorClass::deadlock);
        }
        // Unwinding must have closed everything the failing call opened.
        EXPECT_EQ(recs[static_cast<std::size_t>(r)].open_spans(), 0u)
            << "rank " << r;
        survived.fetch_add(1);
      },
      opts);
  EXPECT_EQ(survived.load(), 3);

  std::vector<const trace::Recorder*> survivors;
  for (int r = 0; r < 3; ++r) {
    const auto& ev = recs[static_cast<std::size_t>(r)].events();
    EXPECT_TRUE(trace::spans_balanced(ev)) << "rank " << r;
    EXPECT_EQ(trace::count_events(ev, "app.step", trace::Phase::begin), 1u);
    EXPECT_EQ(trace::count_events(ev, "app.step", trace::Phase::end), 1u);
    survivors.push_back(&recs[static_cast<std::size_t>(r)]);
  }
  // The serialized Chrome trace must pair every "B" with an "E" and close
  // the JSON object even though the traced run died mid-collective.
  std::ostringstream os;
  trace::write_chrome_json(os, survivors, "fault");
  const std::string json = os.str();
  std::size_t begins = 0, ends = 0;
  for (std::size_t p = json.find("\"ph\":\"B\""); p != std::string::npos;
       p = json.find("\"ph\":\"B\"", p + 1))
    ++begins;
  for (std::size_t p = json.find("\"ph\":\"E\""); p != std::string::npos;
       p = json.find("\"ph\":\"E\"", p + 1))
    ++ends;
  EXPECT_GT(begins, 0u);
  EXPECT_EQ(begins, ends);
  EXPECT_EQ(json.back(), '\n');
  EXPECT_NE(json.find("]}"), std::string::npos);
}

TEST(Fault, TagAboveCeilingRejected) {
  mpi::run(1, [](Comm& comm) {
    const int v = 0;
    try {
      comm.send(&v, 1, Datatype::of<int>(), 0, mpi::tag_upper_bound);
      FAIL() << "tag at the ceiling accepted";
    } catch (const mpi::Error& e) {
      EXPECT_EQ(e.error_class(), mpi::ErrorClass::invalid_tag);
    }
    // The highest legal tag still works.
    comm.send(&v, 1, Datatype::of<int>(), 0, mpi::tag_upper_bound - 1);
    int got = -1;
    comm.recv(&got, 1, Datatype::of<int>(), 0, mpi::tag_upper_bound - 1);
    EXPECT_EQ(got, 0);
  });
}

TEST(Fault, CheckpointThrowsPendingAbort) {
  // checkpoint() is the cancellation point for non-blocking progress loops:
  // it must surface another rank's failure instead of letting the loop spin.
  EXPECT_THROW(mpi::run(2,
                        [](Comm& comm) {
                          if (comm.rank() == 1) throw std::runtime_error("x");
                          for (;;) comm.checkpoint();
                        }),
               std::runtime_error);
}

}  // namespace
