// Golden-trace conformance for the paper's E1 layout: asserts the exact
// per-rank event structure (span nesting, per-round message instants, keys)
// that one redistribute() call records under each backend, and that the
// structure is deterministic across repeated runs. The trace schema is a
// public contract (DESIGN.md §9): these tests are what "stable" means.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "ddr/ddr.hpp"
#include "minimpi/minimpi.hpp"
#include "trace/trace.hpp"

namespace {

constexpr int kRanks = 4;

ddr::OwnedLayout e1_owned(int rank) {
  return {ddr::Chunk::d2(8, 1, 0, rank), ddr::Chunk::d2(8, 1, 0, rank + 4)};
}

ddr::Chunk e1_needed(int rank) {
  return ddr::Chunk::d2(4, 4, 4 * (rank % 2), 4 * (rank / 2));
}

struct TracedRun {
  std::vector<std::string> structure;            // per rank
  std::vector<std::vector<trace::Event>> events; // per rank
  int rounds = 0;
};

/// One setup() + redistribute() on E1 with per-rank recorders attached;
/// recorders are cleared after setup so the captured stream is exactly one
/// redistribute() call. Precondition agreement is off: its allreduce uses
/// comm-wide collectives whose event count depends only on rank count, but
/// the golden strings are simpler without it.
TracedRun run_e1(ddr::Backend backend) {
  TracedRun out;
  std::vector<trace::Recorder> recs;
  recs.reserve(kRanks);
  for (int r = 0; r < kRanks; ++r) recs.emplace_back(r);
  int rounds = 0;

  mpi::run(kRanks, [&](mpi::Comm& comm) {
    const int r = comm.rank();
    ddr::Redistributor rd(comm, sizeof(float));
    rd.trace_sink(&recs[static_cast<std::size_t>(r)]);
    ddr::SetupOptions opt;
    opt.backend = backend;
    opt.collective_error_agreement = false;
    rd.setup(e1_owned(r), e1_needed(r), opt);
    recs[static_cast<std::size_t>(r)].clear();
    if (r == 0) rounds = rd.rounds();

    std::vector<float> src(rd.owned_bytes() / sizeof(float), 1.0f);
    std::vector<float> dst(rd.needed_bytes() / sizeof(float));
    rd.redistribute(std::as_bytes(std::span<const float>(src)),
                    std::as_writable_bytes(std::span<float>(dst)));
  });

  out.rounds = rounds;
  for (const trace::Recorder& r : recs) {
    EXPECT_EQ(r.open_spans(), 0u);
    EXPECT_TRUE(trace::spans_balanced(r.events()));
    out.structure.push_back(trace::structure_string(r.events()));
    out.events.push_back(r.events());
  }
  return out;
}

/// E1 ground truth: every rank sends 16 bytes to each of its 3 peers (12
/// messages, 192 bytes network-wide) and keeps 16 bytes local via the
/// zero-copy self lane.
void check_e1_bytes(const TracedRun& run) {
  for (int r = 0; r < kRanks; ++r) {
    const auto& ev = run.events[static_cast<std::size_t>(r)];
    const auto sent = trace::bytes_by_peer(ev, "ddr.msg.send");
    const auto recvd = trace::bytes_by_peer(ev, "ddr.msg.recv");
    ASSERT_EQ(sent.size(), 3u) << "rank " << r;
    ASSERT_EQ(recvd.size(), 3u) << "rank " << r;
    for (int q = 0; q < kRanks; ++q) {
      if (q == r) {
        EXPECT_FALSE(sent.contains(q)) << "self lane sent as message";
        EXPECT_FALSE(recvd.contains(q)) << "self lane received as message";
      } else {
        EXPECT_EQ(sent.at(q), 16) << "rank " << r << " -> " << q;
        EXPECT_EQ(recvd.at(q), 16) << "rank " << r << " <- " << q;
      }
    }
    // The self lane shows up as exactly one zero-copy region copy instead.
    EXPECT_EQ(trace::count_events(ev, "mpi.copy_regions", trace::Phase::begin),
              1u)
        << "rank " << r;
  }
}

// The JSON bench's strided3d case: 64^3 float domain, 4 ranks, 8 round-robin
// z-slabs of height 2 per rank; every rank needs one 32x32x64 brick. 8
// rounds, fusing to one 64 KiB lane per peer pair per direction.
ddr::OwnedLayout strided3d_owned(int rank) {
  constexpr int kSide = 64, kRanks = 4, kSlabs = 8;
  constexpr int slab_z = kSide / (kRanks * kSlabs);
  ddr::OwnedLayout own;
  for (int c = 0; c < kSlabs; ++c)
    own.push_back(ddr::Chunk::d3(kSide, kSide, slab_z, 0, 0,
                                 (rank + kRanks * c) * slab_z));
  return own;
}

ddr::Chunk strided3d_needed(int rank) {
  constexpr int kSide = 64;
  return ddr::Chunk::d3(kSide / 2, kSide / 2, kSide, (rank % 2) * kSide / 2,
                        (rank / 2) * kSide / 2, 0);
}

/// Like run_e1 but on the strided3d layout (the pipelined backend's bench
/// case, 8 rounds deep).
TracedRun run_strided3d(ddr::Backend backend) {
  TracedRun out;
  std::vector<trace::Recorder> recs;
  recs.reserve(kRanks);
  for (int r = 0; r < kRanks; ++r) recs.emplace_back(r);
  int rounds = 0;

  mpi::run(kRanks, [&](mpi::Comm& comm) {
    const int r = comm.rank();
    ddr::Redistributor rd(comm, sizeof(float));
    rd.trace_sink(&recs[static_cast<std::size_t>(r)]);
    ddr::SetupOptions opt;
    opt.backend = backend;
    opt.collective_error_agreement = false;
    rd.setup(strided3d_owned(r), strided3d_needed(r), opt);
    recs[static_cast<std::size_t>(r)].clear();
    if (r == 0) rounds = rd.rounds();

    std::vector<float> src(rd.owned_bytes() / sizeof(float), 1.0f);
    std::vector<float> dst(rd.needed_bytes() / sizeof(float));
    rd.redistribute(std::as_bytes(std::span<const float>(src)),
                    std::as_writable_bytes(std::span<float>(dst)));
  });

  out.rounds = rounds;
  for (const trace::Recorder& r : recs) {
    EXPECT_EQ(r.open_spans(), 0u);
    EXPECT_TRUE(trace::spans_balanced(r.events()));
    out.structure.push_back(trace::structure_string(r.events()));
    out.events.push_back(r.events());
  }
  return out;
}

/// The recorded pipeline depth: value of the ddr.pipeline.depth instant
/// (number of receives posted up front), or -1 when absent.
std::int64_t recorded_depth(const std::vector<trace::Event>& ev) {
  for (const trace::Event& e : ev)
    if (std::string(e.name) == "ddr.pipeline.depth") return e.keys.value;
  return -1;
}

/// Peers of the named message instants, in recorded order.
std::vector<int> msg_peers(const std::vector<trace::Event>& ev,
                           const char* name) {
  std::vector<int> peers;
  for (const trace::Event& e : ev)
    if (std::string(e.name) == name) peers.push_back(e.keys.peer);
  return peers;
}

}  // namespace

TEST(TraceGolden, AlltoallwRoundSpansMatchSchedule) {
  const TracedRun run = run_e1(ddr::Backend::alltoallw);
  EXPECT_EQ(run.rounds, 2);
  for (int r = 0; r < kRanks; ++r) {
    const auto& ev = run.events[static_cast<std::size_t>(r)];
    EXPECT_EQ(trace::count_events(ev, "ddr.redistribute", trace::Phase::begin),
              1u);
    // One ddr.round span per alltoallw round (== max chunks per rank, §III-C).
    EXPECT_EQ(trace::count_events(ev, "ddr.round", trace::Phase::begin), 2u);
    EXPECT_EQ(trace::count_events(ev, "mpi.alltoallw", trace::Phase::begin),
              2u);
  }
  check_e1_bytes(run);
}

TEST(TraceGolden, PostAllCompletesSmallLanesWithOneWaitAll) {
  // E1's lanes (16 B) are far below the 32 KiB post-all threshold, so
  // the fused-lane executor runs its post-all discipline: the receive
  // window, the lanes sent in ascending peer order, and one wait_all that
  // completes the receives in posting (ascending peer) order — no
  // arrival-order drain.
  const TracedRun run = run_e1(ddr::Backend::point_to_point_pipelined);
  for (int r = 0; r < kRanks; ++r) {
    const auto& ev = run.events[static_cast<std::size_t>(r)];
    EXPECT_EQ(trace::count_events(ev, "ddr.wait_all", trace::Phase::begin),
              1u);
    EXPECT_EQ(
        trace::count_events(ev, "ddr.pipeline.complete", trace::Phase::begin),
        0u);
    EXPECT_EQ(trace::count_events(ev, "ddr.round", trace::Phase::begin), 0u);
    EXPECT_EQ(trace::count_events(ev, "mpi.alltoallw", trace::Phase::begin),
              0u);
    std::vector<int> peers;
    for (int q = 0; q < kRanks; ++q)
      if (q != r) peers.push_back(q);
    EXPECT_EQ(msg_peers(ev, "ddr.msg.send"), peers) << "rank " << r;
    EXPECT_EQ(msg_peers(ev, "ddr.msg.recv"), peers) << "rank " << r;
  }
  check_e1_bytes(run);
  // strided3d's 64 KiB lanes run the pipeline instead.
  const TracedRun big = run_strided3d(ddr::Backend::point_to_point_pipelined);
  for (int r = 0; r < kRanks; ++r) {
    const auto& ev = big.events[static_cast<std::size_t>(r)];
    EXPECT_EQ(trace::count_events(ev, "ddr.wait_all", trace::Phase::begin),
              0u);
    EXPECT_EQ(
        trace::count_events(ev, "ddr.pipeline.complete", trace::Phase::begin),
        1u);
  }
}

TEST(TraceGolden, FusedEmitsOnePerPeerLane) {
  // The fused-lane executor (point_to_point_pipelined) moves each peer's
  // rounds as one lane: one send and one receive instant per peer lane.
  const TracedRun run = run_e1(ddr::Backend::point_to_point_pipelined);
  for (int r = 0; r < kRanks; ++r) {
    const auto& ev = run.events[static_cast<std::size_t>(r)];
    EXPECT_EQ(trace::count_events(ev, "ddr.msg.send", trace::Phase::instant),
              3u);
    EXPECT_EQ(trace::count_events(ev, "ddr.msg.recv", trace::Phase::instant),
              3u);
    EXPECT_EQ(trace::count_events(ev, "ddr.round", trace::Phase::begin), 0u);
    // Fused message instants carry no round (the lane spans every round).
    for (const trace::Event& e : ev)
      if (std::string(e.name) == "ddr.msg.send" ||
          std::string(e.name) == "ddr.msg.recv") {
        EXPECT_EQ(e.keys.round, -1);
      }
  }
  check_e1_bytes(run);
}

TEST(TraceGolden, StructureDeterministicAcrossRuns) {
  // E1's lanes are small, so the fused-lane executor completes them
  // post-all in posting order — as deterministic as the per-round
  // alltoallw. (Above 32 KiB its pipeline completes in arrival order,
  // which depends on thread scheduling.)
  for (const ddr::Backend b :
       {ddr::Backend::alltoallw, ddr::Backend::point_to_point_pipelined}) {
    const TracedRun a = run_e1(b);
    const TracedRun c = run_e1(b);
    for (int r = 0; r < kRanks; ++r)
      EXPECT_EQ(a.structure[static_cast<std::size_t>(r)],
                c.structure[static_cast<std::size_t>(r)])
          << "backend " << static_cast<int>(b) << " rank " << r;
  }
}

TEST(TraceGolden, AlltoallwRank0ExactStructure) {
  // The full golden string for rank 0 under the alltoallw backend — pinned
  // character for character. Rank 0 owns rows y=0 (round 0) and y=4
  // (round 1) and needs the x:0-3,y:0-3 quadrant: round 0 receives rows
  // y=1..3 from ranks 1-3 and sends the x:4-7 half of row 0 to rank 1;
  // round 1 sends halves of row 4 to ranks 2 and 3. The self lane (x:0-3 of
  // row 0) moves as a zero-copy region copy inside the collective.
  const TracedRun run = run_e1(ddr::Backend::alltoallw);
  const std::string expected =
      "ddr.redistribute\n"
      "  ddr.round [round=0]\n"
      "    - ddr.msg.recv [round=0,peer=1,bytes=16]\n"
      "    - ddr.msg.send [round=0,peer=1,bytes=16]\n"
      "    - ddr.msg.recv [round=0,peer=2,bytes=16]\n"
      "    - ddr.msg.recv [round=0,peer=3,bytes=16]\n"
      "    mpi.alltoallw\n"
      "      mpi.copy_regions [bytes=16]\n"
      "      - mpi.staging.acquire [bytes=16]\n"
      "      - mpi.staging.release [bytes=16]\n"
      "      - mpi.staging.release [bytes=16]\n"
      "      - mpi.staging.release [bytes=16]\n"
      "  ddr.round [round=1]\n"
      "    - ddr.msg.send [round=1,peer=2,bytes=16]\n"
      "    - ddr.msg.send [round=1,peer=3,bytes=16]\n"
      "    mpi.alltoallw\n"
      "      - mpi.staging.acquire [bytes=16]\n"
      "      - mpi.staging.acquire [bytes=16]\n";
  EXPECT_EQ(run.structure[0], expected);
}

TEST(TraceGolden, PipelinedPostsWindowThenCompletesOutOfOrder) {
  // strided3d's 64 KiB lanes clear the 32 KiB threshold, so the fused-lane
  // executor runs its pipeline.
  const TracedRun run = run_strided3d(ddr::Backend::point_to_point_pipelined);
  for (int r = 0; r < kRanks; ++r) {
    const auto& ev = run.events[static_cast<std::size_t>(r)];
    // One posting window, one pack span per peer lane, one completion
    // drain — and no ddr.round spans: the lanes stitch every round.
    EXPECT_EQ(trace::count_events(ev, "ddr.pipeline.post", trace::Phase::begin),
              1u);
    EXPECT_EQ(trace::count_events(ev, "ddr.pipeline.pack", trace::Phase::begin),
              3u);
    EXPECT_EQ(
        trace::count_events(ev, "ddr.pipeline.complete", trace::Phase::begin),
        1u);
    EXPECT_EQ(trace::count_events(ev, "ddr.round", trace::Phase::begin), 0u);
    // 3 peers -> a window of 3 per-peer lane receives.
    EXPECT_EQ(recorded_depth(ev), 3);
  }
}

TEST(TraceGolden, PipelinedStrided3dConservesBytesOutOfOrder) {
  // Deliberately NOT an exact-structure pin: receive completion order under
  // the pipelined backend depends on thread scheduling. What must hold on
  // every run is the window shape and pairwise byte conservation.
  const TracedRun run = run_strided3d(ddr::Backend::point_to_point_pipelined);
  EXPECT_EQ(run.rounds, 8);
  std::vector<std::map<std::int64_t, std::int64_t>> sent(kRanks),
      recvd(kRanks);
  for (int r = 0; r < kRanks; ++r) {
    const auto& ev = run.events[static_cast<std::size_t>(r)];
    EXPECT_EQ(trace::count_events(ev, "ddr.pipeline.post", trace::Phase::begin),
              1u);
    EXPECT_EQ(trace::count_events(ev, "ddr.pipeline.pack", trace::Phase::begin),
              3u);
    // 3 peers, each peer's 8 rounds fused into one lane.
    EXPECT_EQ(recorded_depth(ev), 3);
    EXPECT_EQ(trace::count_events(ev, "ddr.msg.send", trace::Phase::instant),
              3u);
    EXPECT_EQ(trace::count_events(ev, "ddr.msg.recv", trace::Phase::instant),
              3u);
    sent[static_cast<std::size_t>(r)] = trace::bytes_by_peer(ev, "ddr.msg.send");
    recvd[static_cast<std::size_t>(r)] =
        trace::bytes_by_peer(ev, "ddr.msg.recv");
    // Each rank ships 3/4 of its 64x64x64/4 float slab set to peers.
    EXPECT_EQ(trace::total_bytes(ev, "ddr.msg.send"), 196608);
  }
  for (int r = 0; r < kRanks; ++r)
    for (int q = 0; q < kRanks; ++q) {
      if (q == r) continue;
      EXPECT_EQ(sent[static_cast<std::size_t>(r)].at(q),
                recvd[static_cast<std::size_t>(q)].at(r))
          << "bytes " << r << " -> " << q;
    }
}
