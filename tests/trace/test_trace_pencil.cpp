// Golden-trace conformance for one pencil-transpose timestep: the exact
// rank-0 event structure of the four back-to-back redistributions (slab ->
// pencil_y -> pencil_z -> pencil_y -> slab) a PencilTimestepper replays
// every step, pinned character for character under the alltoallw backend,
// plus determinism across repeated runs and a traced-bytes cross-check
// against the workload's closed-form accounting. Like the E1 goldens, this
// is a public-contract pin: the structure may only change with a DESIGN.md
// §9 schema bump.

#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "ddr/ddr.hpp"
#include "minimpi/minimpi.hpp"
#include "trace/trace.hpp"
#include "workloads/workloads.hpp"

namespace {

constexpr int kRanks = 4;

/// Tiny deterministic grid: 8x8x8 floats over a 2x2 process grid, so every
/// stage splits each affected axis exactly in half (no remainders anywhere).
workloads::PencilParams tiny_params() {
  workloads::PencilParams p;
  p.nx = p.ny = p.nz = 8;
  p.nranks = kRanks;
  p.elem_size = sizeof(float);
  return p;
}

struct TracedStep {
  std::vector<std::string> structure;             // per rank
  std::vector<std::vector<trace::Event>> events;  // per rank
};

/// One PencilTimestepper step() with per-rank recorders attached; recorders
/// are cleared after construction so the captured stream is exactly the four
/// redistribute() calls of one timestep. Precondition agreement is off, as
/// in the E1 goldens, to keep the strings free of comm-wide allreduces.
TracedStep run_step(ddr::Backend backend) {
  TracedStep out;
  std::vector<trace::Recorder> recs;
  recs.reserve(kRanks);
  for (int r = 0; r < kRanks; ++r) recs.emplace_back(r);

  const workloads::PencilParams params = tiny_params();
  mpi::run(kRanks, [&](mpi::Comm& comm) {
    const int r = comm.rank();
    ddr::SetupOptions opt;
    opt.backend = backend;
    opt.collective_error_agreement = false;
    workloads::PencilTimestepper ts(comm, params, opt);
    ts.trace_sink(&recs[static_cast<std::size_t>(r)]);

    std::vector<std::byte> slab(ts.slab_bytes(), std::byte{1});
    std::vector<std::byte> slab_out(ts.slab_bytes());
    ts.step(slab, slab_out);
  });

  for (const trace::Recorder& r : recs) {
    EXPECT_EQ(r.open_spans(), 0u);
    EXPECT_TRUE(trace::spans_balanced(r.events()));
    out.structure.push_back(trace::structure_string(r.events()));
    out.events.push_back(r.events());
  }
  return out;
}

}  // namespace

TEST(TracePencil, StepBytesMatchAnalyticAccounting) {
  // The traced network bytes of one timestep, summed over all ranks, must
  // equal the closed-form accounting of its four transposes — the workload
  // layer's independent derivation checked against what actually moved.
  using workloads::Stage;
  const workloads::PencilTranspose gen(tiny_params());
  const Stage chain[] = {Stage::slab, Stage::pencil_y, Stage::pencil_z,
                         Stage::pencil_y, Stage::slab};
  std::int64_t want_network = 0;
  for (int t = 0; t < 4; ++t)
    want_network += gen.accounting(chain[t], chain[t + 1]).network_bytes;

  const TracedStep run = run_step(ddr::Backend::alltoallw);
  std::int64_t sent = 0, received = 0;
  for (int r = 0; r < kRanks; ++r) {
    sent += trace::total_bytes(run.events[static_cast<std::size_t>(r)],
                               "ddr.msg.send");
    received += trace::total_bytes(run.events[static_cast<std::size_t>(r)],
                                   "ddr.msg.recv");
    // Four redistribute spans per step, one per transpose of the chain.
    EXPECT_EQ(trace::count_events(run.events[static_cast<std::size_t>(r)],
                                  "ddr.redistribute", trace::Phase::begin),
              4u)
        << "rank " << r;
  }
  EXPECT_EQ(sent, want_network);
  EXPECT_EQ(received, want_network);
}

TEST(TracePencil, StructureDeterministicAcrossRuns) {
  // The 8^3 grid's lanes are far below 32 KiB, so the fused-lane executor
  // completes them post-all in posting order, as deterministically as the
  // per-round alltoallw.
  for (const ddr::Backend b :
       {ddr::Backend::alltoallw, ddr::Backend::point_to_point_pipelined}) {
    const TracedStep a = run_step(b);
    const TracedStep c = run_step(b);
    for (int r = 0; r < kRanks; ++r)
      EXPECT_EQ(a.structure[static_cast<std::size_t>(r)],
                c.structure[static_cast<std::size_t>(r)])
          << "backend " << static_cast<int>(b) << " rank " << r;
  }
}

TEST(TracePencil, AlltoallwRank0ExactStructure) {
  // The full golden string for rank 0's timestep under alltoallw, pinned
  // character for character. On the 8^3 grid over a 2x2 process grid, rank
  // 0 is process-grid coordinate (0,0): each slab<->pencil_y transpose
  // exchanges one 256-byte half-slab with rank 1 only (rank 0's slab z
  // rows land in grid row 0), and each pencil_y<->pencil_z transpose
  // exchanges one 256-byte quarter brick with rank 2 (same grid column,
  // other row). One round per transpose (one owned chunk per rank per
  // stage), the self lane as a zero-copy region copy inside the collective.
  const TracedStep run = run_step(ddr::Backend::alltoallw);
  const std::string hop_rank1 =
      "ddr.redistribute\n"
      "  ddr.round [round=0]\n"
      "    - ddr.msg.recv [round=0,peer=1,bytes=256]\n"
      "    - ddr.msg.send [round=0,peer=1,bytes=256]\n"
      "    mpi.alltoallw\n"
      "      mpi.copy_regions [bytes=256]\n"
      "      - mpi.staging.acquire [bytes=256]\n"
      "      - mpi.staging.release [bytes=256]\n";
  const std::string hop_rank2 =
      "ddr.redistribute\n"
      "  ddr.round [round=0]\n"
      "    - ddr.msg.recv [round=0,peer=2,bytes=256]\n"
      "    - ddr.msg.send [round=0,peer=2,bytes=256]\n"
      "    mpi.alltoallw\n"
      "      mpi.copy_regions [bytes=256]\n"
      "      - mpi.staging.acquire [bytes=256]\n"
      "      - mpi.staging.release [bytes=256]\n";
  // slab->pencil_y, pencil_y->pencil_z, pencil_z->pencil_y, pencil_y->slab.
  const std::string expected = hop_rank1 + hop_rank2 + hop_rank2 + hop_rank1;
  EXPECT_EQ(run.structure[0], expected);
}
