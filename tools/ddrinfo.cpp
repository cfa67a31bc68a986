// ddrinfo — inspect a DDR redistribution layout without running it.
//
// Reads a layout description (see ddr/textio.hpp for the format) from a file
// or stdin, validates the paper's send-side contract, and prints the
// communication schedule: rounds, per-rank/per-round data volumes (the
// Table III quantities), peer counts, and optionally every transfer.
//
// Usage:
//   ddrinfo [-t] [-e] [--validate] [--cost] [--plan] [--budget BYTES]
//           [--ranks-per-node N] [--trace out.json] [layout.txt]
//     -t          list every (sender -> receiver) transfer
//     -e          echo the normalized layout back (round-trip check)
//     --validate  check the layout against the paper's send-side contract
//                 and print rank/chunk detail for every violation; exits
//                 nonzero when the contract does not hold
//     --cost      compile every rank's transfer plans and print per-rank
//                 message counts, payload bytes, compiled plan segment and
//                 run-compressed quad totals for the per-round alltoallw
//                 backend and the pipelined backend's fused per-peer lanes
//                 side by side, plus its per-rank receive-window depth,
//                 each fused lane's locality class (self/intra/inter) with
//                 per-class lane and byte totals, and the pack kernel the
//                 runtime dispatch selected on this host
//     --plan      print the lowering ddr::Planner derives for the
//                 fused-lane executor (what Backend::automatic runs) —
//                 inter-node lanes and bytes, waves, completion order, and
//                 the per-class lowering — then execute both executors
//                 (the fused lanes and alltoallw) under the threaded
//                 runtime and print each one's measured time per call
//                 (median wall-clock, or virtual makespan when a link model
//                 is installed via --ranks-per-node > 1), data messages per
//                 call and measured peak staging
//     --budget BYTES
//                 peak-staging budget handed to the planner and to every
//                 measured run (SetupOptions::peak_staging_bytes): bounds
//                 the fused-lane executor's wave payloads; --plan marks
//                 each measured peak within or over it
//     --ranks-per-node N
//                 node topology for the --cost locality classes and --plan:
//                 consecutive ranks share a node in groups of N (the
//                 blocked placement simnet::LinkModel models). Default 1:
//                 every rank is its own node, so every non-self lane is
//                 inter-node. With N > 1 a Cooley-preset simnet::LinkModel
//                 drives both the planner's node map and the measured
//                 runs' virtual clocks.
//     --trace F   actually run one redistribute() per backend (alltoallw,
//                 pipelined) under the threaded runtime with
//                 tracing on, write the merged Chrome-trace JSON to F (load
//                 it at https://ui.perfetto.dev), and print per-backend
//                 message and byte totals (comparable to --cost)
//     --workload pencil|reshard
//                 generate the layout from the src/workloads suite instead
//                 of reading a file: `pencil` emits the slab -> y-pencil FFT
//                 transpose pair, `reshard` a seeded random SPMD
//                 sharding -> sharding change. Composes with every mode
//                 above (--cost/--plan/--trace/--validate/-e/-t); with -e
//                 the echoed fixture is prefixed by '#' comment lines
//                 carrying the workload's closed-form analytic accounting,
//                 so the emitted file stays parseable and self-describing.
//     --grid XxYxZ   workload grid / tensor extents     (default 16x16x16)
//     --nranks N     workload rank count                (default 4)
//     --seed S       reshard sampler seed               (default 1)
//
// Example input (the paper's E1):
//   ndims 2
//   elem 4
//   rank own 8x1@0,0 own 8x1@0,4 need 4x4@0,0
//   rank own 8x1@0,1 own 8x1@0,5 need 4x4@4,0
//   rank own 8x1@0,2 own 8x1@0,6 need 4x4@0,4
//   rank own 8x1@0,3 own 8x1@0,7 need 4x4@4,4

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "ddr/ddr.hpp"
#include "ddr/planner.hpp"
#include "ddr/textio.hpp"
#include "minimpi/runtime.hpp"
#include "simnet/models.hpp"
#include "trace/trace.hpp"
#include "workloads/workloads.hpp"

namespace {

void print_usage() {
  std::fprintf(stderr,
               "usage: ddrinfo [-t] [-e] [--validate] [--cost] [--plan] "
               "[--budget BYTES] [--ranks-per-node N] [--trace out.json] "
               "[--workload pencil|reshard [--grid XxYxZ] [--nranks N] "
               "[--seed S]] [layout.txt]\n");
}

/// Builds the LayoutSpec for --workload NAME and the '#' comment header the
/// -e fixture emission carries (one string, newline-terminated lines).
ddr::LayoutSpec make_workload(const std::string& name, int gx, int gy, int gz,
                              int nranks, unsigned seed, std::string* header) {
  ddr::LayoutSpec spec;
  spec.ndims = 3;
  spec.elem_size = sizeof(float);
  char line[256];
  if (name == "pencil") {
    const workloads::PencilTranspose gen(
        workloads::PencilParams{gx, gy, gz, nranks, sizeof(float)});
    spec.layout = gen.transpose_layout(workloads::Stage::slab,
                                       workloads::Stage::pencil_y);
    const workloads::Accounting a =
        gen.accounting(workloads::Stage::slab, workloads::Stage::pencil_y);
    std::snprintf(line, sizeof(line),
                  "# workload pencil %dx%dx%d over %d ranks (process grid "
                  "%dx%d): slab -> pencil_y\n",
                  gx, gy, gz, nranks, gen.p1(), gen.p2());
    *header = line;
    std::snprintf(line, sizeof(line),
                  "# analytic: network %lld B, self %lld B, messages %lld, "
                  "rounds %d\n",
                  static_cast<long long>(a.network_bytes),
                  static_cast<long long>(a.self_bytes),
                  static_cast<long long>(a.messages), a.rounds);
    *header += line;
    return spec;
  }
  if (name == "reshard") {
    workloads::ReshardSampler sampler(seed, nranks, 3, {gx, gy, gz},
                                      sizeof(float));
    const workloads::ReshardParams p = sampler.next();
    const workloads::ReshardSuite suite(p);
    spec.layout = suite.layout();
    const workloads::Accounting a = suite.accounting();
    std::snprintf(line, sizeof(line),
                  "# workload reshard %dx%dx%d over %d ranks, seed %u\n", gx,
                  gy, gz, nranks, seed);
    *header = line;
    std::snprintf(line, sizeof(line), "# src: %s\n# dst: %s\n",
                  p.src.describe(p.ndims).c_str(),
                  p.dst.describe(p.ndims).c_str());
    *header += line;
    std::snprintf(line, sizeof(line),
                  "# analytic: network %lld B, self %lld B, messages %lld, "
                  "rounds %d\n",
                  static_cast<long long>(a.network_bytes),
                  static_cast<long long>(a.self_bytes),
                  static_cast<long long>(a.messages), a.rounds);
    *header += line;
    return spec;
  }
  throw ddr::Error("unknown --workload '" + name +
                   "' (expected pencil or reshard)");
}

/// Locality class of the fused lane rank `r` sends to `peer` when
/// consecutive ranks share a node in groups of `ranks_per_node` (the blocked
/// placement simnet::LinkModel models): 0 self, 1 intra, 2 inter.
std::size_t lane_class(int r, int peer, int ranks_per_node) {
  if (peer == r) return 0;
  return peer / ranks_per_node == r / ranks_per_node ? 1 : 2;
}

const char* const kClassNames[] = {"self", "intra", "inter"};

/// Every rank's fused send lanes and their payload bytes by locality class,
/// and the non-empty per-round sends the alltoallw backend posts instead.
struct LaneTotals {
  std::array<std::int64_t, 3> lanes{};
  std::array<std::int64_t, 3> bytes{};
  std::int64_t round_messages = 0;
};

LaneTotals lane_totals(const ddr::LayoutSpec& spec, int ranks_per_node) {
  LaneTotals t;
  for (int r = 0; r < spec.layout.nranks(); ++r) {
    const ddr::DataMapping m =
        ddr::build_mapping(spec.layout, r, spec.elem_size);
    for (const ddr::PeerLane& lane : m.fused_send) {
      const std::size_t c = lane_class(r, lane.peer, ranks_per_node);
      ++t.lanes[c];
      t.bytes[c] += lane.bytes;
    }
    for (const ddr::RoundPlan& rp :
         ddr::build_round_plans(spec.layout, r, spec.elem_size))
      for (std::size_t q = 0; q < rp.sendcounts.size(); ++q)
        if (rp.sendcounts[q] > 0 && static_cast<int>(q) != r)
          ++t.round_messages;
  }
  return t;
}

/// Prints one row per locality class; `lowering` (optional) names what the
/// fused-lane executor does with each class.
void print_classes(const LaneTotals& t, const char* const* lowering) {
  std::printf("  %-6s %6s %12s%s\n", "class", "lanes", "bytes",
              lowering != nullptr ? "  lowering" : "");
  for (std::size_t c = 0; c < 3; ++c)
    std::printf("  %-6s %6lld %12lld%s%s\n", kClassNames[c],
                static_cast<long long>(t.lanes[c]),
                static_cast<long long>(t.bytes[c]),
                lowering != nullptr ? "  " : "",
                lowering != nullptr ? lowering[c] : "");
}

/// Detailed check of the paper's send-side contract: owned chunks must be
/// mutually exclusive and complete, and every needed chunk must be
/// satisfiable from the owned side. Prints one line per violation with the
/// ranks and chunk indices involved; returns the process exit code.
int run_validate(const ddr::LayoutSpec& spec) {
  const ddr::GlobalLayout& layout = spec.layout;
  const ddr::Box domain = layout.domain();
  std::printf("layout: %d ranks, %dD, %zu-byte elements\n", layout.nranks(),
              spec.ndims, spec.elem_size);
  std::printf("domain: %s (%lld elements)\n", domain.describe().c_str(),
              static_cast<long long>(domain.volume()));

  std::int64_t owned_volume = 0;
  for (int r = 0; r < layout.nranks(); ++r) {
    std::int64_t ov = 0, nv = 0;
    for (const ddr::Chunk& c : layout.owned[static_cast<std::size_t>(r)])
      ov += c.volume();
    for (const ddr::Chunk& c : layout.needed[static_cast<std::size_t>(r)])
      nv += c.volume();
    owned_volume += ov;
    std::printf("rank %d: owns %zu chunk(s) (%lld elements), needs %zu "
                "chunk(s) (%lld elements)\n",
                r, layout.owned[static_cast<std::size_t>(r)].size(),
                static_cast<long long>(ov),
                layout.needed[static_cast<std::size_t>(r)].size(),
                static_cast<long long>(nv));
  }

  // Mutual exclusivity: no two owned chunks anywhere may share an element.
  // The library's sweep finds the pairs; they print in rank-major order.
  std::vector<ddr::Box> boxes;
  std::vector<std::pair<int, std::size_t>> owner;  // (rank, chunk) per box
  for (int r = 0; r < layout.nranks(); ++r) {
    const auto& chunks = layout.owned[static_cast<std::size_t>(r)];
    for (std::size_t i = 0; i < chunks.size(); ++i) {
      boxes.push_back(chunks[i].box());
      owner.emplace_back(r, i);
    }
  }
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  ddr::for_each_overlap(boxes, [&](std::size_t i, std::size_t j) {
    pairs.emplace_back(i, j);
  });
  std::sort(pairs.begin(), pairs.end());
  for (const auto& [i, j] : pairs) {
    const ddr::Box shared = ddr::intersect(boxes[i], boxes[j]);
    std::printf("overlap: rank %d own #%zu %s and rank %d own #%zu %s "
                "share %s (%lld elements)\n",
                owner[i].first, owner[i].second, boxes[i].describe().c_str(),
                owner[j].first, owner[j].second, boxes[j].describe().c_str(),
                shared.describe().c_str(),
                static_cast<long long>(shared.volume()));
  }
  const auto overlaps = static_cast<int>(pairs.size());

  // Completeness: with no overlaps, the owned volumes must sum to exactly
  // the domain volume or some element has no owner.
  const std::int64_t missing =
      overlaps == 0 ? domain.volume() - owned_volume : 0;
  if (missing > 0)
    std::printf("hole: owned chunks cover %lld of the domain's %lld elements "
                "(%lld have no owner)\n",
                static_cast<long long>(owned_volume),
                static_cast<long long>(domain.volume()),
                static_cast<long long>(missing));

  // Satisfiability: a needed chunk reaching outside every owned chunk can
  // never be filled by the exchange.
  int unsatisfiable = 0;
  for (int r = 0; r < layout.nranks(); ++r) {
    const auto& nchunks = layout.needed[static_cast<std::size_t>(r)];
    for (std::size_t j = 0; j < nchunks.size(); ++j) {
      std::int64_t covered = 0;
      for (const auto& rank_chunks : layout.owned)
        for (const ddr::Chunk& o : rank_chunks)
          covered += ddr::intersect(nchunks[j].box(), o.box()).volume();
      // With an exclusive owned side `covered` counts each element once.
      // An overlapping owned side can double-count and mask a gap here,
      // but that layout already failed the exclusivity check above.
      covered = covered < nchunks[j].volume() ? covered : nchunks[j].volume();
      if (covered >= nchunks[j].volume()) continue;
      ++unsatisfiable;
      std::printf("unsatisfiable: rank %d need #%zu %s — %lld of %lld "
                  "elements lie outside every owned chunk\n",
                  r, j, nchunks[j].describe().c_str(),
                  static_cast<long long>(nchunks[j].volume() - covered),
                  static_cast<long long>(nchunks[j].volume()));
    }
  }

  if (overlaps == 0 && missing == 0 && unsatisfiable == 0) {
    std::printf("validate: PASS (send-side contract holds)\n");
    return 0;
  }
  std::printf("validate: FAIL (%d overlap(s), %s, %d unsatisfiable need(s))\n",
              overlaps, missing > 0 ? "holes present" : "no holes",
              unsatisfiable);
  return 1;
}

/// Compiles every rank's transfer plans (exactly what Redistributor::setup
/// builds) and prints what one redistribute() call costs each rank under the
/// per-round alltoallw backend versus the pipelined backend's fused per-peer
/// lanes: messages (alltoallw's non-empty per-round transfers) posted,
/// payload bytes, total compiled plan segments (contiguous runs
/// copied per call — see Datatype::plan_segment_count), and total
/// run-compressed plan quads (descriptors stored == copy-train kernel calls
/// per call — see Datatype::plan_quad_count). The trailing column is the
/// pipelined backend's receive-window depth: how many per-peer lane receives
/// it posts up front (one lane per peer, every round included) before any
/// data moves.
/// After the table, each fused lane's locality class under a
/// `ranks_per_node`-blocked topology, the lanes and bytes per class, and the
/// pack kernel the runtime dispatch selected on this host.
int run_cost(const ddr::LayoutSpec& spec, int ranks_per_node) {
  const ddr::GlobalLayout& layout = spec.layout;
  std::printf("layout: %d ranks, %dD, %zu-byte elements\n", layout.nranks(),
              spec.ndims, spec.elem_size);

  struct Cost {
    std::int64_t messages = 0;
    std::int64_t bytes = 0;
    std::int64_t segments = 0;
    std::int64_t quads = 0;
  };
  Cost plain_total, fused_total;
  std::int64_t depth_total = 0;
  std::printf("\nper-rank send cost (one redistribute() call):\n");
  std::printf("  %-5s | %-35s | %-35s | %s\n", "",
              "alltoallw (per round x peer)",
              "pipelined (one msg per peer)", "window");
  std::printf("  %-5s | %8s %10s %8s %6s | %8s %10s %8s %6s | %6s\n", "rank",
              "msgs", "bytes", "segs", "quads", "msgs", "bytes", "segs",
              "quads", "depth");
  for (int r = 0; r < layout.nranks(); ++r) {
    const ddr::DataMapping m =
        ddr::build_mapping(layout, r, spec.elem_size);
    Cost plain, fused;
    std::int64_t depth = 0;
    for (const ddr::RoundPlan& rp :
         ddr::build_round_plans(layout, r, spec.elem_size)) {
      for (std::size_t q = 0; q < rp.sendcounts.size(); ++q) {
        if (rp.sendcounts[q] <= 0) continue;
        const auto n = static_cast<std::int64_t>(rp.sendcounts[q]);
        if (static_cast<int>(q) != r) {
          plain.messages += 1;
          plain.bytes += n * static_cast<std::int64_t>(rp.sendtypes[q].size());
        }
        plain.segments +=
            n * static_cast<std::int64_t>(rp.sendtypes[q].plan_segment_count());
        plain.quads +=
            n * static_cast<std::int64_t>(rp.sendtypes[q].plan_quad_count());
      }
    }
    // Pipelined receive window: one fused lane per peer this rank receives
    // from.
    for (const ddr::PeerLane& lane : m.fused_recv)
      if (lane.peer != r) ++depth;
    for (const ddr::PeerLane& lane : m.fused_send) {
      if (lane.peer != r) {
        fused.messages += 1;
        fused.bytes += lane.bytes;
      }
      fused.segments +=
          static_cast<std::int64_t>(lane.type.plan_segment_count());
      fused.quads += static_cast<std::int64_t>(lane.type.plan_quad_count());
    }
    std::printf(
        "  %-5d | %8lld %10lld %8lld %6lld | %8lld %10lld %8lld %6lld | "
        "%6lld\n",
        r, static_cast<long long>(plain.messages),
        static_cast<long long>(plain.bytes),
        static_cast<long long>(plain.segments),
        static_cast<long long>(plain.quads),
        static_cast<long long>(fused.messages),
        static_cast<long long>(fused.bytes),
        static_cast<long long>(fused.segments),
        static_cast<long long>(fused.quads), static_cast<long long>(depth));
    plain_total.messages += plain.messages;
    plain_total.bytes += plain.bytes;
    plain_total.segments += plain.segments;
    plain_total.quads += plain.quads;
    fused_total.messages += fused.messages;
    fused_total.bytes += fused.bytes;
    fused_total.segments += fused.segments;
    fused_total.quads += fused.quads;
    depth_total += depth;
  }
  std::printf(
      "  %-5s | %8lld %10lld %8lld %6lld | %8lld %10lld %8lld %6lld | "
      "%6lld\n",
      "total", static_cast<long long>(plain_total.messages),
      static_cast<long long>(plain_total.bytes),
      static_cast<long long>(plain_total.segments),
      static_cast<long long>(plain_total.quads),
      static_cast<long long>(fused_total.messages),
      static_cast<long long>(fused_total.bytes),
      static_cast<long long>(fused_total.segments),
      static_cast<long long>(fused_total.quads),
      static_cast<long long>(depth_total));
  std::printf("\nsegment totals count contiguous runs copied per pack "
              "(plan_segment_count); quad totals count run-compressed "
              "descriptors stored == copy-train kernel calls "
              "(plan_quad_count); depth is the pipelined backend's up-front "
              "receive window; self lanes move zero-copy (no message) on all "
              "backends.\n");

  // Fused lane locality under a blocked topology: self lanes never message,
  // intra-node lanes move zero-copy through shared memory on the pipelined
  // backend (two tiny control messages replace the payload), and only
  // inter-node lanes pack and pay the link.
  std::printf("\nfused lane locality (ranks_per_node=%d):\n", ranks_per_node);
  for (int r = 0; r < layout.nranks(); ++r) {
    const ddr::DataMapping m = ddr::build_mapping(layout, r, spec.elem_size);
    std::printf("  rank %d:", r);
    bool any = false;
    for (const ddr::PeerLane& lane : m.fused_send) {
      const std::size_t c = lane_class(r, lane.peer, ranks_per_node);
      std::printf("%s ->%d %s%s", any ? "," : "", lane.peer, kClassNames[c],
                  c != 2 ? " (zero-copy)" : "");
      any = true;
    }
    std::printf("%s\n", any ? "" : " (no send lanes)");
  }
  std::printf("\nfused lane totals (ranks_per_node=%d; intra-node bytes move "
              "zero-copy on the pipelined backend, so only inter-node bytes "
              "are packed and pay the link):\n",
              ranks_per_node);
  print_classes(lane_totals(spec, ranks_per_node), nullptr);

  std::printf("\npack kernel: %s (runtime-dispatched; override with "
              "MINIMPI_PACK_KERNEL=scalar|sse2|avx2|auto)\n",
              mpi::pack_kernel_name().c_str());

  return 0;
}

/// --plan: prints the lowering ddr::Planner derives for the fused-lane
/// executor — the executor Backend::automatic runs — then EXECUTES both
/// executors under the threaded runtime and prints what each one measured.
/// Without --ranks-per-node the measurement is median host wall-clock per
/// call (compare executors, not hosts); with --ranks-per-node N > 1 a
/// Cooley-preset simnet::LinkModel is installed and the measurement is the
/// virtual makespan the model's clocks charged. The msgs column counts data
/// messages per call (alltoallw's non-empty per-round sends; one payload per
/// inter-node lane plus a pointer and an ack per intra-node lane), and the
/// peak column is the staging pool's high-water mark
/// (mpi::StagingStats::peak_live_bytes), the quantity a --budget bounds.
int run_plan(const ddr::LayoutSpec& spec, int ranks_per_node,
             std::size_t budget) {
  const ddr::GlobalLayout& layout = spec.layout;
  const int nranks = layout.nranks();
  std::printf("layout: %d ranks, %dD, %zu-byte elements\n", nranks, spec.ndims,
              spec.elem_size);

  simnet::LinkParams lp = simnet::cooley_params();
  lp.ranks_per_node = ranks_per_node;
  const simnet::LinkModel lm(lp);
  const mpi::NetworkModel* net = ranks_per_node > 1 ? &lm : nullptr;

  std::vector<ddr::ExchangeLane> lanes;
  (void)ddr::compute_stats(layout, spec.elem_size, &lanes);
  const ddr::Plan plan = ddr::Planner::decide(lanes, net, budget);
  const ddr::PlanDecision& d = plan.decision;
  std::int64_t largest = 0;
  for (const ddr::ExchangeLane& l : plan.inter_lanes)
    largest = std::max(largest, l.bytes);
  const LaneTotals t = lane_totals(spec, ranks_per_node);

  if (net != nullptr)
    std::printf("\nplan (cooley link model, ranks_per_node=%d):\n",
                ranks_per_node);
  else
    std::printf("\nplan (every rank its own node):\n");
  std::printf("  automatic runs   : %s\n",
              ddr::backend_name(ddr::Backend::point_to_point_pipelined));
  std::printf("  inter lanes      : %lld lanes, %lld B (largest %lld B)\n",
              static_cast<long long>(t.lanes[2]),
              static_cast<long long>(t.bytes[2]),
              static_cast<long long>(largest));
  if (budget > 0)
    std::printf("  staging budget   : %zu B -> %d wave(s)\n", budget, d.waves);
  else
    std::printf("  staging budget   : unlimited -> %d wave(s)\n", d.waves);
  std::printf("  completion order : %s (largest inter lane %s %lld B)\n",
              d.post_all ? "post_all" : "pipelined",
              d.post_all ? "<" : ">=",
              static_cast<long long>(ddr::kPostAllLaneBytes));

  // The lowering the fused-lane executor gives each class: self lanes copy
  // in place, intra lanes ride the zero-copy pointer publication, inter
  // lanes complete post_all below kPostAllLaneBytes, pipelined above it, in
  // fenced waves when a budget is set.
  const char* const lowering[] = {
      "copy_regions", "ptr_publish",
      budget > 0 ? "fenced_waves" : d.post_all ? "post_all" : "pipelined"};
  std::printf("\nper-peer-class partition (fused-lane lowering, %d inter "
              "wave(s)):\n",
              d.waves);
  print_classes(t, lowering);

  const int reps = 15;
  struct Measured {
    double ms = 0.0;
    std::uint64_t peak = 0;
  };
  auto measure = [&](ddr::Backend b) {
    Measured out;
    std::vector<double> wall_ms;
    std::vector<double> vdelta(static_cast<std::size_t>(nranks), 0.0);
    mpi::RunOptions ro;
    ro.network = net;
    mpi::run(
        nranks,
        [&](mpi::Comm& comm) {
          const auto ri = static_cast<std::size_t>(comm.rank());
          ddr::Redistributor rd(comm, spec.elem_size);
          ddr::SetupOptions opt;
          opt.backend = b;
          opt.peak_staging_bytes = budget;
          opt.collective_error_agreement = false;
          rd.setup(layout.owned[ri], layout.needed[ri], opt);
          std::vector<std::byte> owned(rd.owned_bytes());
          std::vector<std::byte> needed(rd.needed_bytes());
          comm.barrier();
          rd.redistribute(owned, needed);  // warm the staging pool
          comm.barrier();
          const double c0 = comm.clock().now();
          for (int i = 0; i < reps; ++i) {
            comm.barrier();
            const auto t0 = std::chrono::steady_clock::now();
            rd.redistribute(owned, needed);
            const auto t1 = std::chrono::steady_clock::now();
            if (ri == 0)
              wall_ms.push_back(
                  std::chrono::duration<double, std::milli>(t1 - t0).count());
          }
          vdelta[ri] = comm.clock().now() - c0;
          comm.barrier();
          if (ri == 0) out.peak = comm.staging_stats().peak_live_bytes;
        },
        ro);
    if (net != nullptr) {
      // Virtual makespan per call (inter-rep barriers included): the
      // quantity the model's clocks charge.
      double mk = 0.0;
      for (const double x : vdelta) mk = std::max(mk, x);
      out.ms = mk / reps * 1e3;
    } else {
      std::sort(wall_ms.begin(), wall_ms.end());
      out.ms = wall_ms[wall_ms.size() / 2];
    }
    return out;
  };

  std::printf("\nexecutors (measured = %s over %d calls; peak = staging-pool "
              "high-water bytes):\n",
              net != nullptr ? "virtual makespan" : "median wall-clock", reps);
  std::printf("  %-26s %9s %6s %12s\n", "backend", "meas ms", "msgs",
              "meas peak");
  const std::pair<ddr::Backend, std::int64_t> executors[] = {
      {ddr::Backend::point_to_point_pipelined, t.lanes[2] + 2 * t.lanes[1]},
      {ddr::Backend::alltoallw, t.round_messages}};
  for (const auto& [b, msgs] : executors) {
    const Measured m = measure(b);
    const char* note = budget == 0        ? ""
                       : m.peak <= budget ? "  (within budget)"
                                          : "  (over budget)";
    std::printf("  %c %-24s %9.3f %6lld %12llu%s\n",
                b == ddr::Backend::point_to_point_pipelined ? '*' : ' ',
                ddr::backend_name(b), m.ms, static_cast<long long>(msgs),
                static_cast<unsigned long long>(m.peak), note);
  }
  std::printf("\n* = what Backend::automatic runs. alltoallw ignores the "
              "staging budget.\n");
  return 0;
}

/// Runs one traced setup() + redistribute() per backend under the threaded
/// runtime, merges every rank's event stream into one Chrome-trace JSON
/// (one trace "process" per backend, one thread row per rank), and prints
/// per-backend message/byte totals so the trace can be cross-checked against
/// the static --cost numbers.
int run_trace(const ddr::LayoutSpec& spec, const char* out_path) {
  const ddr::GlobalLayout& layout = spec.layout;
  const int nranks = layout.nranks();
  std::printf("layout: %d ranks, %dD, %zu-byte elements\n", nranks, spec.ndims,
              spec.elem_size);

  struct BackendRun {
    const char* name;
    ddr::Backend backend;
  };
  const BackendRun backends[] = {
      {"alltoallw", ddr::Backend::alltoallw},
      {"pipelined", ddr::Backend::point_to_point_pipelined},
  };

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "ddrinfo: cannot write %s\n", out_path);
    return 1;
  }
  trace::ChromeTraceWriter writer(out);

  std::printf("\ntraced redistribute() (one call per backend):\n");
  std::printf("  %-10s %8s %12s %8s\n", "backend", "msgs", "bytes", "events");
  int pid = 0;
  for (const BackendRun& b : backends) {
    std::vector<trace::Recorder> recorders;
    recorders.reserve(static_cast<std::size_t>(nranks));
    for (int r = 0; r < nranks; ++r) recorders.emplace_back(r);

    mpi::run(nranks, [&](mpi::Comm& comm) {
      const auto ri = static_cast<std::size_t>(comm.rank());
      ddr::Redistributor rd(comm, spec.elem_size);
      rd.trace_sink(&recorders[ri]);
      ddr::SetupOptions opt;
      opt.backend = b.backend;
      rd.setup(layout.owned[ri], layout.needed[ri], opt);
      std::vector<std::byte> owned(rd.owned_bytes());
      std::vector<std::byte> needed(rd.needed_bytes());
      rd.redistribute(owned, needed);
    });

    std::int64_t msgs = 0, bytes = 0;
    std::size_t events = 0;
    std::vector<const trace::Recorder*> recs;
    for (const trace::Recorder& r : recorders) {
      msgs += static_cast<std::int64_t>(trace::count_events(
          r.events(), "ddr.msg.send", trace::Phase::instant));
      bytes += trace::total_bytes(r.events(), "ddr.msg.send");
      events += r.events().size();
      recs.push_back(&r);
    }
    writer.add_process(pid++, std::string("ddr ") + b.name, recs);
    std::printf("  %-10s %8lld %12lld %8zu\n", b.name,
                static_cast<long long>(msgs), static_cast<long long>(bytes),
                events);
  }
  writer.finish();
  std::printf("\ntrace written to %s (load at https://ui.perfetto.dev)\n",
              out_path);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool list_transfers = false;
  bool echo = false;
  bool validate = false;
  bool cost = false;
  bool plan = false;
  std::size_t budget = 0;
  int ranks_per_node = 1;
  const char* trace_path = nullptr;
  const char* path = nullptr;
  const char* workload = nullptr;
  int grid[3] = {16, 16, 16};
  int wl_ranks = 4;
  unsigned seed = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "-t") == 0) {
      list_transfers = true;
    } else if (std::strcmp(argv[i], "-e") == 0) {
      echo = true;
    } else if (std::strcmp(argv[i], "--validate") == 0) {
      validate = true;
    } else if (std::strcmp(argv[i], "--cost") == 0) {
      cost = true;
    } else if (std::strcmp(argv[i], "--plan") == 0) {
      plan = true;
    } else if (std::strcmp(argv[i], "--budget") == 0) {
      if (i + 1 >= argc) {
        print_usage();
        return 2;
      }
      char* end = nullptr;
      budget = std::strtoull(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0') {
        print_usage();
        return 2;
      }
    } else if (std::strcmp(argv[i], "--ranks-per-node") == 0) {
      if (i + 1 >= argc || (ranks_per_node = std::atoi(argv[++i])) < 1) {
        print_usage();
        return 2;
      }
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      if (i + 1 >= argc) {
        print_usage();
        return 2;
      }
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--workload") == 0) {
      if (i + 1 >= argc) {
        print_usage();
        return 2;
      }
      workload = argv[++i];
    } else if (std::strcmp(argv[i], "--grid") == 0) {
      if (i + 1 >= argc ||
          std::sscanf(argv[++i], "%dx%dx%d", &grid[0], &grid[1], &grid[2]) !=
              3 ||
          grid[0] < 1 || grid[1] < 1 || grid[2] < 1) {
        print_usage();
        return 2;
      }
    } else if (std::strcmp(argv[i], "--nranks") == 0) {
      if (i + 1 >= argc || (wl_ranks = std::atoi(argv[++i])) < 1) {
        print_usage();
        return 2;
      }
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      if (i + 1 >= argc) {
        print_usage();
        return 2;
      }
      seed = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
    } else if (argv[i][0] == '-') {
      print_usage();
      return 2;
    } else {
      path = argv[i];
    }
  }

  ddr::LayoutSpec spec;
  std::string workload_header;
  try {
    if (workload != nullptr) {
      spec = make_workload(workload, grid[0], grid[1], grid[2], wl_ranks,
                           seed, &workload_header);
    } else if (path != nullptr) {
      std::ifstream in(path);
      if (!in) {
        std::fprintf(stderr, "ddrinfo: cannot open %s\n", path);
        return 1;
      }
      spec = ddr::parse_layout(in);
    } else {
      spec = ddr::parse_layout(std::cin);
    }
  } catch (const ddr::Error& e) {
    std::fprintf(stderr, "ddrinfo: %s\n", e.what());
    return 1;
  }

  if (echo) {
    std::fputs(workload_header.c_str(), stdout);
    std::fputs(ddr::format_layout(spec).c_str(), stdout);
    return 0;
  }
  if (!workload_header.empty()) std::fputs(workload_header.c_str(), stdout);

  if (validate) return run_validate(spec);

  if (cost) return run_cost(spec, ranks_per_node);

  if (plan) {
    try {
      return run_plan(spec, ranks_per_node, budget);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "ddrinfo: %s\n", e.what());
      return 1;
    }
  }

  if (trace_path != nullptr) {
    try {
      return run_trace(spec, trace_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "ddrinfo: %s\n", e.what());
      return 1;
    }
  }

  const ddr::GlobalLayout& layout = spec.layout;
  std::printf("layout: %d ranks, %dD, %zu-byte elements\n", layout.nranks(),
              spec.ndims, spec.elem_size);
  std::printf("domain: %s (%lld elements)\n", layout.domain().describe().c_str(),
              static_cast<long long>(layout.domain().volume()));

  const ddr::LayoutValidation v = ddr::validate_owned(layout);
  if (v.ok()) {
    std::printf("owned side: OK (mutually exclusive and complete)\n");
  } else {
    std::printf("owned side: INVALID — %s\n", v.detail.c_str());
  }

  const ddr::MappingStats s = ddr::compute_stats(layout, spec.elem_size);
  std::printf("\nschedule:\n");
  std::printf("  alltoallw rounds        : %d\n", s.rounds);
  std::printf("  bytes staying local     : %lld\n",
              static_cast<long long>(s.self_bytes));
  std::printf("  bytes crossing ranks    : %lld\n",
              static_cast<long long>(s.network_bytes));
  std::printf("  mean sent/rank          : %.1f B\n",
              s.mean_bytes_sent_per_rank);
  std::printf("  mean sent/rank/round    : %.1f B\n",
              s.mean_bytes_sent_per_rank_per_round);
  std::printf("  max sent by a rank in a round: %lld B\n",
              static_cast<long long>(s.max_bytes_sent_in_round));
  std::printf("  mean send peers/rank    : %.2f (of %d)\n", s.mean_send_peers,
              layout.nranks() - 1);
  std::printf("  cross-rank transfers    : %lld (dense lanes: %lld)\n",
              static_cast<long long>(s.transfer_count),
              static_cast<long long>(layout.nranks()) *
                  (layout.nranks() - 1) * s.rounds);

  if (list_transfers) {
    std::printf("\ntransfers (round: sender -> receiver region bytes):\n");
    for (const ddr::Transfer& t :
         ddr::enumerate_transfers(layout, spec.elem_size)) {
      std::printf("  r%d: %d -> %d%s %s %lld B%s\n", t.round, t.sender,
                  t.receiver,
                  t.needed_index > 0
                      ? (" (need#" + std::to_string(t.needed_index) + ")").c_str()
                      : "",
                  t.region.describe().c_str(),
                  static_cast<long long>(t.bytes),
                  t.sender == t.receiver ? " [local]" : "");
    }
  }
  return 0;
}
