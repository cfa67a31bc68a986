#pragma once

/// \file planner.hpp
/// The lowering of the fused-lane executor.
///
/// At setup() time ddr::Planner derives how the fused-lane executor
/// (Backend::point_to_point_pipelined, which Backend::automatic resolves to)
/// runs a redistribution: which of its lanes cross nodes under the installed
/// mpi::NetworkModel, the completion order of those inter-node lanes, and
/// their wave schedule under a caller-settable peak-staging budget (the
/// memory-efficient redistribution axis of Rink et al., arXiv:2112.01075).
///
/// Everything the decision depends on is GLOBAL knowledge (the allgathered
/// layout and the run-wide NetworkModel), so every rank derives the
/// identical decision with no extra communication — the same discipline that
/// keeps build_mapping() protocol-consistent.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ddr/mapping.hpp"
#include "minimpi/sim.hpp"

namespace ddr {

/// How redistribute() moves the data. The values are stable identifiers:
/// traces record them as the `value` key of the ddr.setup and
/// ddr.plan.decision events, so numbers of retired backends are not reused.
enum class Backend {
  /// MPI_Alltoallw with subarray datatypes, one call per round — the
  /// algorithm the paper describes (§III-C).
  alltoallw = 0,
  /// The fused-lane executor — the paper's future-work point-to-point
  /// backend for sparse mappings (§V): direct sends and receives of only the
  /// non-empty transfers, all of a peer pair's transfers in ONE struct-typed
  /// lane, cutting the message count from rounds x peers to peers. Each
  /// lane gets the lowering its LaneClass admits: the self lane is a
  /// copy_regions, intra-node lanes are copied zero-copy out of the
  /// sender's owned buffer through a published pointer, and inter-node lanes
  /// go through the staging pool with the whole receive window posted up
  /// front, completed in one of two orders fixed at setup
  /// (PlanDecision::post_all): below kPostAllLaneBytes one
  /// wait_all in posting order after ascending-peer sends; above it a
  /// pipeline of shifted sends whose receives complete out-of-order the
  /// moment they land (mpi::wait_any), so total latency approaches the max
  /// per-peer transfer time instead of rounds x round time. Under
  /// SetupOptions::peak_staging_bytes the inter-node lanes run as a
  /// sequence of waves (assign_waves over Plan::inter_lanes), each closed by
  /// a barrier, so the staging pool's peak stays within the budget — the
  /// sequenced, memory-bounded exchange of Rink et al. (arXiv:2112.01075).
  /// Under an active FaultModel every non-self lane moves as one payload a
  /// receiver-driven retry protocol re-requests until it lands. (Value 1,
  /// the per-round point-to-point executor, is retired.)
  point_to_point_pipelined = 3,
  /// The library's choice: today the fused-lane executor, which setup()
  /// resolves it to on every layout (Redistributor::effective_backend()
  /// reports the resolution). A caller that wants the paper's per-round
  /// exchange requests alltoallw.
  automatic = 6,
};

/// Locality class of a fused per-peer lane under the installed
/// mpi::NetworkModel — the partition the fused-lane executor lowers by
/// (self lanes copy in place, intra-node lanes publish a pointer,
/// inter-node lanes pack and pay the link).
enum class LaneClass { self, intra, inter };

/// The fused-lane executor completes its inter-node lanes post-all (one
/// wait_all) when the largest of them is below this many bytes, and in
/// arrival order through the pipeline otherwise (PlanDecision::post_all):
/// packing a small lane costs less than polling the outstanding receives
/// between sends would.
inline constexpr std::int64_t kPostAllLaneBytes = 32 * 1024;

/// Partitions `lanes` into fenced waves whose per-wave payload total stays
/// within `peak_staging_bytes` (0 = unlimited -> one wave). The budget is
/// floored at the largest single lane — a lane is the smallest schedulable
/// unit, so no budget can push the peak below it. Fills each lane's `wave`
/// (greedy, in the deterministic lane order) and returns the wave count.
int assign_waves(std::vector<ExchangeLane>& lanes,
                 std::size_t peak_staging_bytes);

/// The fused-lane executor's lowering, identical on every rank of the
/// communicator.
struct PlanDecision {
  /// Always 0: every rank packs its own lanes on its own thread.
  static constexpr int pack_threads = 0;
  /// Wave count of the inter-node lanes under the budget (assign_waves over
  /// Plan::inter_lanes; 1 when no budget is set or no inter lanes exist).
  /// Intra-node lanes move zero-copy and never compete for the budget.
  int waves = 1;
  /// Completion discipline of the inter-node lanes, decided from one global
  /// aggregate so every rank runs the same one: true when the largest
  /// inter-node lane is below kPostAllLaneBytes — every receive is posted,
  /// the lanes are sent in ascending peer order and one wait_all completes
  /// them in posting order; false — the pipeline: shifted send order, a
  /// drain of the landed receives between sends, arrival-order completion.
  bool post_all = true;
};

/// What the planner derives for one layout: the lowering and the lanes it
/// schedules.
struct Plan {
  PlanDecision decision;
  /// The lanes that cross nodes, in (sender, receiver) order, each with its
  /// wave — the lanes the fused-lane executor stages, and so the ones a
  /// staging budget schedules (intra-node lanes move zero-copy).
  std::vector<ExchangeLane> inter_lanes;
};

/// Derives the fused-lane executor's lowering (see file comment).
class Planner {
 public:
  /// Derives the plan from `lanes`, compute_stats' lane list: keeps the
  /// lanes that cross nodes under `net`'s node map, assigns their waves
  /// (assign_waves) and picks their completion order. A pure function of
  /// its arguments, so every rank of a setup() — and ddrinfo --plan,
  /// offline — derives the identical plan.
  ///
  /// \param net                the run's NetworkModel (nullptr = every rank
  ///                           is its own node, so every lane is inter-node)
  /// \param peak_staging_bytes staging budget (SetupOptions), 0 = unlimited
  /// \param world_ranks        world rank per COMMUNICATOR rank (for
  ///                           sub-communicators whose ranks are not world
  ///                           ranks — Redistributor derives it via
  ///                           Comm::world_rank). nullptr: comm ranks ARE
  ///                           world ranks.
  [[nodiscard]] static Plan decide(const std::vector<ExchangeLane>& lanes,
                                   const mpi::NetworkModel* net,
                                   std::size_t peak_staging_bytes,
                                   const std::vector<int>* world_ranks =
                                       nullptr);
};

/// Human-readable backend name ("alltoallw", "point_to_point_pipelined",
/// "automatic"), for explain output and test diagnostics.
[[nodiscard]] const char* backend_name(Backend b);

}  // namespace ddr
