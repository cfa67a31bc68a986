#pragma once

/// \file planner.hpp
/// Cost-model-driven backend planning (ROADMAP item 2).
///
/// The paper's per-round alltoallw and the fused-lane executor are priced
/// against each other. ddr::Planner replaces the manual Backend choice:
/// at setup() time it
/// consumes the redistribution's compiled-plan statistics — transfer counts,
/// per-lane bytes, round structure, the self/intra-node/inter-node split
/// under the installed mpi::NetworkModel — and emits a PlanDecision: the
/// backend to run, the completion order of the fused-lane executor, and the
/// wave schedule of its inter-node lanes under a caller-settable
/// peak-staging budget (the memory-efficient redistribution axis of Rink et
/// al., arXiv:2112.01075).
///
/// Everything the decision depends on is GLOBAL knowledge (the allgathered
/// layout and the run-wide NetworkModel), so every rank derives the
/// identical decision with no extra communication — the same discipline that
/// keeps build_mapping() protocol-consistent.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ddr/layout.hpp"
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
  /// non-empty transfers, every peer's per-round pieces stitched into ONE
  /// struct-typed lane, cutting the message count from rounds x peers to
  /// peers. Each lane gets the lowering its LaneClass admits: the self lane
  /// is a copy_regions, intra-node lanes are copied zero-copy out of the
  /// sender's owned buffer through a published pointer, and inter-node lanes
  /// go through the staging pool with the whole receive window posted up
  /// front, completed in one of two orders fixed at setup
  /// (PlanDecision::post_all): below kPostAllLaneBytes one
  /// wait_all in posting order after ascending-peer sends; above it a
  /// pipeline of shifted sends whose receives complete out-of-order the
  /// moment they land (mpi::wait_any), so total latency approaches the max
  /// per-peer transfer time instead of rounds x round time. Under
  /// SetupOptions::peak_staging_bytes the inter-node lanes run as a
  /// sequence of waves (assign_waves over inter_node_lanes), each closed by
  /// a barrier, so the staging pool's peak stays within the budget — the
  /// sequenced, memory-bounded exchange of Rink et al. (arXiv:2112.01075).
  /// Under an active FaultModel every non-self lane moves as one payload a
  /// receiver-driven retry protocol re-requests until it lands. (Value 1,
  /// the per-round point-to-point executor, is retired.)
  point_to_point_pipelined = 3,
  /// Let ddr::Planner choose: setup() runs the cost model over every
  /// candidate above and redistribute() executes the winner (see
  /// Redistributor::plan() for the decision and per-candidate predictions).
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

/// Collective shape detected on the src->dst sharding pair (drives the
/// explain output and documents which classic collective a budgeted wave
/// sequence corresponds to).
enum class CollectiveShape {
  /// No special structure; the wave sequence is a generic bounded scatter
  /// sequence over the fused lanes.
  none,
  /// Every rank needs the identical chunk set (broadcast shape): the lane
  /// streams per sender are identical for every receiver and the sequence
  /// is an allgather executed as one scatter wave per sender.
  allgather,
  /// A single rank feeds everyone (scatter shape).
  scatter,
  /// A single rank drains everyone (gather / reduce-scatter shape).
  gather,
};

/// One directed non-self lane of the exchange: everything rank `sender`
/// sends rank `receiver`, all rounds fused (the unit a staging budget
/// schedules). Derived identically on every rank from the global layout.
struct ExchangeLane {
  int sender = -1;
  int receiver = -1;
  std::int64_t bytes = 0;  ///< packed payload size of the lane
  int wave = 0;            ///< fence group assigned by assign_waves
};

/// The directed non-self lanes of `layout` that cross nodes under `net`'s
/// node map, in (sender, receiver) order with their packed payload sizes —
/// the lanes the fused-lane executor stages, and so the ones a staging
/// budget schedules (intra-node lanes move zero-copy). With net == nullptr
/// every rank is its own node and every non-self lane is returned.
/// Deterministic global knowledge; `world_ranks` maps communicator ranks to
/// world ranks as in Planner::decide.
[[nodiscard]] std::vector<ExchangeLane> inter_node_lanes(
    const GlobalLayout& layout, std::size_t elem_size,
    const mpi::NetworkModel* net = nullptr,
    const std::vector<int>* world_ranks = nullptr);

/// Partitions `lanes` into fenced waves whose per-wave payload total stays
/// within `peak_staging_bytes` (0 = unlimited -> one wave). The budget is
/// floored at the largest single lane — a lane is the smallest schedulable
/// unit, so no budget can push the peak below it. Fills each lane's `wave`
/// (greedy, in the deterministic lane order) and returns the wave count.
int assign_waves(std::vector<ExchangeLane>& lanes,
                 std::size_t peak_staging_bytes);

/// One evaluated backend candidate: the predicted cost and footprint the
/// planner compared (ddrinfo --plan prints these against measured numbers).
struct CandidateCost {
  Backend backend = Backend::alltoallw;
  /// Predicted makespan of one redistribute() call, in seconds: the max
  /// over ranks of modeled per-rank cost (NetworkModel-derived when a model
  /// is installed, calibrated software constants otherwise).
  double predicted_s = 0.0;
  std::int64_t messages = 0;          ///< data messages posted per call
  std::int64_t inter_node_bytes = 0;  ///< payload bytes crossing nodes
  std::int64_t intra_node_bytes = 0;  ///< payload bytes staying on-node
  std::int64_t self_bytes = 0;        ///< bytes that never leave the rank
  /// Predicted pool-wide peak of concurrently live staging bytes.
  std::size_t predicted_peak_staging = 0;
  /// False when the planner may not choose this candidate; see
  /// infeasible_reason.
  bool feasible = true;
  /// Why the candidate is infeasible, "" when it is feasible: "over budget"
  /// when a peak_staging_bytes budget is set and the predicted peak exceeds
  /// it. Backend::point_to_point_pipelined is always feasible: its waves
  /// honor any budget down to the one-lane floor.
  const char* infeasible_reason = "";
};

/// Per-peer-class row of a decision: how many fused lanes fall in the class,
/// the payload bytes they carry, the lowering the fused-lane executor gives
/// them, and the predicted per-class makespan contribution. Derived from
/// global aggregates only, so identical on every rank.
struct ClassPlan {
  LaneClass cls = LaneClass::self;
  std::int64_t lanes = 0;       ///< fused lanes in this class (self: ranks
                                ///< with self traffic)
  std::int64_t bytes = 0;       ///< payload bytes the class carries
  double predicted_s = 0.0;     ///< predicted makespan of this class alone
  const char* lowering = "";    ///< "copy_regions" / "ptr_publish" /
                                ///< "post_all" or "pipelined" (no budget,
                                ///< see PlanDecision::post_all) /
                                ///< "fenced_waves" (under a budget)
};

/// The planner's verdict, identical on every rank of the communicator.
struct PlanDecision {
  Backend backend = Backend::alltoallw;
  /// Always 0: every rank packs its own lanes on its own thread.
  static constexpr int pack_threads = 0;
  /// Predicted pool-wide peak staging of the chosen backend.
  std::size_t predicted_peak_staging = 0;
  /// Predicted makespan of the chosen backend (see CandidateCost).
  double predicted_s = 0.0;
  /// Detected collective shape of the sharding pair.
  CollectiveShape shape = CollectiveShape::none;
  /// Wave count of the fused-lane executor's inter-node lanes under the
  /// budget (assign_waves over inter_node_lanes; 1 when no budget is set or
  /// no inter lanes exist). Intra-node lanes move zero-copy and never
  /// compete for the budget.
  int waves = 1;
  /// Completion discipline of the fused-lane executor's inter-node lanes,
  /// decided from one global aggregate so every rank runs the same one:
  /// true when the largest inter-node lane is below
  /// kPostAllLaneBytes — every receive is posted, the lanes are
  /// sent in ascending peer order and one wait_all completes them in posting
  /// order; false — the pipeline: shifted send order, a drain of the landed
  /// receives between sends, arrival-order completion.
  bool post_all = true;
  /// The self/intra/inter partition of the fused lane set, in that order
  /// (always 3 entries), with the lowering the fused-lane executor gives
  /// each class. Populated from global aggregates on every decision.
  std::vector<ClassPlan> class_plans;
  /// Every candidate evaluated, in evaluation order (ddrinfo --plan).
  std::vector<CandidateCost> candidates;
};

/// Cost-model-driven backend planner (see file comment).
class Planner {
 public:
  /// Derives the plan for `layout`: a pure function of its arguments, so
  /// every rank of a setup() — and ddrinfo --plan, offline — derives the
  /// identical decision.
  ///
  /// \param net                the run's NetworkModel (nullptr = cost-free
  ///                           run; all non-self lanes count as inter-node
  ///                           and calibrated software constants price them)
  /// \param peak_staging_bytes staging budget (SetupOptions), 0 = unlimited
  /// \param world_ranks        world rank per COMMUNICATOR rank (for
  ///                           sub-communicators whose ranks are not world
  ///                           ranks — Redistributor derives it via
  ///                           Comm::world_rank). nullptr: comm ranks ARE
  ///                           world ranks.
  [[nodiscard]] static PlanDecision decide(const GlobalLayout& layout,
                                           std::size_t elem_size,
                                           const mpi::NetworkModel* net,
                                           std::size_t peak_staging_bytes,
                                           const std::vector<int>* world_ranks =
                                               nullptr);
};

/// Human-readable backend name ("alltoallw", "point_to_point_pipelined",
/// "automatic"), for explain output and test diagnostics.
[[nodiscard]] const char* backend_name(Backend b);

}  // namespace ddr
