#pragma once

/// \file redistributor.hpp
/// The modern C++ face of the DDR library.
///
/// Mirrors the paper's three-call workflow:
///   1. construct a Redistributor (DDR_NewDataDescriptor),
///   2. setup() with what this rank owns and needs (DDR_SetupDataMapping),
///   3. redistribute() as often as the data changes (DDR_ReorganizeData).
///
/// Example (the paper's E1, per rank):
/// \code
///   ddr::Redistributor r(comm, sizeof(float));
///   ddr::OwnedLayout own{ddr::Chunk::d2(8, 1, 0, rank),
///                        ddr::Chunk::d2(8, 1, 0, rank + 4)};
///   ddr::Chunk need = ddr::Chunk::d2(4, 4, 4 * (rank % 2), 4 * (rank / 2));
///   r.setup(own, need);
///   r.redistribute(std::as_bytes(std::span(data_own)),
///                  std::as_writable_bytes(std::span(data_need)));
/// \endcode

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "ddr/mapping.hpp"
#include "ddr/planner.hpp"
#include "ddr/resize_plan.hpp"
#include "minimpi/comm.hpp"
#include "trace/trace.hpp"

namespace ddr {

// Backend (how redistribute() moves the data) and LaneClass (the self/
// intra/inter locality partition of the fused lanes, derived at setup()
// time from the installed NetworkModel's node mapping via
// mpi::Comm::same_node) live in ddr/planner.hpp, next to the planner that
// derives the fused-lane executor's lowering. Without a network model every
// rank is its own node, so all non-self lanes are inter and behaviour is
// exactly the flat exchange.

/// Options for the transactional elastic resize
/// (Redistributor::resize_rebalance / Redistributor::resize_join).
struct ResizeOptions {
  /// How many times the resize protocol restarts (rendezvous -> plan ->
  /// transfer -> commit) after a rollback before giving up with an error.
  int max_attempts = 4;

  /// Test seam: invoked on every member at the start of each protocol phase
  /// with the phase name ("rendezvous", "plan", "transfer", "commit").
  /// Fault-injection tests use it to arm a kill at a precise phase; leave
  /// empty otherwise.
  std::function<void(const char*)> phase_hook;
};

/// Result of one elastic resize, per member (see resize_rebalance()).
struct ResizeOutcome {
  /// The post-resize communicator. Invalid (`!comm.valid()`) when this
  /// member retired — a tail rank of a committed shrink, or a joiner whose
  /// grow rolled back.
  mpi::Comm comm;
  /// This member's chunks under the committed layout (empty when retired).
  OwnedLayout owned;
  /// The data for `owned`, chunks packed consecutively. Populated from the
  /// staging buffer only at the commit point, so a rolled-back attempt never
  /// leaks partial transfers.
  std::vector<std::byte> data;
  /// Planner cost model of the committed attempt (identical on all members).
  ResizePlanStats stats;
  /// True once an attempt committed. False only for a rolled-back joiner
  /// (its slot is retired; the surviving members retry without it) — the
  /// members that initiated the resize either commit or throw.
  bool committed = false;
  /// True when this member is no longer part of the resized run.
  bool retired = false;
  int attempts = 0;   ///< protocol attempts consumed (>= 1)
  int rollbacks = 0;  ///< attempts that rolled back
};

/// Options controlling setup behaviour.
struct SetupOptions {
  Backend backend = Backend::alltoallw;

  /// Fail-safe collective error contract: before any data moves, setup() and
  /// redistribute() agree on per-rank precondition failures via a cheap
  /// allreduce, so EVERY rank throws the same descriptive ddr::Error (naming
  /// the failing rank) instead of one rank throwing while the others hang in
  /// a half-entered collective. Disable only when every rank's preconditions
  /// are known to be checked identically already.
  bool collective_error_agreement = true;

  /// Peak-staging budget in bytes, 0 = unlimited. The fused-lane executor
  /// (Backend::point_to_point_pipelined, and so Backend::automatic) runs its
  /// inter-node lanes as waves, each closed by a barrier, so no wave's total
  /// payload exceeds the budget (floored at the largest single lane — the
  /// smallest schedulable unit); its intra lanes move zero-copy and stage
  /// only their 8-byte published pointers. Backend::alltoallw ignores it.
  std::size_t peak_staging_bytes = 0;
};

/// Per-rank redistribution engine.
///
/// Thread-compatible: one Redistributor per rank thread; redistribute() is
/// collective over the communicator given at construction.
class Redistributor {
 public:
  /// \param comm       communicator spanning all participating ranks
  /// \param elem_size  bytes per domain element (the paper's 4th descriptor
  ///                   parameter; the element MPI type collapses to its size)
  Redistributor(mpi::Comm comm, std::size_t elem_size);

  /// Collective. Declares what this rank owns (any number of chunks, packed
  /// consecutively in the source buffer) and the one chunk it needs.
  /// Gathers every rank's declaration, validates the paper's send-side
  /// contract (owned chunks mutually exclusive and complete — a
  /// sort-and-sweep over every rank's owned chunks, see validate_owned()),
  /// and computes the geometric mapping. Throws ddr::Error on every rank
  /// when the contract is violated. If it throws, is_setup() is false until
  /// a later setup() succeeds.
  void setup(const OwnedLayout& owned, const Chunk& needed,
             const SetupOptions& options = {});

  /// Collective. Extension of the paper's interface (§V future work,
  /// "support for more data patterns"): this rank needs SEVERAL chunks,
  /// packed consecutively in the destination buffer in the given order.
  /// Needed chunks may overlap each other and other ranks' needs.
  void setup(const OwnedLayout& owned, const NeededLayout& needed,
             const SetupOptions& options = {});

  /// Collective. Moves the data: `owned_data` must hold owned_bytes(),
  /// `needed_data` must hold needed_bytes(). Repeatable on fresh data
  /// without re-running setup (paper §III-C).
  void redistribute(std::span<const std::byte> owned_data,
                    std::span<std::byte> needed_data) const;

  /// Collective over `comm` (typically the shrunk communicator after the
  /// deadlock watchdog reported dead ranks — see mpi::Comm::shrink()).
  /// Replaces this Redistributor's communicator and re-runs setup() with the
  /// survivors' declarations, so redistribution can continue with the
  /// remaining ranks after a failure.
  void rebuild(mpi::Comm comm, const OwnedLayout& owned,
               const NeededLayout& needed, const SetupOptions& options = {});

  /// Single-needed-chunk convenience overload of rebuild().
  void rebuild(mpi::Comm comm, const OwnedLayout& owned, const Chunk& needed,
               const SetupOptions& options = {});

  /// Collective over the survivors. Self-healing rebuild: shrinks the
  /// current communicator (excluding the ranks the runtime reported dead)
  /// and re-runs setup() with this rank's post-failure declarations, reusing
  /// the options from the previous setup() — the one-call recovery path
  /// examples/failover_rebalance.cpp demonstrates.
  void rebuild(const OwnedLayout& owned, const NeededLayout& needed);

  /// Single-needed-chunk convenience overload of the self-healing rebuild().
  void rebuild(const OwnedLayout& owned, const Chunk& needed);

  /// Collective over the current communicator (joiners participate via
  /// resize_join()). Elastically resizes the run from M = comm().size()
  /// members to `new_size` and rebalances the data with minimal movement:
  ///
  ///   1. rendezvous — heal the communicator (shrink around any dead ranks),
  ///      then grow it (mpi::Comm::resize activates dormant ranks, which
  ///      enter through RunOptions::joiner_main and must call resize_join)
  ///      when new_size exceeds the live member count;
  ///   2. plan — allgather every member's old chunks and derive the
  ///      movement-minimizing balanced layout (propose_resize_layout;
  ///      deterministic, so no negotiation round-trips);
  ///   3. transfer — run the old->new diff as an incremental redistribution
  ///      into a private staging buffer (data each member keeps moves via
  ///      the self lane and never touches the network);
  ///   4. commit — a ULFM-style mpi::Comm::agree decides atomically: commit
  ///      publishes the staging buffer as ResizeOutcome::data, rollback
  ///      discards it, shrinks around the casualty, retires the joiners of
  ///      the failed attempt, and retries (bounded by
  ///      ResizeOptions::max_attempts).
  ///
  /// A member that dies mid-resize therefore never leaves the survivors
  /// with a partially-applied layout: before the commit decision every
  /// member still holds exactly its old data, after it exactly its new.
  /// Death AFTER the commit decision is an ordinary post-resize failure
  /// (handled like any other, e.g. with the comm-less rebuild).
  ///
  /// When growing, `new_size` is clamped to the live member count plus
  /// mpi::Comm::spawnable_ranks(). On return this Redistributor's
  /// communicator is the resized one and the mapping is stale
  /// (is_setup() == false): continue with setup() on the new layout.
  ///
  /// \param new_size    desired member count (>= 1)
  /// \param owned       this rank's current chunks (the pre-resize layout;
  ///                    need not match the last setup())
  /// \param owned_data  the data for `owned`, chunks packed consecutively
  [[nodiscard]] ResizeOutcome resize_rebalance(int new_size,
                                               const OwnedLayout& owned,
                                               std::span<const std::byte> owned_data,
                                               const ResizeOptions& options = {});

  /// The joiner half of resize_rebalance(): a rank activated by the grow
  /// (RunOptions::joiner_main) calls this with the communicator it was
  /// handed. Participates in plan/transfer/commit with an empty old layout.
  /// On commit the outcome carries the joiner's share of the data; on
  /// rollback the joiner retires (retired == true, invalid comm) and the
  /// surviving members retry with freshly spawned ranks.
  [[nodiscard]] static ResizeOutcome resize_join(const mpi::Comm& comm,
                                                 std::size_t elem_size,
                                                 const ResizeOptions& options = {});

  /// Bytes this rank's concatenated owned chunks occupy.
  [[nodiscard]] std::size_t owned_bytes() const { return mapping_.owned_bytes; }

  /// Bytes this rank's needed chunk occupies.
  [[nodiscard]] std::size_t needed_bytes() const {
    return mapping_.needed_bytes;
  }

  /// Number of alltoallw rounds (== max chunks owned by any rank).
  [[nodiscard]] int rounds() const { return stats_.rounds; }

  /// Schedule statistics of the current mapping (Table III numbers).
  [[nodiscard]] const MappingStats& stats() const { return stats_; }

  /// The global layout gathered during setup (diagnostics and tests).
  [[nodiscard]] const GlobalLayout& global_layout() const { return layout_; }

  [[nodiscard]] bool is_setup() const { return setup_done_; }

  [[nodiscard]] const mpi::Comm& comm() const { return comm_; }

  /// The backend redistribute() actually runs: the requested one, or
  /// Backend::point_to_point_pipelined when Backend::automatic was
  /// requested.
  [[nodiscard]] Backend effective_backend() const;

  /// The fused-lane executor's lowering for the current mapping (waves and
  /// completion order; see Planner::decide). Derived by every setup(); it is
  /// what redistribute() runs whenever the effective backend is
  /// Backend::point_to_point_pipelined.
  [[nodiscard]] const PlanDecision& plan() const { return plan_; }

  /// Number of this rank's fused SEND lanes in the given locality class
  /// (see LaneClass; counts follow the node mapping the NetworkModel
  /// installed at setup() time). Diagnostics and tests.
  [[nodiscard]] int fused_lane_count(LaneClass cls) const;

  /// Attaches a trace recorder: while set, setup() and redistribute() record
  /// their phase spans and per-message instants into `rec` (see
  /// trace/trace.hpp for the event schema). The recorder is installed for the
  /// duration of each call, so minimpi-level events (collectives, staging
  /// pool, datatype compilation) land in the same stream. Pass nullptr to
  /// detach. When no sink is set, calls record into the thread's ambient
  /// trace::current() recorder, if any.
  void trace_sink(trace::Recorder* rec) noexcept { trace_ = rec; }
  [[nodiscard]] trace::Recorder* trace_sink() const noexcept { return trace_; }

 private:
  /// The communication-free tail of setup(): layout_ (and options_, comm_,
  /// elem_size_) are already in place and validated; derives mapping_,
  /// stats_ and the lane classes, then builds and compiles only what the
  /// resolved executor runs (rounds_, or the intra-node sender types and
  /// the wave tables) and prewarms the staging pool for it.
  /// resize_rebalance() reuses it to compile the old->new transition layout
  /// directly — the transition has empty needed sides for retiring members,
  /// and holes on the owned side after a rolled-back attempt, which the
  /// public setup() rejects by design.
  void finish_setup();

  /// One plan+transfer attempt of the resize protocol, collective over
  /// `tcomm` (old members and joiners alike). Allgathers the old per-member
  /// layouts, derives the balanced target layout for the first `new_members`
  /// ranks, and redistributes into a staging buffer. Communication failures
  /// are captured in ok/error instead of thrown — the commit vote turns
  /// them into a collective rollback.
  struct TransferResult {
    bool ok = false;
    OwnedLayout new_owned;        ///< this rank's chunks under the new layout
    std::vector<std::byte> data;  ///< staging buffer (the new chunks' bytes)
    ResizePlanStats stats;
    std::string error;            ///< diagnostic when !ok
  };
  static TransferResult resize_transfer(
      const mpi::Comm& tcomm, int new_members, std::size_t elem_size,
      const OwnedLayout& my_owned, std::span<const std::byte> owned_data,
      const std::function<void(const char*)>& phase_hook);

  /// The rollback rendezvous both halves of the protocol share: shrink
  /// `tcomm` around the casualties, count the surviving pre-resize members
  /// (they form a prefix, in order), and resize down to exactly them so the
  /// failed attempt's joiners retire. Returns the healed communicator
  /// (invalid on a retiring joiner).
  static mpi::Comm rollback_rendezvous(const mpi::Comm& tcomm, bool is_old);

  void execute_alltoallw(std::span<const std::byte> owned_data,
                         std::span<std::byte> needed_data) const;
  /// Backend::point_to_point_pipelined — the one executor of the fused
  /// lanes: self lane copy_regions, intra lanes the ptr-publish zero-copy
  /// path, inter lanes once per wave of send_waves_/recv_waves_ under the
  /// completion discipline of plan_.post_all.
  void execute_p2p_pipelined(std::span<const std::byte> owned_data,
                             std::span<std::byte> needed_data) const;
  /// The fused-lane executor under an active FaultModel: every non-self
  /// lane moves as one payload its receiver re-requests until it lands.
  void execute_p2p_reliable(std::span<const std::byte> owned_data,
                            std::span<std::byte> needed_data) const;
  /// The self lane of the fused lanes: one copy_regions, no message.
  void copy_self_lane(std::span<const std::byte> owned_data,
                      std::span<std::byte> needed_data) const;

  mpi::Comm comm_;
  std::size_t elem_size_;
  SetupOptions options_;
  bool setup_done_ = false;
  GlobalLayout layout_;
  DataMapping mapping_;
  /// alltoallw's per-round plans (build_round_plans); empty under the
  /// fused-lane executor, which never moves them.
  std::vector<RoundPlan> rounds_;
  MappingStats stats_;
  /// The fused-lane executor's lowering for the current mapping (see plan()).
  PlanDecision plan_;
  /// What redistribute() dispatches on: the requested backend, or the
  /// fused-lane executor when the request was Backend::automatic.
  Backend resolved_backend_ = Backend::alltoallw;
  /// Lowering table of the fused-lane executor, one entry per wave: the
  /// indices of the inter-node lanes in mapping_.fused_send (in the shifted
  /// order they are posted — this rank's successor first, wrapping) and in
  /// mapping_.fused_recv that move in that wave. One wave without a staging
  /// budget; under a budget the waves of the global inter-lane schedule,
  /// so a lane moves in the same wave on its sender and receiver. Empty
  /// unless the resolved backend is point_to_point_pipelined.
  std::vector<std::vector<std::size_t>> send_waves_, recv_waves_;
  /// Epoch counter of the fused-lane executor: every redistribute() call
  /// gets its own tags so duplicated or re-sent messages from one call can
  /// never be mistaken for another call's traffic.
  mutable std::uint64_t p2p_epoch_ = 0;
  /// Request scratch reused across redistribute() calls so the steady-state
  /// fused-lane data path performs no heap allocation.
  mutable std::vector<mpi::Request> reqs_;
  /// (peer, bytes) metadata parallel to the receive window in reqs_ in the
  /// fused-lane executor, so out-of-order completions can be traced against
  /// the lane they satisfy. Reused scratch, like reqs_.
  struct PipelineRecv {
    int peer = -1;
    std::int64_t bytes = 0;
  };
  mutable std::vector<PipelineRecv> recv_meta_;

  /// Locality class per fused lane, parallel to mapping_.fused_send /
  /// mapping_.fused_recv (computed at setup from mpi::Comm::same_node).
  std::vector<LaneClass> fused_send_class_, fused_recv_class_;
  /// One entry per intra-node SENDING peer: everything the receiver needs to
  /// execute that peer's lane zero-copy — the sender-side lane (rebuilt
  /// deterministically with build_peer_send_lane, read through the pointer
  /// the sender publishes) and this rank's matching fused recv lane. Empty
  /// unless the resolved backend is point_to_point_pipelined.
  struct IntraRecv {
    int peer = -1;
    std::ptrdiff_t peer_displ = 0;
    mpi::Datatype peer_type;     ///< sender's fused lane type
    std::ptrdiff_t my_displ = 0;
    mpi::Datatype my_type;       ///< this rank's fused recv lane type
    std::int64_t bytes = 0;
  };
  std::vector<IntraRecv> intra_recv_;

  /// Optional per-Redistributor trace sink (see trace_sink()). Not owned.
  trace::Recorder* trace_ = nullptr;
};

}  // namespace ddr
