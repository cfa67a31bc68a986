#include "ddr/redistributor.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <limits>
#include <numeric>
#include <thread>

#include "ddr/error.hpp"

namespace ddr {

namespace {

/// Fixed-size wire format for one chunk (allgathered during setup).
struct ChunkWire {
  std::int32_t ndims = 0;
  std::array<std::int32_t, kMaxDims> dims{{1, 1, 1}};
  std::array<std::int32_t, kMaxDims> offsets{{0, 0, 0}};
};

ChunkWire to_wire(const Chunk& c) {
  ChunkWire w;
  w.ndims = c.ndims;
  for (int d = 0; d < kMaxDims; ++d) {
    const auto k = static_cast<std::size_t>(d);
    w.dims[k] = c.dims[k];
    w.offsets[k] = c.offsets[k];
  }
  return w;
}

Chunk from_wire(const ChunkWire& w) {
  Chunk c;
  c.ndims = w.ndims;
  for (int d = 0; d < kMaxDims; ++d) {
    const auto k = static_cast<std::size_t>(d);
    c.dims[k] = w.dims[k];
    c.offsets[k] = w.offsets[k];
  }
  return c;
}

/// Why `c` cannot join a layout of `nd`-dimensional chunks, or "" when it
/// can: another dimensionality, or a negative extent (zero is legal).
std::string chunk_defect(const Chunk& c, int nd) {
  if (c.ndims != nd)
    return "is " + std::to_string(c.ndims) + "D but this rank declared " +
           std::to_string(nd) +
           "D chunks — all ranks must use the same dimensionality";
  for (int d = 0; d < nd; ++d)
    if (c.dims[static_cast<std::size_t>(d)] < 0)
      return "has a negative extent (" +
             std::to_string(c.dims[static_cast<std::size_t>(d)]) +
             " in dimension " + std::to_string(d) + ")";
  return {};
}

/// Largest element size: setup's header allgather carries it as int32.
constexpr std::size_t kMaxElemSize = std::numeric_limits<std::int32_t>::max();

/// Collective. Allgathers every member's chunk declarations into the global
/// layout, identical on every member: one allgather of a header (owned
/// count, needed count, element size), then one allgatherv of the chunk
/// geometry. Throws the same error on every member when the members
/// disagree on the element size — before the allgatherv, so no member is
/// left inside it.
GlobalLayout gather_layout(const mpi::Comm& comm, const char* what,
                           std::size_t elem_size, const OwnedLayout& owned,
                           const NeededLayout& needed) {
  const auto p = static_cast<std::size_t>(comm.size());
  const mpi::Datatype ints = mpi::Datatype::of<std::int32_t>();
  const std::array<std::int32_t, 3> my_hdr{
      static_cast<std::int32_t>(owned.size()),
      static_cast<std::int32_t>(needed.size()),
      static_cast<std::int32_t>(elem_size)};
  std::vector<std::int32_t> hdrs(3 * p, 0);
  comm.allgather(my_hdr.data(), 3, ints, hdrs.data(), 3, ints);

  std::vector<int> recvcounts, displs;
  int total = 0;
  for (std::size_t r = 0; r < p; ++r) {
    if (hdrs[3 * r + 2] != hdrs[2])
      throw Error(std::string(what) + ": rank 0 declared " +
                  std::to_string(hdrs[2]) + "-byte elements but rank " +
                  std::to_string(r) + " declared " +
                  std::to_string(hdrs[3 * r + 2]) +
                  " — all ranks must agree on the element size");
    recvcounts.push_back(hdrs[3 * r] + hdrs[3 * r + 1]);
    displs.push_back(total);
    total += recvcounts.back();
  }

  const mpi::Datatype wire = mpi::Datatype::bytes(sizeof(ChunkWire));
  std::vector<ChunkWire> mine;
  mine.reserve(owned.size() + needed.size());
  for (const Chunk& c : owned) mine.push_back(to_wire(c));
  for (const Chunk& c : needed) mine.push_back(to_wire(c));
  std::vector<ChunkWire> all(static_cast<std::size_t>(total));
  ChunkWire none{};  // non-null buffer stand-in for empty contributions
  comm.allgatherv(mine.empty() ? &none : mine.data(), mine.size(), wire,
                  all.empty() ? &none : all.data(), recvcounts, displs, wire);

  GlobalLayout layout;
  layout.owned.resize(p);
  layout.needed.resize(p);
  for (std::size_t r = 0; r < p; ++r) {
    auto cursor = static_cast<std::size_t>(displs[r]);
    for (int k = 0; k < hdrs[3 * r]; ++k)
      layout.owned[r].push_back(from_wire(all[cursor++]));
    for (int k = 0; k < hdrs[3 * r + 1]; ++k)
      layout.needed[r].push_back(from_wire(all[cursor++]));
  }
  return layout;
}

// --- point-to-point tag space ------------------------------------------------
//
// The fused-lane executor derives its tags from a per-call epoch, so its tag
// use is budgeted against mpi::tag_upper_bound (minimpi's documented user-tag
// ceiling) instead of silently wrapping into other traffic. Five fixed
// windows of W = kP2pEpochWindow tags each, for epoch e in [0, W):
//
//   done token (fault path, zero-byte)    : kP2pTagBase + 0*W + e
//   retry request (fault path, zero-byte) : kP2pTagBase + 1*W + e
//   fused lane payload                    : kP2pTagBase + 2*W + e
//   intra-node pointer publish            : kP2pTagBase + 3*W + e
//   intra-node copy ack                   : kP2pTagBase + 4*W + e
//
// Each peer pair exchanges at most one lane (one pointer and one ack for an
// intra-node lane) per epoch, whatever the round or wave count, so the
// layout does not depend on the mapping and the ceiling is checked at
// compile time. Epochs scope one redistribute() call's traffic: re-sent or
// duplicated messages of one call can never be mistaken for another call's
// (the window would have to wrap within W in-flight calls, and the fault
// path drains its windows before and after use).

/// Tag base for the point-to-point traffic, chosen high so it cannot collide
/// with typical application tags.
constexpr int kP2pTagBase = 0x2DD70;
/// Number of concurrent redistribute() epochs the tag space distinguishes.
constexpr int kP2pEpochWindow = 4096;

enum P2pWindow : int {
  kDoneWindow,
  kRetryWindow,
  kLaneWindow,
  kIntraPtrWindow,
  kIntraAckWindow,
  kP2pWindows,
};
static_assert(kP2pTagBase + kP2pEpochWindow * kP2pWindows - 1 <
                  mpi::tag_upper_bound,
              "the point-to-point tag windows exceed the runtime tag ceiling");

constexpr int p2p_tag(P2pWindow window, int epoch) {
  return kP2pTagBase + kP2pEpochWindow * window + epoch;
}

// --- fail-safe collective error agreement ------------------------------------
//
// Precondition failures detected by one rank (a short buffer, a bad local
// declaration) must not strand the other ranks inside a half-entered
// collective. Before any data moves, every rank contributes its local
// precondition verdict to an allreduce(max); if any rank failed, EVERY rank
// throws the same descriptive Error naming the failing rank.

enum PrecondCode : int {
  kPrecondOk = 0,
  kPrecondEmptyNeeded = 1,
  kPrecondMixedLocalDims = 2,
  kPrecondUnsupportedDims = 3,
  kPrecondNotSetup = 4,
  kPrecondOwnedBufferShort = 5,
  kPrecondNeededBufferShort = 6,
};

std::string precond_message(int code, int rank) {
  const std::string who = "rank " + std::to_string(rank);
  switch (code) {
    case kPrecondEmptyNeeded:
      return "setup: " + who + " declared no needed chunk (need at least one)";
    case kPrecondMixedLocalDims:
      return "setup: " + who +
             " declared owned and needed chunks of different dimensionality";
    case kPrecondUnsupportedDims:
      return "setup: " + who +
             " declared chunks outside the supported 1D/2D/3D range";
    case kPrecondNotSetup:
      return "redistribute: " + who + " has no mapping (call setup() first)";
    case kPrecondOwnedBufferShort:
      return "redistribute: " + who +
             "'s owned buffer is smaller than its layout requires";
    case kPrecondNeededBufferShort:
      return "redistribute: " + who +
             "'s needed buffer is smaller than its layout requires";
    default:
      return "precondition failure on " + who;
  }
}

/// Encodes (code, rank) so that allreduce(max) surfaces the worst failure
/// deterministically: any failure beats OK, higher codes beat lower, and the
/// highest failing rank breaks ties — identically on every rank.
std::int64_t encode_precond(int code, int rank) {
  if (code == kPrecondOk) return 0;
  return (static_cast<std::int64_t>(code) << 32) |
         static_cast<std::uint32_t>(rank);
}

/// Collective. Agrees on the worst precondition failure across the
/// communicator and throws the same Error on every rank if there is one.
void agree_preconditions(const mpi::Comm& comm, int code) {
  const std::int64_t mine = encode_precond(code, comm.rank());
  std::int64_t worst = 0;
  comm.allreduce(&mine, &worst, 1, mpi::Datatype::of<std::int64_t>(),
                 mpi::Op::max<std::int64_t>());
  if (worst == 0) return;
  const int worst_code = static_cast<int>(worst >> 32);
  const int worst_rank = static_cast<int>(worst & 0xffffffff);
  throw Error(precond_message(worst_code, worst_rank));
}

}  // namespace

Redistributor::Redistributor(mpi::Comm comm, std::size_t elem_size)
    : comm_(std::move(comm)), elem_size_(elem_size) {
  require(comm_.valid(), "Redistributor: invalid communicator");
  require(elem_size_ > 0 && elem_size_ <= kMaxElemSize,
          "Redistributor: element size must be in [1, 2^31)");
}

void Redistributor::setup(const OwnedLayout& owned, const Chunk& needed,
                          const SetupOptions& options) {
  setup(owned, NeededLayout{needed}, options);
}

void Redistributor::setup(const OwnedLayout& owned, const NeededLayout& needed,
                          const SetupOptions& options) {
  // Whatever mapping an earlier setup() left is void from here on: if this
  // one throws, redistribute() must fail on every rank, not move the data
  // by the old mapping.
  setup_done_ = false;
  const int p = comm_.size();
  options_ = options;
  // Route events to the attached sink for the duration of this call (or keep
  // the ambient recorder when no sink is set).
  trace::ScopedRecorder traced(trace_ != nullptr ? trace_ : trace::current());
  DDR_TRACE_SPAN(
      tspan, "ddr.setup",
      trace::Keys{.comm = static_cast<std::int64_t>(comm_.trace_id()),
                  .value = static_cast<std::int64_t>(options.backend)});

  // 0. Local preconditions. With collective_error_agreement the verdict is
  // agreed before anyone proceeds, so a single rank's bad declaration cannot
  // strand the others in the allgather below.
  int code = kPrecondOk;
  int nd = 0;
  if (needed.empty()) {
    code = kPrecondEmptyNeeded;
  } else {
    nd = needed.front().ndims;
    for (const auto& c : owned)
      if (c.ndims != nd) code = kPrecondMixedLocalDims;
    for (const auto& c : needed)
      if (c.ndims != nd) code = kPrecondMixedLocalDims;
    if (code == kPrecondOk && (nd < 1 || nd > kMaxDims))
      code = kPrecondUnsupportedDims;
  }
  if (options.collective_error_agreement) {
    agree_preconditions(comm_, code);
  } else if (code != kPrecondOk) {
    throw Error(precond_message(code, comm_.rank()));
  }

  {
    // 1-3. Share everyone's chunk geometry and reassemble the global layout
    // (identical on every rank).
    DDR_TRACE_SPAN(xspan, "ddr.setup.exchange");
    layout_ = gather_layout(comm_, "setup", elem_size_, owned, needed);
  }

  // 4. Cross-rank checks. Every rank checked its own declarations above,
  // but mixed dimensionality ACROSS ranks would silently produce a garbage
  // GlobalLayout (a 1D box and a 2D box intersect meaninglessly), and a
  // negative extent would wrap the byte counts. Zero extents are legal. The
  // checks run on the allgathered layout, which is identical everywhere,
  // so all ranks throw the identical error.
  for (int r = 0; r < p; ++r) {
    const auto ri = static_cast<std::size_t>(r);
    for (const bool is_owned : {true, false}) {
      const std::vector<Chunk>& chunks =
          is_owned ? layout_.owned[ri] : layout_.needed[ri];
      for (std::size_t k = 0; k < chunks.size(); ++k) {
        const std::string defect = chunk_defect(chunks[k], nd);
        if (!defect.empty())
          throw Error("setup: rank " + std::to_string(r) + "'s " +
                      (is_owned ? "owned" : "needed") + " chunk " +
                      std::to_string(k) + " " + defect);
      }
    }
  }

  // 5. Enforce the paper's send-side contract.
  {
    DDR_TRACE_SPAN(vspan, "ddr.setup.validate");
    const LayoutValidation v = validate_owned(layout_);
    if (!v.ok())
      throw Error("setup: owned layout violates the DDR contract — " +
                  v.detail);
  }

  finish_setup();
}

void Redistributor::finish_setup() {
  // 6. Geometry -> the fused lanes (built for every backend:
  // fused_lane_count() reports them), the schedule statistics and, from the
  // same fold, the exchange's non-self lanes the planner schedules. Only
  // alltoallw gets per-round plans: the fused-lane executor would leave
  // them unused, yet their payloads would cost every rank, since the
  // communicator's pool is shared.
  mapping_ = build_mapping(layout_, comm_.rank(), elem_size_);
  std::vector<ExchangeLane> lanes;
  stats_ = compute_stats(layout_, elem_size_, &lanes);
  resolved_backend_ = options_.backend == Backend::automatic
                          ? Backend::point_to_point_pipelined
                          : options_.backend;
  const bool per_round = resolved_backend_ == Backend::alltoallw;
  rounds_ = per_round ? build_round_plans(layout_, comm_.rank(), elem_size_)
                      : std::vector<RoundPlan>{};

  // 6b. Classify the fused lanes by locality (see LaneClass). For the
  // fused-lane executor, rebuild the send lane of every intra-node peer that
  // sends to this rank: the receiver executes the lane zero-copy by reading
  // the sender's owned buffer through the sender's own lane type, which the
  // allgathered layout determines, so no extra communication. Without a
  // NetworkModel same_node() is false for every peer and this reduces to
  // the flat exchange (all non-self lanes inter, intra_recv_ empty).
  auto classify = [&](int peer) {
    if (peer == mapping_.rank) return LaneClass::self;
    return comm_.same_node(peer) ? LaneClass::intra : LaneClass::inter;
  };
  fused_send_class_.clear();
  fused_recv_class_.clear();
  intra_recv_.clear();
  for (const PeerLane& l : mapping_.fused_send)
    fused_send_class_.push_back(classify(l.peer));
  for (const PeerLane& l : mapping_.fused_recv) {
    const LaneClass cls = classify(l.peer);
    fused_recv_class_.push_back(cls);
    if (per_round || cls != LaneClass::intra) continue;
    PeerLane peer_lane =
        build_peer_send_lane(layout_, l.peer, mapping_.rank, elem_size_);
    if (peer_lane.peer != mapping_.rank)
      throw Error("setup: internal error — intra-node recv lane from rank " +
                  std::to_string(l.peer) + " has no matching send lane");
    intra_recv_.push_back({l.peer, peer_lane.displ, std::move(peer_lane.type),
                           l.displ, l.type, l.bytes});
  }

  // 6c. Plan: the fused-lane executor's lowering, which Backend::automatic
  // resolves to, over the lanes of the fold above. Everything it depends on
  // (the allgathered layout, the run-wide NetworkModel, the world-rank node
  // mapping) is identical on every rank, so the waves and the completion
  // order are identical on every rank with no extra communication.
  std::vector<int> world_ranks(static_cast<std::size_t>(mapping_.nranks));
  for (int r = 0; r < mapping_.nranks; ++r)
    world_ranks[static_cast<std::size_t>(r)] = comm_.world_rank(r);
  Plan plan;
  {
    DDR_TRACE_SPAN(dspan, "ddr.plan.decide");
    plan = Planner::decide(lanes, comm_.network_model(),
                           options_.peak_staging_bytes, &world_ranks);
    plan_ = plan.decision;
    DDR_TRACE_INSTANT("ddr.plan.decision",
                      {.value = static_cast<std::int64_t>(resolved_backend_)});
  }

  // 6d. Lowering table of the fused-lane executor: its inter-node lanes
  // grouped by wave, send lanes in the order they are posted — ascending
  // peer order under the post-all discipline, the shifted order under the
  // pipeline (plan_.post_all). The waves are the planner's global
  // inter-lane schedule under the staging budget (one wave without one),
  // derived from the allgathered layout, so a lane moves in the same wave on
  // its sender and receiver. Intra lanes move zero-copy outside the waves
  // and never count against the budget.
  send_waves_.clear();
  recv_waves_.clear();
  if (!per_round) {
    const auto p = static_cast<std::size_t>(mapping_.nranks);
    std::vector<int> send_wave(p, 0), recv_wave(p, 0);  // by peer
    for (const ExchangeLane& l : plan.inter_lanes) {
      if (l.sender == mapping_.rank)
        send_wave[static_cast<std::size_t>(l.receiver)] = l.wave;
      if (l.receiver == mapping_.rank)
        recv_wave[static_cast<std::size_t>(l.sender)] = l.wave;
    }
    send_waves_.resize(static_cast<std::size_t>(plan_.waves));
    recv_waves_.resize(static_cast<std::size_t>(plan_.waves));
    // Classic shifted schedule: rank r posts its successor peer's lane
    // first, wrapping, so no single mailbox is hammered by every sender at
    // once (fused lanes are sorted by peer).
    const std::vector<PeerLane>& sends = mapping_.fused_send;
    std::size_t first = 0;
    if (!plan_.post_all)
      while (first < sends.size() && sends[first].peer <= mapping_.rank)
        ++first;
    for (std::size_t n = 0; n < sends.size(); ++n) {
      const std::size_t i = (first + n) % sends.size();
      if (fused_send_class_[i] != LaneClass::inter) continue;
      const auto peer = static_cast<std::size_t>(sends[i].peer);
      send_waves_[static_cast<std::size_t>(send_wave[peer])].push_back(i);
    }
    for (std::size_t i = 0; i < mapping_.fused_recv.size(); ++i) {
      if (fused_recv_class_[i] != LaneClass::inter) continue;
      const auto peer = static_cast<std::size_t>(mapping_.fused_recv[i].peer);
      recv_waves_[static_cast<std::size_t>(recv_wave[peer])].push_back(i);
    }
  }

  // 7. Compile for the executor that runs, so no redistribute() call ever
  // pays the flattening cost: alltoallw's non-empty per-round lanes, or the
  // fused lanes plus the sender-side type of each intra-node recv lane.
  {
    DDR_TRACE_SPAN(pspan, "ddr.mapping.precompile");
    if (per_round) {
      for (const RoundPlan& rp : rounds_)
        for (std::size_t q = 0; q < rp.sendtypes.size(); ++q) {
          if (rp.sendcounts[q] > 0) rp.sendtypes[q].precompile();
          if (rp.recvcounts[q] > 0) rp.recvtypes[q].precompile();
        }
    } else {
      for (const PeerLane& l : mapping_.fused_send) l.type.precompile();
      for (const PeerLane& l : mapping_.fused_recv) l.type.precompile();
      for (const IntraRecv& ir : intra_recv_) ir.peer_type.precompile();
    }
  }

  // Prewarm the staging pool with this rank's peak concurrent send set:
  // every payload can be in flight at once, since the fused-lane executor
  // posts all of a wave's sends before completing its receives, and
  // reserving every lane's full payload is conservative across any wave
  // schedule. Receivers reuse the sender-acquired buffers, so once every
  // rank has planted its own send sizes, steady-state redistribute() calls
  // never heap-allocate staging storage (the zero-allocation contract the
  // JSON bench and CI assert).
  DDR_TRACE_SPAN(rspan, "ddr.setup.reserve_staging");
  std::vector<std::size_t> send_bytes;
  if (per_round) {
    const auto self = static_cast<std::size_t>(mapping_.rank);
    for (const RoundPlan& rp : rounds_)
      for (std::size_t q = 0; q < rp.sendcounts.size(); ++q)
        if (rp.sendcounts[q] > 0 && q != self)
          send_bytes.push_back(static_cast<std::size_t>(rp.sendcounts[q]) *
                               rp.sendtypes[q].size());
  } else {
    // Intra-node lanes publish an 8-byte owned-buffer pointer instead of a
    // payload (the ack is zero-byte, poolless) — except on the fault path,
    // where every non-self lane moves as a payload.
    const bool payloads = comm_.fault_injection_active();
    for (std::size_t i = 0; i < mapping_.fused_send.size(); ++i) {
      const LaneClass cls = fused_send_class_[i];
      if (cls == LaneClass::self) continue;
      send_bytes.push_back(cls == LaneClass::intra && !payloads
                               ? sizeof(std::uintptr_t)
                               : mapping_.fused_send[i].type.size());
    }
  }
  comm_.reserve_staging(send_bytes);

  p2p_epoch_ = 0;
  setup_done_ = true;
}

void Redistributor::rebuild(mpi::Comm comm, const OwnedLayout& owned,
                            const NeededLayout& needed,
                            const SetupOptions& options) {
  require(comm.valid(), "rebuild: invalid communicator");
  comm_ = std::move(comm);
  setup(owned, needed, options);
}

void Redistributor::rebuild(mpi::Comm comm, const OwnedLayout& owned,
                            const Chunk& needed, const SetupOptions& options) {
  rebuild(std::move(comm), owned, NeededLayout{needed}, options);
}

void Redistributor::rebuild(const OwnedLayout& owned,
                            const NeededLayout& needed) {
  rebuild(comm_.shrink(), owned, needed, options_);
}

void Redistributor::rebuild(const OwnedLayout& owned, const Chunk& needed) {
  rebuild(owned, NeededLayout{needed});
}

// --- elastic resize ----------------------------------------------------------

Redistributor::TransferResult Redistributor::resize_transfer(
    const mpi::Comm& tcomm, int new_members, std::size_t elem_size,
    const OwnedLayout& my_owned, std::span<const std::byte> owned_data,
    const std::function<void(const char*)>& phase_hook) {
  TransferResult res;
  try {
    if (phase_hook) phase_hook("plan");
    const int p = tcomm.size();
    const int me = tcomm.rank();
    ResizePlan plan;
    {
      DDR_TRACE_SPAN(
          pspan, "ddr.resize.plan",
          trace::Keys{.comm = static_cast<std::int64_t>(tcomm.trace_id()),
                      .value = new_members});

      // Share the chunks each member held before the resize (joiners
      // contribute none).
      const std::vector<OwnedLayout> old_owned =
          gather_layout(tcomm, "resize", elem_size, my_owned, {}).owned;

      // Every member derives the identical balanced target layout and the
      // identical old->new transition — no negotiation messages. Under a
      // NetworkModel the proposal is node-aware: donated bytes prefer
      // receivers on the donor's node, so the transfer's moved bytes lean
      // intra-node (zero-copy under the fused-lane executor) without
      // changing how many bytes move. The node map derives from the shared
      // model + world-rank mapping, so it is identical on every member.
      std::vector<int> member_node;
      if (const mpi::NetworkModel* net = tcomm.network_model()) {
        member_node.reserve(static_cast<std::size_t>(p));
        for (int r = 0; r < p; ++r)
          member_node.push_back(net->node_of(tcomm.world_rank(r)));
      }
      std::vector<OwnedLayout> proposed = propose_resize_layout(
          old_owned, new_members,
          member_node.empty() ? nullptr : &member_node);
      plan = plan_resize(old_owned, proposed, elem_size);
      res.stats = plan.stats;
      if (me < new_members)
        res.new_owned = std::move(proposed[static_cast<std::size_t>(me)]);
    }

    if (phase_hook) phase_hook("transfer");
    {
      DDR_TRACE_SPAN(
          xspan, "ddr.resize.transfer",
          trace::Keys{.comm = static_cast<std::int64_t>(tcomm.trace_id()),
                      .bytes = plan.stats.moved_bytes});
      // Compile the transition with the regular quad machinery and run it
      // into a private staging buffer; the data a member keeps moves through
      // the self lane (copy_regions, no message). The transition has empty
      // needed sides for retiring members and — after a rolled-back attempt
      // in which a data-holding member died — an owned side with holes, so
      // the public setup(), with its preconditions and its owned-layout
      // validation, is skipped on purpose. Under an active FaultModel the
      // fused-lane executor runs its per-lane retry protocol, which fails
      // fast when a peer dies mid-exchange.
      Redistributor trans(tcomm, elem_size);
      trans.options_.backend = Backend::point_to_point_pipelined;
      trans.options_.collective_error_agreement = false;
      trans.layout_ = plan.transition;
      trans.finish_setup();
      res.data.resize(trans.needed_bytes());
      trans.redistribute(owned_data, std::span<std::byte>(res.data));
    }
    res.ok = true;
  } catch (const std::runtime_error& e) {
    // Both mpi::Error and ddr::Error. Captured, not rethrown: the commit
    // vote below turns a one-member failure into a collective rollback
    // instead of a one-sided abort. (The runtime's kill signal is not an
    // exception type and unwinds through untouched.)
    res.ok = false;
    res.error = e.what();
  }
  return res;
}

mpi::Comm Redistributor::rollback_rendezvous(const mpi::Comm& tcomm,
                                             bool is_old) {
  DDR_TRACE_INSTANT("ddr.resize.rollback",
                    {.comm = static_cast<std::int64_t>(tcomm.trace_id())});
  // Heal around the casualty of the failed attempt, then retire the
  // attempt's joiners: the surviving pre-resize members form a prefix of the
  // healed communicator (resize() placed them before the joiners and
  // shrink() preserves order), so resizing down to their count keeps exactly
  // them — and their data never moved, so the pre-resize state is intact.
  mpi::Comm healed = tcomm.shrink();
  const int mine = is_old ? 1 : 0;
  int n_old = 0;
  healed.allreduce(&mine, &n_old, 1, mpi::Datatype::of<int>(),
                   mpi::Op::sum<int>());
  require(n_old >= 1,
          "resize: every pre-resize member died mid-resize — the data is "
          "lost and there is no layout to roll back to");
  if (healed.size() == n_old) return healed;
  return healed.resize(n_old);
}

ResizeOutcome Redistributor::resize_rebalance(int new_size,
                                              const OwnedLayout& owned,
                                              std::span<const std::byte> owned_data,
                                              const ResizeOptions& options) {
  require(new_size >= 1, "resize_rebalance: new size must be at least 1");
  require(options.max_attempts >= 1,
          "resize_rebalance: max_attempts must be at least 1");
  trace::ScopedRecorder traced(trace_ != nullptr ? trace_ : trace::current());
  DDR_TRACE_SPAN(tspan, "ddr.resize",
                 trace::Keys{.comm = static_cast<std::int64_t>(comm_.trace_id()),
                             .value = new_size});

  ResizeOutcome out;
  mpi::Comm cur = comm_;
  for (int attempt = 1;; ++attempt) {
    out.attempts = attempt;
    if (options.phase_hook) options.phase_hook("rendezvous");
    // Heal around any already-dead ranks; the fresh child communicator also
    // gives the transfer a pristine tag space. Growing activates dormant
    // ranks, which enter resize_join() through RunOptions::joiner_main.
    mpi::Comm base = cur.shrink();
    const int live = base.size();
    int target = new_size;
    if (target > live) target = std::min(target, live + base.spawnable_ranks());
    mpi::Comm tcomm = target > live ? base.resize(target) : base;

    TransferResult t = resize_transfer(tcomm, target, elem_size_, owned,
                                       owned_data, options.phase_hook);

    if (options.phase_hook) options.phase_hook("commit");
    bool committed = false;
    {
      DDR_TRACE_SPAN(
          cspan, "ddr.resize.commit",
          trace::Keys{.comm = static_cast<std::int64_t>(tcomm.trace_id()),
                      .value = t.ok ? 1 : 0});
      // The commit point. agree() proves every member reached the vote and
      // voted yes — a member that died anywhere before this line forces 0 on
      // every survivor, so no member can apply a layout another rolled back.
      committed = (tcomm.agree(t.ok ? 1u : 0u) & 1u) == 1u;
    }

    if (committed) {
      // A committed shrink still has its retiring members in tcomm; the
      // resize retires them (they observe retired == true). A grow already
      // has exactly the target membership.
      mpi::Comm final_comm =
          tcomm.size() == target ? std::move(tcomm) : tcomm.resize(target);
      comm_ = final_comm;
      setup_done_ = false;  // the old mapping does not span the new comm
      out.retired = !final_comm.valid();
      out.comm = std::move(final_comm);
      out.owned = std::move(t.new_owned);
      out.data = std::move(t.data);
      out.stats = t.stats;
      out.committed = true;
      return out;
    }

    ++out.rollbacks;
    cur = rollback_rendezvous(tcomm, /*is_old=*/true);
    comm_ = cur;
    require(attempt < options.max_attempts,
            "resize_rebalance: no attempt committed after " +
                std::to_string(attempt) + " attempt(s) — last failure: " +
                (t.error.empty() ? std::string("a peer voted to roll back")
                                 : t.error));
    DDR_TRACE_INSTANT("ddr.resize.retry", {.value = attempt});
  }
}

ResizeOutcome Redistributor::resize_join(const mpi::Comm& comm,
                                         std::size_t elem_size,
                                         const ResizeOptions& options) {
  require(comm.valid(), "resize_join: invalid communicator");
  require(elem_size > 0 && elem_size <= kMaxElemSize,
          "resize_join: element size must be in [1, 2^31)");
  DDR_TRACE_SPAN(tspan, "ddr.resize",
                 trace::Keys{.comm = static_cast<std::int64_t>(comm.trace_id()),
                             .value = comm.size()});

  ResizeOutcome out;
  out.attempts = 1;
  TransferResult t = resize_transfer(comm, comm.size(), elem_size,
                                     OwnedLayout{}, {}, options.phase_hook);

  if (options.phase_hook) options.phase_hook("commit");
  bool committed = false;
  {
    DDR_TRACE_SPAN(
        cspan, "ddr.resize.commit",
        trace::Keys{.comm = static_cast<std::int64_t>(comm.trace_id()),
                    .value = t.ok ? 1 : 0});
    committed = (comm.agree(t.ok ? 1u : 0u) & 1u) == 1u;
  }

  if (committed) {
    out.comm = comm;
    out.owned = std::move(t.new_owned);
    out.data = std::move(t.data);
    out.stats = t.stats;
    out.committed = true;
    return out;
  }

  // A rolled-back joiner retires: it never held data, and the surviving
  // pre-resize members retry with freshly spawned ranks.
  ++out.rollbacks;
  out.comm = rollback_rendezvous(comm, /*is_old=*/false);
  out.retired = !out.comm.valid();
  return out;
}

void Redistributor::redistribute(std::span<const std::byte> owned_data,
                                 std::span<std::byte> needed_data) const {
  trace::ScopedRecorder traced(trace_ != nullptr ? trace_ : trace::current());
  DDR_TRACE_SPAN(
      tspan, "ddr.redistribute",
      trace::Keys{.comm = static_cast<std::int64_t>(comm_.trace_id())});
  int code = kPrecondOk;
  if (!setup_done_)
    code = kPrecondNotSetup;
  else if (owned_data.size() < mapping_.owned_bytes)
    code = kPrecondOwnedBufferShort;
  else if (needed_data.size() < mapping_.needed_bytes)
    code = kPrecondNeededBufferShort;

  if (options_.collective_error_agreement) {
    agree_preconditions(comm_, code);
  } else if (code != kPrecondOk) {
    throw Error(precond_message(code, comm_.rank()));
  }

  if (resolved_backend_ == Backend::alltoallw) {
    execute_alltoallw(owned_data, needed_data);
  } else if (comm_.fault_injection_active()) {
    // A dropped lane would strand the happy path's completion wait and its
    // wave barriers, so under a FaultModel the lanes move through the
    // receiver-driven retry protocol instead.
    execute_p2p_reliable(owned_data, needed_data);
  } else {
    execute_p2p_pipelined(owned_data, needed_data);
  }
}

Backend Redistributor::effective_backend() const {
  return setup_done_ ? resolved_backend_ : options_.backend;
}

void Redistributor::execute_alltoallw(std::span<const std::byte> owned_data,
                                      std::span<std::byte> needed_data) const {
  // One MPI_Alltoallw per round; the number of rounds equals the maximum
  // number of chunks owned by any one process (paper §III-C).
  const auto self = static_cast<std::size_t>(mapping_.rank);
  const int nrounds = static_cast<int>(rounds_.size());
  for (int k = 0; k < nrounds; ++k) {
    const RoundPlan& rp = rounds_[static_cast<std::size_t>(k)];
    DDR_TRACE_SPAN(rspan, "ddr.round", trace::Keys{.round = k});
    // Per-lane message instants for the logical (non-self, non-empty)
    // transfers this round moves, mirroring the fused-lane executor's so
    // traced bytes are comparable across both.
    for (int q = 0; q < mapping_.nranks; ++q) {
      const auto qi = static_cast<std::size_t>(q);
      if (rp.recvcounts[qi] > 0 && qi != self)
        DDR_TRACE_INSTANT(
            "ddr.msg.recv",
            {.round = k,
             .peer = q,
             .bytes = static_cast<std::int64_t>(
                 static_cast<std::size_t>(rp.recvcounts[qi]) *
                 rp.recvtypes[qi].size())});
      if (rp.sendcounts[qi] > 0 && qi != self)
        DDR_TRACE_INSTANT(
            "ddr.msg.send",
            {.round = k,
             .peer = q,
             .bytes = static_cast<std::int64_t>(
                 static_cast<std::size_t>(rp.sendcounts[qi]) *
                 rp.sendtypes[qi].size())});
    }
    comm_.alltoallw(owned_data.data(), rp.sendcounts, rp.sdispls, rp.sendtypes,
                    needed_data.data(), rp.recvcounts, rp.rdispls,
                    rp.recvtypes);
  }
}

int Redistributor::fused_lane_count(LaneClass cls) const {
  int n = 0;
  for (const LaneClass c : fused_send_class_)
    if (c == cls) ++n;
  return n;
}

void Redistributor::execute_p2p_pipelined(
    std::span<const std::byte> owned_data,
    std::span<std::byte> needed_data) const {
  // The fused-lane executor. Each peer's lane — all of the pair's
  // transfers, every round's included — moves under the lowering its
  // LaneClass admits: the self lane is a copy_regions, intra-node lanes are
  // copied zero-copy straight out of the same-node sender's owned buffer
  // through a published pointer, and inter-node lanes go through the
  // staging pool under the completion discipline setup() fixed for every
  // rank (plan_.post_all):
  //
  //  * post-all, when every inter lane is below kPostAllLaneBytes:
  //    the receive window is posted, the lanes are sent in ascending peer
  //    order, and one wait_all completes them in posting order. Packing a
  //    small lane costs less than polling the outstanding receives between
  //    sends would, so there is no overlap to buy.
  //  * pipeline: the receive window is posted BEFORE any byte is packed,
  //    sends stream lane-by-lane through the staging pool in shifted order,
  //    the receives that landed meanwhile are drained between sends, and
  //    the rest complete out-of-order with wait_any, each lane unpacked the
  //    moment it lands instead of behind a wait_all fence. Total latency
  //    approaches the max per-peer transfer time, and a slow peer no longer
  //    blocks unpacking of the lanes that already arrived.
  //
  // Either way the lock-step round barrier the paper's alltoallw implies
  // (§III-C) is gone. The inter lanes run once per wave of the lowering
  // table (one wave without a staging budget). Under
  // SetupOptions::peak_staging_bytes a barrier closes each wave: every
  // wave-w payload has been received, and its staging returned, before any
  // rank packs a wave-(w+1) byte, so the pool's live bytes never exceed the
  // largest wave plus the intra lanes' published pointers.
  //
  // Deadlock freedom: sends and pointer publications are buffered-eager
  // (they never block), and every rank publishes its intra pointers and
  // posts its wave-0 sends before its first blocking call, so the intra
  // copies (wave 0) and every wave's receives are satisfied by messages
  // already in flight; a wave's barrier is reached by each rank once its
  // own receives of that wave are complete, which depends only on sends
  // its peers post before they block in the same wave. The intra acks are
  // drained after the last wave — the owned buffer is const here, so the
  // sender's memory is stable for the whole call.
  const int epoch = static_cast<int>(p2p_epoch_++ % kP2pEpochWindow);
  const int tag = p2p_tag(kLaneWindow, epoch);
  const int ptr_tag = p2p_tag(kIntraPtrWindow, epoch);
  const int ack_tag = p2p_tag(kIntraAckWindow, epoch);
  const bool fenced = options_.peak_staging_bytes > 0;
  const std::vector<PeerLane>& sends = mapping_.fused_send;

  for (std::size_t w = 0; w < send_waves_.size(); ++w) {
    reqs_.clear();
    recv_meta_.clear();
    // Phase 1: post this wave's inter-node receive window. The number of
    // outstanding receives (the pipeline depth) is recorded as an instant.
    {
      DDR_TRACE_SPAN(pspan, "ddr.pipeline.post");
      for (const std::size_t i : recv_waves_[w]) {
        const PeerLane& l = mapping_.fused_recv[i];
        recv_meta_.push_back({l.peer, l.bytes});
        reqs_.push_back(comm_.irecv(needed_data.data() + l.displ, 1, l.type,
                                    l.peer, tag));
      }
      DDR_TRACE_INSTANT("ddr.pipeline.depth",
                        {.value = static_cast<std::int64_t>(reqs_.size())});
    }
    // Owned-buffer pointers go to intra peers before anything blocks, so no
    // receiver can wait on a pointer its sender has not yet sent.
    if (w == 0) {
      const auto ptr = reinterpret_cast<std::uintptr_t>(owned_data.data());
      for (std::size_t i = 0; i < sends.size(); ++i) {
        if (fused_send_class_[i] != LaneClass::intra) continue;
        DDR_TRACE_INSTANT("ddr.intra.publish",
                          {.peer = sends[i].peer, .bytes = sends[i].bytes});
        comm_.send(&ptr, 1, mpi::Datatype::of<std::uintptr_t>(),
                   sends[i].peer, ptr_tag);
      }
    }
    std::size_t nrecv_left = reqs_.size();
    const std::span<mpi::Request> recvs(reqs_.data(), reqs_.size());
    // The recv instant of lane i, emitted at COMPLETION time, which is what
    // makes out-of-order arrival visible in the Chrome trace.
    auto trace_recv = [&](std::size_t i) {
      DDR_TRACE_INSTANT("ddr.msg.recv", {.peer = recv_meta_[i].peer,
                                         .bytes = recv_meta_[i].bytes});
    };

    // Completes every receive that has already landed, without blocking.
    // wait_any-style completion invalidates the request, so each lane is
    // counted exactly once.
    auto drain_ready = [&] {
      for (std::size_t i = 0; i < recvs.size() && nrecv_left > 0; ++i) {
        if (!recvs[i].valid()) continue;
        if (recvs[i].test()) {
          --nrecv_left;
          trace_recv(i);
        }
      }
    };

    // Phase 2: send this wave's lanes one at a time in the order of the
    // lowering table. Each pack span covers one peer's pack + post. Under
    // the pipeline, whatever landed between two lanes is drained and
    // unpacked — overlap, not a barrier: nothing here waits.
    for (const std::size_t i : send_waves_[w]) {
      const PeerLane& l = sends[i];
      {
        DDR_TRACE_SPAN(kspan, "ddr.pipeline.pack", trace::Keys{.peer = l.peer});
        DDR_TRACE_INSTANT("ddr.msg.send", {.peer = l.peer, .bytes = l.bytes});
        // Sends are buffered-eager: the request is born complete, so only
        // the receive window in reqs_ ever needs waiting on.
        comm_.isend(owned_data.data() + l.displ, 1, l.type, l.peer, tag);
      }
      if (!plan_.post_all) drain_ready();
    }
    if (w == 0) {
      copy_self_lane(owned_data, needed_data);
      // Intra lanes: copy straight out of each same-node sender's owned
      // buffer, then ack so the sender may return. The mailbox handoff
      // orders the sender's writes of its owned buffer before this read (they
      // happen-before the pointer message), and the ack orders this copy
      // before anything the sender does after draining its acks — that
      // pair is what makes the shared-memory read race-free.
      for (const IntraRecv& ir : intra_recv_) {
        std::uintptr_t ptr = 0;
        comm_.recv(&ptr, 1, mpi::Datatype::of<std::uintptr_t>(), ir.peer,
                   ptr_tag);
        {
          DDR_TRACE_SPAN(ispan, "ddr.intra.copy",
                         trace::Keys{.peer = ir.peer, .bytes = ir.bytes});
          mpi::copy_regions(
              ir.peer_type,
              reinterpret_cast<const std::byte*>(ptr) + ir.peer_displ, 1,
              ir.my_type, needed_data.data() + ir.my_displ, 1);
        }
        comm_.send(nullptr, 0, mpi::Datatype::bytes(1), ir.peer, ack_tag);
      }
    }

    // Phase 3: complete the remaining receives.
    if (plan_.post_all) {
      DDR_TRACE_SPAN(wspan, "ddr.wait_all");
      mpi::wait_all(recvs);
      for (std::size_t i = 0; i < recvs.size(); ++i) trace_recv(i);
    } else {
      // Strictly in arrival order: wait_any sleeps on the mailbox until
      // one of the outstanding lanes lands.
      DDR_TRACE_SPAN(cspan, "ddr.pipeline.complete");
      for (; nrecv_left > 0; --nrecv_left)
        trace_recv(mpi::wait_any(recvs).first);
    }
    if (fenced) comm_.barrier();
  }
  // Every intra receiver has finished reading this rank's owned buffer.
  for (std::size_t i = 0; i < sends.size(); ++i)
    if (fused_send_class_[i] == LaneClass::intra)
      comm_.recv(nullptr, 0, mpi::Datatype::bytes(1), sends[i].peer,
                 ack_tag);
  reqs_.clear();
  recv_meta_.clear();
}

void Redistributor::copy_self_lane(std::span<const std::byte> owned_data,
                                   std::span<std::byte> needed_data) const {
  // The fused send and recv types of the self lane cover the same bytes in
  // the same (round, needed-index) order, so they map onto each other
  // directly.
  for (const PeerLane& s : mapping_.fused_send) {
    if (s.peer != mapping_.rank) continue;
    for (const PeerLane& r : mapping_.fused_recv)
      if (r.peer == mapping_.rank)
        mpi::copy_regions(s.type, owned_data.data() + s.displ, 1, r.type,
                          needed_data.data() + r.displ, 1);
  }
}

void Redistributor::execute_p2p_reliable(
    std::span<const std::byte> owned_data,
    std::span<std::byte> needed_data) const {
  // The fused-lane executor under an installed FaultModel
  // (Comm::fault_injection_active). The data plane may drop, duplicate or
  // delay messages; the protocol completes bit-identically anyway, or fails
  // the run collectively after a bounded number of retries. The unit of
  // retry is the fused lane: every non-self lane moves as one payload its
  // receiver can re-request — intra-node lanes too, since a fault plan can
  // drop their 8-byte pointer publish just the same — and the self lane is
  // a copy_regions.
  //
  //  * Receiver-driven retry: a receiver that sees no progress for
  //    kRetryTimeout re-requests each still-missing lane from its sender
  //    (zero-byte message); the sender re-posts the lane. Lost retry
  //    requests are themselves retried by the next timeout.
  //    kMaxTransferAttempts bounds the requests per lane; exhaustion
  //    throws, which aborts the run collectively.
  //  * Termination: when a receiver holds the lane from sender q, it sends q
  //    a zero-byte "done" token. A rank exits the exchange when it has all
  //    its lanes AND holds done tokens from every rank it sends to — before
  //    that it keeps servicing retry requests, so no receiver can be
  //    stranded by a sender that finished early. Control messages are
  //    zero-byte: fault plans model them on a lossless control lane (see
  //    simnet::RandomFaultParams::spare_empty_messages).
  //  * Cleanup: a barrier (reliable collective channel) fences the epoch,
  //    then each rank drains its epoch tags, removing duplicated lanes and
  //    stale control messages so no later call can see them.
  using steady = std::chrono::steady_clock;
  constexpr auto kRetryTimeout = std::chrono::milliseconds(20);
  constexpr int kMaxTransferAttempts = 8;
  constexpr auto kPollInterval = std::chrono::microseconds(200);

  const int epoch = static_cast<int>(p2p_epoch_++ % kP2pEpochWindow);
  const int lane_tag = p2p_tag(kLaneWindow, epoch);
  const int retry_tag = p2p_tag(kRetryWindow, epoch);
  const int done_tag = p2p_tag(kDoneWindow, epoch);
  const mpi::Datatype byte = mpi::Datatype::bytes(1);
  // Retry timing makes this path's event stream nondeterministic, so it is
  // outside the golden-trace contract; the span still closes on unwind when
  // retries are exhausted, keeping traces well-formed across failures.
  DDR_TRACE_SPAN(espan, "ddr.exchange.reliable");

  auto drain_epoch = [&] {
    for (const int tag : {done_tag, retry_tag, lane_tag})
      while (auto s = comm_.iprobe(mpi::any_source, tag)) {
        std::vector<std::byte> junk(s->bytes);
        comm_.recv(junk.data(), junk.size(), byte, s->source, tag);
      }
  };

  // The window only wraps after kP2pEpochWindow calls; clear anything a
  // long-past call could have left in this epoch's slots.
  drain_epoch();

  // Expected incoming lanes, their pending receives, and retry budgets.
  struct PendingRecv {
    const PeerLane* lane = nullptr;
    int attempts = 0;
    mpi::Request req;
  };
  std::vector<PendingRecv> pending;
  for (const PeerLane& l : mapping_.fused_recv)
    if (l.peer != mapping_.rank)
      pending.push_back({&l, 0,
                         comm_.irecv(needed_data.data() + l.displ, 1, l.type,
                                     l.peer, lane_tag)});

  auto send_lane = [&](const PeerLane& l) {
    DDR_TRACE_INSTANT("ddr.msg.send", {.peer = l.peer, .bytes = l.bytes});
    comm_.send(owned_data.data() + l.displ, 1, l.type, l.peer, lane_tag);
  };

  // Initial transmission. Every rank this rank sends to owes us a done
  // token before we may leave (we are its retry server until then).
  std::vector<bool> awaiting_done(static_cast<std::size_t>(mapping_.nranks),
                                  false);
  int ndone_awaited = 0;
  for (const PeerLane& l : mapping_.fused_send) {
    if (l.peer == mapping_.rank) continue;
    awaiting_done[static_cast<std::size_t>(l.peer)] = true;
    ++ndone_awaited;
    send_lane(l);
  }
  copy_self_lane(owned_data, needed_data);

  steady::time_point last_progress = steady::now();
  std::size_t npending = pending.size();
  while (npending > 0 || ndone_awaited > 0) {
    bool progressed = false;

    // 1. Complete arrived lanes; each completes its sender's obligation.
    for (PendingRecv& pr : pending) {
      if (!pr.req.valid() || !pr.req.test()) continue;
      progressed = true;
      --npending;
      DDR_TRACE_INSTANT("ddr.msg.recv",
                        {.peer = pr.lane->peer, .bytes = pr.lane->bytes});
      comm_.send(nullptr, 0, byte, pr.lane->peer, done_tag);
    }

    // 2. Serve retry requests: re-post the requested lane.
    while (auto s = comm_.iprobe(mpi::any_source, retry_tag)) {
      comm_.recv(nullptr, 0, byte, s->source, retry_tag);
      for (const PeerLane& l : mapping_.fused_send)
        if (l.peer == s->source) {
          DDR_TRACE_INSTANT("ddr.retry.resend", {.peer = l.peer});
          send_lane(l);
        }
      progressed = true;
    }

    // 3. Collect done tokens from the ranks we send to.
    while (auto s = comm_.iprobe(mpi::any_source, done_tag)) {
      comm_.recv(nullptr, 0, byte, s->source, done_tag);
      const auto si = static_cast<std::size_t>(s->source);
      if (awaiting_done[si]) {
        awaiting_done[si] = false;
        --ndone_awaited;
        progressed = true;
      }
    }

    // 4. On stall, re-request every still-missing lane (bounded), and write
    // off ranks the FaultModel killed: a dead sender will never deliver
    // (fail fast instead of exhausting retries into the void) and a dead
    // receiver will never need our retry service nor send its token.
    if (progressed) {
      last_progress = steady::now();
    } else if (steady::now() - last_progress > kRetryTimeout) {
      const std::vector<int> failed = comm_.failed_ranks();
      auto is_dead = [&](int r) {
        return std::find(failed.begin(), failed.end(), r) != failed.end();
      };
      for (int q = 0; q < mapping_.nranks; ++q) {
        const auto qi = static_cast<std::size_t>(q);
        if (awaiting_done[qi] && is_dead(q)) {
          awaiting_done[qi] = false;
          --ndone_awaited;
        }
      }
      // A receiver that gives up must not strand its live senders: they sit
      // in this same poll loop awaiting our done token, and a polling rank
      // never registers as blocked, so the deadlock watchdog could never
      // fire for them. Hand every sender still owed a token its done before
      // throwing — they drain into the epoch barrier (which IS
      // watchdog-covered) and the failure surfaces through this rank's
      // exception instead of a silent hang.
      auto abort_exchange = [&](const std::string& msg) {
        for (const PendingRecv& pr : pending)
          if (pr.req.valid() && !is_dead(pr.lane->peer))
            comm_.send(nullptr, 0, byte, pr.lane->peer, done_tag);
        require(false, msg);
      };
      for (PendingRecv& pr : pending) {
        if (!pr.req.valid()) continue;
        const int peer = pr.lane->peer;
        if (is_dead(peer))
          abort_exchange(
              "redistribute: rank " + std::to_string(peer) +
              " was killed before delivering its lane to rank " +
              std::to_string(comm_.rank()) +
              " — shrink the communicator and rebuild the mapping "
              "(rebuild(owned, needed) does both in one call)");
        ++pr.attempts;
        if (pr.attempts > kMaxTransferAttempts)
          abort_exchange("redistribute: the lane from rank " +
                         std::to_string(peer) + " to rank " +
                         std::to_string(comm_.rank()) +
                         " is still missing after " +
                         std::to_string(pr.attempts) +
                         " attempts — aborting the exchange");
        DDR_TRACE_INSTANT("ddr.retry.request",
                          {.peer = peer, .value = pr.attempts});
        comm_.send(nullptr, 0, byte, peer, retry_tag);
      }
      last_progress = steady::now();
    }

    // Stay responsive to kill/abort/deadlock while looping, and yield the
    // core (ranks are threads of one process) instead of spinning.
    comm_.checkpoint();
    std::this_thread::sleep_for(kPollInterval);
  }

  // Fence the epoch on the reliable collective channel, then remove this
  // epoch's leftovers (duplicated lanes, redundant retry requests and done
  // tokens). After the barrier no rank can send into this epoch again, so
  // the drain is complete.
  comm_.barrier();
  drain_epoch();
}

}  // namespace ddr
