#include "ddr/mapping.hpp"

#include <algorithm>
#include <array>
#include <iterator>
#include <string>

#include "ddr/error.hpp"
#include "trace/trace.hpp"

namespace ddr {

namespace {

/// Subarray datatype selecting `region` (global coordinates) out of the
/// local array described by `chunk`, of `elem` elements. The chunk's
/// [x, y, z] element order is x-fastest, which is Order::fortran for dims
/// given fastest-first.
mpi::Datatype make_subarray(const Chunk& chunk, const Box& region,
                            const mpi::Datatype& elem) {
  std::array<int, kMaxDims> subsizes{}, starts{};
  const auto nd = static_cast<std::size_t>(chunk.ndims);
  for (std::size_t k = 0; k < nd; ++k) {
    subsizes[k] = static_cast<int>(region.extent(static_cast<int>(k)));
    starts[k] = static_cast<int>(region.lo[k] - chunk.offsets[k]);
  }
  return mpi::Datatype::subarray(std::span(chunk.dims.data(), nd),
                                 std::span(subsizes.data(), nd),
                                 std::span(starts.data(), nd), elem,
                                 mpi::Order::fortran);
}

/// One transfer typed on one end of its lane: its subarray of that end's
/// chunk, the chunk's byte displacement in that end's buffer, and its round.
struct Piece {
  std::ptrdiff_t displ = 0;
  mpi::Datatype type;
  int round = 0;
};

/// Collapses the ordered pieces of one lane into a single datatype +
/// displacement. Multi-piece lanes become a struct of subarrays whose pack
/// order is piece order, so two ends that list a lane's pieces in the
/// join's order pack and unpack the same byte stream.
std::pair<std::ptrdiff_t, mpi::Datatype> collapse(std::vector<Piece> pieces) {
  require(!pieces.empty(), "collapse: no pieces");
  if (pieces.size() == 1) return {pieces[0].displ, pieces[0].type};
  // Normalize displacements relative to the smallest one so the struct's
  // block displacements stay non-negative.
  std::ptrdiff_t base = pieces[0].displ;
  for (const Piece& p : pieces) base = std::min(base, p.displ);
  std::vector<int> blocklens(pieces.size(), 1);
  std::vector<std::ptrdiff_t> displs;
  std::vector<mpi::Datatype> types;
  displs.reserve(pieces.size());
  types.reserve(pieces.size());
  for (Piece& p : pieces) {
    displs.push_back(p.displ - base);
    types.push_back(std::move(p.type));
  }
  return {base, mpi::Datatype::strukt(blocklens, displs, types)};
}

/// Byte offsets of each chunk within a rank's concatenated buffer.
std::vector<std::ptrdiff_t> chunk_bases(const std::vector<Chunk>& chunks,
                                        std::size_t elem_size,
                                        std::size_t* total = nullptr) {
  std::vector<std::ptrdiff_t> base;
  std::size_t cum = 0;
  for (const Chunk& c : chunks) {
    base.push_back(static_cast<std::ptrdiff_t>(cum));
    cum += static_cast<std::size_t>(c.volume()) * elem_size;
  }
  if (total != nullptr) *total = cum;
  return base;
}

/// Every transfer `sender` -> `receiver`, in join order, typed on one end:
/// on the sender's owned chunks (`send_side`) or on the receiver's needed
/// chunks, in elements of `elem`. `bases` are that end's chunk_bases.
std::vector<Piece> lane_pieces(const GlobalLayout& layout, int sender,
                               int receiver, const mpi::Datatype& elem,
                               bool send_side,
                               const std::vector<std::ptrdiff_t>& bases) {
  const std::vector<Chunk>& chunks =
      send_side ? layout.owned[static_cast<std::size_t>(sender)]
                : layout.needed[static_cast<std::size_t>(receiver)];
  std::vector<Piece> pieces;
  for_each_transfer(
      layout, sender, receiver, elem.size(), [&](const Transfer& t) {
        const auto k =
            static_cast<std::size_t>(send_side ? t.round : t.needed_index);
        pieces.push_back(
            {bases[k], make_subarray(chunks[k], t.region, elem), t.round});
      });
  return pieces;
}

/// The fused lane `sender` -> `receiver` typed on one end (see
/// lane_pieces), naming the other end as its peer; peer == -1 when the pair
/// moves nothing.
PeerLane fused_lane(const GlobalLayout& layout, int sender, int receiver,
                    const mpi::Datatype& elem, bool send_side,
                    const std::vector<std::ptrdiff_t>& bases) {
  std::vector<Piece> pieces =
      lane_pieces(layout, sender, receiver, elem, send_side, bases);
  if (pieces.empty()) return PeerLane{};
  auto [displ, type] = collapse(std::move(pieces));
  const auto bytes = static_cast<std::int64_t>(type.size());
  return PeerLane{send_side ? receiver : sender, displ, std::move(type), bytes};
}

/// Rejects a rank outside the layout, a zero element size, or a layout whose
/// owned and needed sides list different rank counts.
void check_args(const GlobalLayout& layout, int rank, std::size_t elem_size,
                const char* what) {
  const char* defect = nullptr;
  if (rank < 0 || rank >= layout.nranks())
    defect = ": rank out of range";
  else if (elem_size == 0)
    defect = ": element size must be positive";
  else if (layout.needed.size() != layout.owned.size())
    defect = ": owned/needed rank counts differ";
  if (defect != nullptr) throw Error(std::string(what) + defect);
}

}  // namespace

DataMapping build_mapping(const GlobalLayout& layout, int rank,
                          std::size_t elem_size) {
  check_args(layout, rank, elem_size, "build_mapping");
  DDR_TRACE_SPAN(tspan, "ddr.mapping.build",
                 trace::Keys{.value = layout.rounds()});

  DataMapping m;
  m.rank = rank;
  m.nranks = layout.nranks();
  const auto ri = static_cast<std::size_t>(rank);
  const std::vector<std::ptrdiff_t> owned_base =
      chunk_bases(layout.owned[ri], elem_size, &m.owned_bytes);
  const std::vector<std::ptrdiff_t> needed_base =
      chunk_bases(layout.needed[ri], elem_size, &m.needed_bytes);
  const mpi::Datatype elem = mpi::Datatype::bytes(elem_size);
  for (int q = 0; q < m.nranks; ++q) {
    PeerLane send = fused_lane(layout, rank, q, elem, true, owned_base);
    if (send.peer >= 0) m.fused_send.push_back(std::move(send));
    PeerLane recv = fused_lane(layout, q, rank, elem, false, needed_base);
    if (recv.peer >= 0) m.fused_recv.push_back(std::move(recv));
  }
  return m;
}

std::vector<RoundPlan> build_round_plans(const GlobalLayout& layout, int rank,
                                         std::size_t elem_size) {
  check_args(layout, rank, elem_size, "build_round_plans");
  const auto np = static_cast<std::size_t>(layout.nranks());
  const std::vector<int> counts(np, 0);
  const std::vector<std::ptrdiff_t> displs(np, 0);
  const std::vector<mpi::Datatype> types(np, mpi::Datatype::bytes(0));
  std::vector<RoundPlan> rounds(static_cast<std::size_t>(layout.rounds()),
                                {counts, counts, displs, displs, types, types});

  const auto ri = static_cast<std::size_t>(rank);
  const std::vector<std::ptrdiff_t> owned_base =
      chunk_bases(layout.owned[ri], elem_size);
  const std::vector<std::ptrdiff_t> needed_base =
      chunk_bases(layout.needed[ri], elem_size);
  const mpi::Datatype elem = mpi::Datatype::bytes(elem_size);
  for (int q = 0; q < layout.nranks(); ++q) {
    const auto qi = static_cast<std::size_t>(q);
    for (const bool send : {true, false}) {
      std::vector<Piece> pieces =
          send ? lane_pieces(layout, rank, q, elem, true, owned_base)
               : lane_pieces(layout, q, rank, elem, false, needed_base);
      // The join lists a lane's pieces round by round: cut it into one
      // collapsed lane per round.
      for (auto first = pieces.begin(); first != pieces.end();) {
        const int k = first->round;
        const auto last = std::find_if(
            first, pieces.end(), [k](const Piece& p) { return p.round != k; });
        auto [displ, type] = collapse(std::vector<Piece>(
            std::make_move_iterator(first), std::make_move_iterator(last)));
        RoundPlan& rp = rounds[static_cast<std::size_t>(k)];
        (send ? rp.sendcounts : rp.recvcounts)[qi] = 1;
        (send ? rp.sdispls : rp.rdispls)[qi] = displ;
        (send ? rp.sendtypes : rp.recvtypes)[qi] = std::move(type);
        first = last;
      }
    }
  }
  return rounds;
}

PeerLane build_peer_send_lane(const GlobalLayout& layout, int sender,
                              int receiver, std::size_t elem_size) {
  check_args(layout, sender, elem_size, "build_peer_send_lane");
  require(receiver >= 0 && receiver < layout.nranks(),
          "build_peer_send_lane: receiver out of range");
  return fused_lane(
      layout, sender, receiver, mpi::Datatype::bytes(elem_size), true,
      chunk_bases(layout.owned[static_cast<std::size_t>(sender)], elem_size));
}

MappingStats compute_stats(const GlobalLayout& layout, std::size_t elem_size,
                           std::vector<ExchangeLane>* lanes) {
  MappingStats s;
  if (lanes != nullptr) lanes->clear();
  s.nranks = layout.nranks();
  s.rounds = layout.rounds();

  std::int64_t send_peers = 0;
  for (int sender = 0; sender < s.nranks; ++sender) {
    std::vector<std::int64_t> sent_in_round(
        layout.owned[static_cast<std::size_t>(sender)].size(), 0);
    for (int recv = 0; recv < s.nranks; ++recv) {
      std::int64_t pair_bytes = 0;
      int last_round = -1;
      for_each_transfer(
          layout, sender, recv, elem_size, [&](const Transfer& t) {
            pair_bytes += t.bytes;
            if (recv == sender) return;
            sent_in_round[static_cast<std::size_t>(t.round)] += t.bytes;
            // The join lists a pair's transfers round by round.
            if (t.round != last_round) ++s.transfer_count;
            last_round = t.round;
          });
      if (pair_bytes == 0) continue;
      if (recv == sender) {
        s.self_bytes += pair_bytes;
      } else {
        s.network_bytes += pair_bytes;
        ++send_peers;
        if (lanes != nullptr) lanes->push_back({sender, recv, pair_bytes, 0});
      }
    }
    for (const std::int64_t b : sent_in_round)
      s.max_bytes_sent_in_round = std::max(s.max_bytes_sent_in_round, b);
  }

  if (s.nranks > 0) {
    s.mean_bytes_sent_per_rank =
        static_cast<double>(s.network_bytes) / s.nranks;
    if (s.rounds > 0)
      s.mean_bytes_sent_per_rank_per_round =
          s.mean_bytes_sent_per_rank / s.rounds;
    s.mean_send_peers = static_cast<double>(send_peers) / s.nranks;
  }
  return s;
}

std::vector<Transfer> enumerate_transfers(const GlobalLayout& layout,
                                          std::size_t elem_size) {
  std::vector<Transfer> out;
  for (int sender = 0; sender < layout.nranks(); ++sender)
    for (int recv = 0; recv < layout.nranks(); ++recv)
      for_each_transfer(layout, sender, recv, elem_size,
                        [&](const Transfer& t) { out.push_back(t); });
  return out;
}

}  // namespace ddr
