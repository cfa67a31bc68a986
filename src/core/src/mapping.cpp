#include "ddr/mapping.hpp"

#include <algorithm>
#include <set>

#include "ddr/error.hpp"
#include "trace/trace.hpp"

namespace ddr {

namespace {

/// Subarray datatype selecting `region` (global coordinates) out of the
/// local array described by `chunk`. The chunk's [x, y, z] element order is
/// x-fastest, which is Order::fortran for dims given fastest-first.
mpi::Datatype make_subarray(const Chunk& chunk, const Box& region,
                            std::size_t elem_size) {
  std::vector<int> sizes, subsizes, starts;
  for (int d = 0; d < chunk.ndims; ++d) {
    const auto k = static_cast<std::size_t>(d);
    sizes.push_back(chunk.dims[k]);
    subsizes.push_back(static_cast<int>(region.extent(d)));
    starts.push_back(static_cast<int>(region.lo[k] - chunk.offsets[k]));
  }
  return mpi::Datatype::subarray(sizes, subsizes, starts,
                                 mpi::Datatype::bytes(elem_size),
                                 mpi::Order::fortran);
}

/// One region of a (possibly multi-part) transfer between a rank pair in
/// one round: the subarray plus the byte displacement of the local chunk it
/// lives in.
struct Piece {
  std::ptrdiff_t displ = 0;
  mpi::Datatype type;
};

/// Collapses the ordered pieces of one (peer, round) lane into a single
/// datatype + displacement for alltoallw. Multi-piece lanes (which only
/// arise with the multi-chunk-receive extension) become a struct of
/// subarrays; pack order is piece order, identical on both ends because
/// both ends enumerate the receiver's needed chunks in index order.
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

}  // namespace

DataMapping build_mapping(const GlobalLayout& layout, int rank,
                          std::size_t elem_size) {
  const int nranks = layout.nranks();
  require(rank >= 0 && rank < nranks, "build_mapping: rank out of range");
  require(elem_size > 0, "build_mapping: element size must be positive");
  require(layout.needed.size() == static_cast<std::size_t>(nranks),
          "build_mapping: owned/needed rank counts differ");
  const int nrounds = layout.rounds();
  DDR_TRACE_SPAN(tspan, "ddr.mapping.build", trace::Keys{.value = nrounds});

  DataMapping m;
  m.rank = rank;
  m.nranks = nranks;
  m.elem_size = elem_size;
  m.owned = layout.owned[static_cast<std::size_t>(rank)];
  m.needed = layout.needed[static_cast<std::size_t>(rank)];

  const std::vector<std::ptrdiff_t> owned_base =
      chunk_bases(m.owned, elem_size, &m.owned_bytes);
  const std::vector<std::ptrdiff_t> needed_base =
      chunk_bases(m.needed, elem_size, &m.needed_bytes);

  const mpi::Datatype empty = mpi::Datatype::bytes(0);

  m.rounds.resize(static_cast<std::size_t>(nrounds));
  for (int k = 0; k < nrounds; ++k) {
    RoundPlan& rp = m.rounds[static_cast<std::size_t>(k)];
    const auto np = static_cast<std::size_t>(nranks);
    rp.sendcounts.assign(np, 0);
    rp.recvcounts.assign(np, 0);
    rp.sdispls.assign(np, 0);
    rp.rdispls.assign(np, 0);
    rp.sendtypes.assign(np, empty);
    rp.recvtypes.assign(np, empty);

    // Send side: my chunk k against every needed chunk of every rank,
    // enumerated in (rank, needed-index) order.
    if (k < static_cast<int>(m.owned.size())) {
      const Chunk& c = m.owned[static_cast<std::size_t>(k)];
      const Box cb = c.box();
      for (int q = 0; q < nranks; ++q) {
        const auto& q_needed = layout.needed[static_cast<std::size_t>(q)];
        std::vector<Piece> pieces;
        for (const Chunk& nj : q_needed) {
          const Box ov = intersect(cb, nj.box());
          if (ov.volume() > 0)
            pieces.push_back(
                {owned_base[static_cast<std::size_t>(k)],
                 make_subarray(c, ov, elem_size)});
        }
        if (pieces.empty()) continue;
        const auto qi = static_cast<std::size_t>(q);
        auto [displ, type] = collapse(std::move(pieces));
        rp.sendcounts[qi] = 1;
        rp.sdispls[qi] = displ;
        rp.sendtypes[qi] = std::move(type);
      }
    }

    // Receive side: every rank's chunk k against each of my needed chunks,
    // in the same needed-index order as the sender packs them.
    for (int q = 0; q < nranks; ++q) {
      const auto& q_owned = layout.owned[static_cast<std::size_t>(q)];
      if (k >= static_cast<int>(q_owned.size())) continue;
      const Box qc = q_owned[static_cast<std::size_t>(k)].box();
      std::vector<Piece> pieces;
      for (std::size_t j = 0; j < m.needed.size(); ++j) {
        const Box ov = intersect(qc, m.needed[j].box());
        if (ov.volume() > 0)
          pieces.push_back(
              {needed_base[j], make_subarray(m.needed[j], ov, elem_size)});
      }
      if (pieces.empty()) continue;
      const auto qi = static_cast<std::size_t>(q);
      auto [displ, type] = collapse(std::move(pieces));
      rp.recvcounts[qi] = 1;
      rp.rdispls[qi] = displ;
      rp.recvtypes[qi] = std::move(type);
    }
  }

  // Fused per-peer lanes: stitch each peer's round lanes together in round
  // order. Sender and receiver enumerate rounds identically, so the fused
  // packed streams match end to end.
  for (int q = 0; q < nranks; ++q) {
    const auto qi = static_cast<std::size_t>(q);
    std::vector<Piece> spieces, rpieces;
    for (const RoundPlan& rp : m.rounds) {
      if (rp.sendcounts[qi] > 0) spieces.push_back({rp.sdispls[qi], rp.sendtypes[qi]});
      if (rp.recvcounts[qi] > 0) rpieces.push_back({rp.rdispls[qi], rp.recvtypes[qi]});
    }
    if (!spieces.empty()) {
      auto [displ, type] = collapse(std::move(spieces));
      const auto bytes = static_cast<std::int64_t>(type.size());
      m.fused_send.push_back({q, displ, std::move(type), bytes});
    }
    if (!rpieces.empty()) {
      auto [displ, type] = collapse(std::move(rpieces));
      const auto bytes = static_cast<std::int64_t>(type.size());
      m.fused_recv.push_back({q, displ, std::move(type), bytes});
    }
  }

  // The mapping is computed once and executed every timestep (§III-C):
  // compile every fused lane's segment plan now so no redistribute() call
  // ever pays the flattening cost. Only alltoallw moves the per-round lanes,
  // so Redistributor::setup() compiles those when it runs.
  DDR_TRACE_SPAN(pspan, "ddr.mapping.precompile");
  for (const PeerLane& l : m.fused_send) l.type.precompile();
  for (const PeerLane& l : m.fused_recv) l.type.precompile();
  return m;
}

PeerLane build_peer_send_lane(const GlobalLayout& layout, int sender,
                              int receiver, std::size_t elem_size) {
  const int nranks = layout.nranks();
  require(sender >= 0 && sender < nranks,
          "build_peer_send_lane: sender out of range");
  require(receiver >= 0 && receiver < nranks,
          "build_peer_send_lane: receiver out of range");
  require(elem_size > 0, "build_peer_send_lane: element size must be positive");

  // Mirror build_mapping exactly: per-round collapse of the sender's chunk-k
  // pieces toward the receiver, then the fused stitch of the round lanes.
  // The two-level collapse keeps the piece order (round, needed-index) — the
  // property that makes the packed streams of both ends line up.
  const auto& owned = layout.owned[static_cast<std::size_t>(sender)];
  const auto& recv_needed = layout.needed[static_cast<std::size_t>(receiver)];
  const std::vector<std::ptrdiff_t> owned_base = chunk_bases(owned, elem_size);

  std::vector<Piece> spieces;
  for (std::size_t k = 0; k < owned.size(); ++k) {
    const Chunk& c = owned[k];
    const Box cb = c.box();
    std::vector<Piece> pieces;
    for (const Chunk& nj : recv_needed) {
      const Box ov = intersect(cb, nj.box());
      if (ov.volume() > 0)
        pieces.push_back({owned_base[k], make_subarray(c, ov, elem_size)});
    }
    if (pieces.empty()) continue;
    auto [displ, type] = collapse(std::move(pieces));
    spieces.push_back({displ, std::move(type)});
  }
  if (spieces.empty()) return PeerLane{};
  auto [displ, type] = collapse(std::move(spieces));
  const auto bytes = static_cast<std::int64_t>(type.size());
  return PeerLane{receiver, displ, std::move(type), bytes};
}

MappingStats compute_stats(const GlobalLayout& layout, std::size_t elem_size) {
  MappingStats s;
  s.nranks = layout.nranks();
  s.rounds = layout.rounds();

  std::vector<std::int64_t> sent_by_rank(static_cast<std::size_t>(s.nranks), 0);
  std::vector<std::set<int>> peers(static_cast<std::size_t>(s.nranks));

  for (int sender = 0; sender < s.nranks; ++sender) {
    const auto& chunks = layout.owned[static_cast<std::size_t>(sender)];
    for (std::size_t k = 0; k < chunks.size(); ++k) {
      const Box cb = chunks[k].box();
      std::int64_t sent_this_round = 0;
      for (int recv = 0; recv < s.nranks; ++recv) {
        std::int64_t v = 0;
        for (const Chunk& nj : layout.needed[static_cast<std::size_t>(recv)])
          v += intersect(cb, nj.box()).volume();
        if (v <= 0) continue;
        const std::int64_t bytes = v * static_cast<std::int64_t>(elem_size);
        if (recv == sender) {
          s.self_bytes += bytes;
        } else {
          s.network_bytes += bytes;
          ++s.transfer_count;
          sent_by_rank[static_cast<std::size_t>(sender)] += bytes;
          sent_this_round += bytes;
          peers[static_cast<std::size_t>(sender)].insert(recv);
        }
      }
      s.max_bytes_sent_in_round =
          std::max(s.max_bytes_sent_in_round, sent_this_round);
    }
  }

  if (s.nranks > 0) {
    s.mean_bytes_sent_per_rank =
        static_cast<double>(s.network_bytes) / s.nranks;
    if (s.rounds > 0)
      s.mean_bytes_sent_per_rank_per_round =
          s.mean_bytes_sent_per_rank / s.rounds;
    double total_peers = 0;
    for (const auto& p : peers) total_peers += static_cast<double>(p.size());
    s.mean_send_peers = total_peers / s.nranks;
  }
  return s;
}

std::vector<Transfer> enumerate_transfers(const GlobalLayout& layout,
                                          std::size_t elem_size) {
  std::vector<Transfer> out;
  for (int sender = 0; sender < layout.nranks(); ++sender) {
    const auto& chunks = layout.owned[static_cast<std::size_t>(sender)];
    for (std::size_t k = 0; k < chunks.size(); ++k) {
      const Box cb = chunks[k].box();
      for (int recv = 0; recv < layout.nranks(); ++recv) {
        const auto& needed = layout.needed[static_cast<std::size_t>(recv)];
        for (std::size_t j = 0; j < needed.size(); ++j) {
          const Box ov = intersect(cb, needed[j].box());
          const std::int64_t v = ov.volume();
          if (v <= 0) continue;
          Transfer t;
          t.round = static_cast<int>(k);
          t.sender = sender;
          t.receiver = recv;
          t.needed_index = static_cast<int>(j);
          t.region = ov;
          t.bytes = v * static_cast<std::int64_t>(elem_size);
          out.push_back(t);
        }
      }
    }
  }
  return out;
}

}  // namespace ddr
