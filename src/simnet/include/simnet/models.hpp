#pragma once

/// \file models.hpp
/// Network cost models for minimpi virtual time.
///
/// The paper's experiments ran on Argonne's Cooley cluster (126 nodes, FDR
/// InfiniBand CLOS network, one 56 Gbps link per node). This machine has one
/// core and no network, so benchmark timing uses minimpi's virtual clocks
/// driven by the models here. See DESIGN.md §2 for the substitution argument
/// and EXPERIMENTS.md for the calibration used per experiment.
///
/// LinkModel implements a LogGP-style cost with two cluster effects the
/// paper's §IV-A analysis calls out explicitly:
///
///  * per-node link sharing: a node's ranks share one 56 Gbps link, so the
///    per-rank effective bandwidth during dense exchanges is
///    link_bandwidth / ranks_per_node;
///  * large-message saturation: multi-GB messages (the consecutive method at
///    small scale sends up to 4.3 GB per rank per round) create sustained
///    contention on the CLOS fabric. We model this as a soft bandwidth
///    degradation factor (1 + bytes / saturation_bytes), which is what makes
///    round-robin win at 27 ranks and lose at 216, matching Fig. 3.

#include <cstddef>

#include "minimpi/sim.hpp"

namespace simnet {

/// Parameters for LinkModel. All quantities in seconds and bytes.
struct LinkParams {
  double latency_s = 2.0e-6;            ///< one-way wire latency
  double link_bandwidth_Bps = 7.0e9;    ///< 56 Gbps per node link
  int ranks_per_node = 2;               ///< ranks sharing one node link
  double send_overhead_s = 1.0e-6;      ///< CPU cost to inject a message
  double send_overhead_s_per_B = 0.0;   ///< CPU cost per byte (packing, etc.)
  double recv_overhead_s = 1.0e-6;      ///< CPU cost to drain a message
  double recv_overhead_s_per_B = 0.0;
  /// Message size at which effective bandwidth has halved; 0 disables
  /// saturation modeling.
  double saturation_bytes = 0.0;
  /// Bandwidth for messages that never leave the node (ranks on the same
  /// node exchange via shared memory).
  double intra_node_bandwidth_Bps = 4.0e10;
};

/// LogGP-style model with link sharing and large-message saturation.
class LinkModel final : public mpi::NetworkModel {
 public:
  explicit LinkModel(const LinkParams& p) : p_(p) {}

  [[nodiscard]] const LinkParams& params() const noexcept { return p_; }

  [[nodiscard]] double send_overhead(std::size_t bytes) const override {
    return p_.send_overhead_s +
           p_.send_overhead_s_per_B * static_cast<double>(bytes);
  }

  [[nodiscard]] double transfer_time(std::size_t bytes, int src_world,
                                     int dst_world) const override {
    const bool same_node = node_of(src_world) == node_of(dst_world);
    if (same_node)
      return p_.latency_s +
             static_cast<double>(bytes) / p_.intra_node_bandwidth_Bps;
    double bw = p_.link_bandwidth_Bps / p_.ranks_per_node;
    if (p_.saturation_bytes > 0.0)
      bw /= 1.0 + static_cast<double>(bytes) / p_.saturation_bytes;
    return p_.latency_s + static_cast<double>(bytes) / bw;
  }

  [[nodiscard]] double recv_overhead(std::size_t bytes) const override {
    return p_.recv_overhead_s +
           p_.recv_overhead_s_per_B * static_cast<double>(bytes);
  }

  /// Topology exposed to minimpi (NetworkModel::node_of): consecutive ranks
  /// share a node in groups of ranks_per_node, matching the blocked
  /// placement mpirun-style launchers default to.
  [[nodiscard]] int node_of(int world_rank) const noexcept override {
    return world_rank / p_.ranks_per_node;
  }

 private:
  LinkParams p_;
};

/// Preset approximating Cooley for the paper's experiments: FDR IB
/// (56 Gbps/node), two ranks per node, microsecond-scale latency, and
/// saturation tuned so that multi-GB rounds degrade as §IV-A describes.
[[nodiscard]] inline LinkParams cooley_params() {
  LinkParams p;
  p.latency_s = 2.5e-6;
  p.link_bandwidth_Bps = 7.0e9;  // 56 Gbps
  p.ranks_per_node = 2;
  p.send_overhead_s = 2.0e-6;
  p.recv_overhead_s = 2.0e-6;
  // Per-byte CPU overhead approximates datatype pack/unpack cost on the
  // 2017-era Haswell nodes (~5 GB/s effective streaming copy).
  p.send_overhead_s_per_B = 2.0e-10;
  p.recv_overhead_s_per_B = 2.0e-10;
  p.saturation_bytes = 512.0 * 1024 * 1024;  // ~0.5 GB half-bandwidth point
  return p;
}

/// Zero-cost model: useful to isolate algorithmic effects in ablations.
class ZeroCostModel final : public mpi::NetworkModel {
 public:
  [[nodiscard]] double send_overhead(std::size_t) const override { return 0.0; }
  [[nodiscard]] double transfer_time(std::size_t, int, int) const override {
    return 0.0;
  }
  [[nodiscard]] double recv_overhead(std::size_t) const override { return 0.0; }
};

}  // namespace simnet
