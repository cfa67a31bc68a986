#pragma once

/// \file workloads.hpp
/// Redistribution workload generators (ROADMAP item 5): the two families
/// from related work that stress redistribution hardest, built as layout
/// generators over the ordinary SetupDataMapping machinery so every backend,
/// the planner, the budgeted wave sequence, and the resize protocol can be
/// exercised on them.
///
///  * PencilTranspose — the slab/pencil layout triple of distributed 3-D
///    FFTs (Dalcin et al., "Fast parallel multidimensional FFT using
///    advanced MPI"): dense all-pairs (within process-grid rows/columns)
///    transposes repeated every timestep. PencilTimestepper is the
///    timestep-loop driver, in the src/lbm / src/stream iteration idiom:
///    one forward + inverse transpose chain per step, so a round trip must
///    be byte-identical to the input.
///
///  * ReshardSuite — XLA-style sharding→sharding changes (Rink, Paszke,
///    Vytiniotis, Schmid: memory-safe/efficient resharding): an SPMD
///    sharding spec {device mesh shape, per-tensor-axis tiling or
///    replication} lowered to one ddr::Chunk per rank, plus a seeded random
///    sharding-change sampler that lands in the tiny-message /
///    high-lane-count regime.
///
/// Both generators carry Table-III-style ANALYTIC accounting derived from
/// the generator parameters alone (closed-form block/interval arithmetic,
/// never ddr::Box intersection), so tests and the JSON bench can cross-check
/// the geometric mapping machinery against an independent derivation:
/// accounting() == ddr::compute_stats() == traced bytes, or something is
/// broken.

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "ddr/layout.hpp"
#include "ddr/redistributor.hpp"
#include "minimpi/comm.hpp"

namespace workloads {

/// Table-III-style analytic cost of one redistribution, derived in closed
/// form from the generator's parameters (NOT from box intersections — the
/// point is an independent cross-check of the mapping machinery).
struct Accounting {
  std::int64_t total_bytes = 0;    ///< bytes of the whole domain, delivered
  std::int64_t self_bytes = 0;     ///< bytes whose owner == needer
  std::int64_t network_bytes = 0;  ///< bytes crossing rank boundaries
  std::int64_t messages = 0;       ///< non-self (sender, receiver) lanes
  int rounds = 0;                  ///< alltoallw rounds (max chunks/rank)
};

// ---------------------------------------------------------------------------
// Pencil transposes
// ---------------------------------------------------------------------------

/// The three decompositions of an NX x NY x NZ grid over P = p1 * p2 ranks
/// that a slab- or pencil-based distributed FFT walks through:
///   slab     — z split over all P ranks; x and y fully local (the 2-D FFT
///              stage of the slab method);
///   pencil_y — y fully local; x split over p1, z split over p2 (the y-FFT
///              stage of the pencil method);
///   pencil_z — z fully local; x split over p1, y split over p2 (the z-FFT
///              stage; also the slab method's single transpose target).
/// Each stage partitions the domain exactly (mutually exclusive + complete),
/// so any stage is a valid owned side and any stage a valid needed side.
enum class Stage { slab, pencil_y, pencil_z };

[[nodiscard]] const char* stage_name(Stage s);

struct PencilParams {
  int nx = 32;  ///< grid extent, x fastest
  int ny = 32;
  int nz = 32;
  int nranks = 4;
  std::size_t elem_size = sizeof(float);
};

/// Slab/pencil layout generator. The process grid (p1, p2) is chosen as
/// near-square as possible (p1 <= p2), the same discipline as
/// stream::consumer_grid; every per-axis split deals near-equal blocks with
/// the remainder spread over the LOWEST block indices (quota split), so all
/// extents, not just multiples of P, are supported.
class PencilTranspose {
 public:
  explicit PencilTranspose(const PencilParams& params);

  [[nodiscard]] const PencilParams& params() const { return p_; }
  [[nodiscard]] int p1() const { return p1_; }
  [[nodiscard]] int p2() const { return p2_; }

  /// The chunk rank `rank` holds under `stage`.
  [[nodiscard]] ddr::Chunk chunk(Stage stage, int rank) const;

  /// Every rank's chunk under `stage` (index: rank). Forms an exact
  /// partition of the grid.
  [[nodiscard]] std::vector<ddr::OwnedLayout> layout(Stage stage) const;

  /// The redistribution problem of one transpose: owned side = `from`,
  /// needed side = `to`. Feed to Redistributor::setup (per rank) or
  /// ddr::build_mapping / ddr::compute_stats (offline).
  [[nodiscard]] ddr::GlobalLayout transpose_layout(Stage from, Stage to) const;

  /// Closed-form cost of the `from` -> `to` transpose. Derived from 1-D
  /// block-interval overlaps per axis (remainder-aware), never from
  /// ddr::Box: cross-check against ddr::compute_stats must be exact.
  [[nodiscard]] Accounting accounting(Stage from, Stage to) const;

 private:
  PencilParams p_;
  int p1_ = 1, p2_ = 1;
};

/// Timestep-loop driver in the src/lbm / src/stream idiom: compiles the four
/// transposes of one forward + inverse FFT round trip ONCE (slab -> pencil_y
/// -> pencil_z -> pencil_y -> slab) and replays them every step(), exactly
/// how a spectral solver would. The caller owns the slab-stage buffer; the
/// intermediate pencil buffers live inside the driver and are reused across
/// steps (zero steady-state allocation, like the redistributors beneath).
class PencilTimestepper {
 public:
  /// Collective over `comm` (comm.size() must equal params.nranks).
  /// `options` is applied to every one of the four setups — in particular
  /// backend (including Backend::automatic) and peak_staging_bytes.
  PencilTimestepper(mpi::Comm comm, const PencilParams& params,
                    const ddr::SetupOptions& options = {});

  /// One forward + inverse round trip: slab_data -> pencil_y -> pencil_z
  /// (where `spectral`, when set, is applied in place to the z-pencil bytes
  /// — the "solver" hook) -> pencil_y -> slab_out. With no spectral hook the
  /// output must be byte-identical to the input. Collective.
  void step(std::span<const std::byte> slab_in, std::span<std::byte> slab_out);

  /// Advances `n` steps in place on `slab_data` (alternating internal
  /// buffers; the result lands back in `slab_data`). Collective.
  void run(int n, std::span<std::byte> slab_data);

  /// Optional in-place transform applied at the z-pencil stage of step().
  void set_spectral_hook(std::function<void(std::span<std::byte>)> hook) {
    spectral_ = std::move(hook);
  }

  [[nodiscard]] const PencilTranspose& generator() const { return gen_; }
  [[nodiscard]] std::size_t slab_bytes() const { return slab_bytes_; }
  [[nodiscard]] std::size_t pencil_y_bytes() const { return py_.size(); }
  [[nodiscard]] std::size_t pencil_z_bytes() const { return pz_.size(); }

  /// The four per-step redistributors, in execution order (diagnostics:
  /// plan inspection, effective_backend, trace sinks).
  [[nodiscard]] const ddr::Redistributor& transpose(int i) const {
    return rd_[static_cast<std::size_t>(i)];
  }
  static constexpr int kTransposesPerStep = 4;

  /// Attaches a trace recorder to all four transposes (nullptr detaches).
  void trace_sink(trace::Recorder* rec);

 private:
  PencilTranspose gen_;
  std::vector<ddr::Redistributor> rd_;  ///< slab->py, py->pz, pz->py, py->slab
  std::size_t slab_bytes_ = 0;
  std::vector<std::byte> py_, pz_, slab_tmp_;
  std::function<void(std::span<std::byte>)> spectral_;
};

// ---------------------------------------------------------------------------
// SPMD resharding
// ---------------------------------------------------------------------------

/// An XLA/GSPMD-style sharding of a <= 3-D tensor over a <= 3-D device
/// mesh: tensor axis a is either tiled across one mesh axis
/// (tile[a] = that mesh axis) or unsharded (tile[a] = -1, every rank holds
/// the full extent along a). A mesh axis of size > 1 referenced by no tensor
/// axis REPLICATES the tensor across it. Rank r has mesh coordinates
/// (r % mesh[0], r / mesh[0] % mesh[1], ...) — mesh axis 0 fastest,
/// matching the tensor's x-fastest element order.
struct ShardingSpec {
  std::array<int, 3> mesh{{1, 1, 1}};   ///< device mesh shape; product == nranks
  std::array<int, 3> tile{{-1, -1, -1}};  ///< per TENSOR axis: mesh axis or -1

  [[nodiscard]] int nranks() const { return mesh[0] * mesh[1] * mesh[2]; }

  /// True when every mesh axis of size > 1 tiles exactly one tensor axis —
  /// i.e. no replication, so the sharding is an exact partition and legal as
  /// a DDR OWNED side. Replicated specs are legal only as the needed side.
  [[nodiscard]] bool exact_partition(int tensor_ndims) const;

  /// "mesh 2x2 tile x->m0 y->m1" — diagnostics and the ddrinfo fixture
  /// header.
  [[nodiscard]] std::string describe(int tensor_ndims) const;
};

struct ReshardParams {
  int ndims = 3;                       ///< tensor rank (1..3)
  std::array<int, 3> dims{{32, 32, 32}};  ///< tensor extents, x fastest
  std::size_t elem_size = sizeof(float);
  ShardingSpec src;  ///< must be an exact partition (owned side)
  ShardingSpec dst;  ///< may replicate (needed side)
};

/// One sharding -> sharding change lowered to a DDR layout, plus its
/// closed-form accounting.
class ReshardSuite {
 public:
  /// Throws ddr::Error when src/dst rank counts differ, a mesh axis index is
  /// out of range, or src is not an exact partition.
  explicit ReshardSuite(const ReshardParams& params);

  [[nodiscard]] const ReshardParams& params() const { return p_; }
  [[nodiscard]] int nranks() const { return p_.src.nranks(); }

  /// The chunk rank `rank` holds under `spec` (full tensor when every axis
  /// is unsharded for that rank's coordinates).
  [[nodiscard]] static ddr::Chunk chunk(const ShardingSpec& spec, int ndims,
                                        const std::array<int, 3>& dims,
                                        int rank);

  /// The redistribution problem: owned = src sharding, needed = dst
  /// sharding, one chunk per rank on each side.
  [[nodiscard]] ddr::GlobalLayout layout() const;

  /// Closed-form cost of the change, from per-axis block-interval overlap
  /// counts and the mesh coordinate maps (replication multiplies the
  /// delivered bytes). Independent of ddr::Box by construction.
  [[nodiscard]] Accounting accounting() const;

 private:
  ReshardParams p_;
};

/// Seeded sampler of random sharding-change pairs over `nranks` devices —
/// the tiny-message / high-lane-count regime of the resharding papers:
/// random mesh factorizations of nranks on both sides (so block boundaries
/// almost never align), random tile assignments, optional replication on
/// the destination. src is always an exact partition. Deterministic in
/// (seed, nranks, ndims): every rank can sample the identical suite with no
/// communication.
class ReshardSampler {
 public:
  ReshardSampler(unsigned seed, int nranks, int ndims,
                 std::array<int, 3> dims, std::size_t elem_size,
                 bool allow_replication = true);

  /// Next random sharding-change (a fresh src/dst pair each call).
  [[nodiscard]] ReshardParams next();

 private:
  [[nodiscard]] ShardingSpec random_spec(bool must_partition);

  std::mt19937 rng_;
  int nranks_ = 0;
  int ndims_ = 0;
  std::array<int, 3> dims_{{0, 0, 0}};
  std::size_t elem_size_ = 0;
  bool allow_replication_ = true;
};

}  // namespace workloads
