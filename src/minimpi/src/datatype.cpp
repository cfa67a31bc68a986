#include "minimpi/datatype.hpp"

#include "pack_kernels.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <mutex>
#include <numeric>
#include <sstream>

#include "trace/trace.hpp"

namespace mpi {
namespace detail {

enum class Kind : std::uint8_t {
  bytes,
  contiguous,
  hvector,   // vector is lowered to hvector at construction
  subarray,
  strukt,
  resized,
};

struct StructBlock {
  int blocklen = 0;
  std::ptrdiff_t displ = 0;
  std::shared_ptr<const TypeNode> type;
};

/// One contiguous run of a compiled datatype: `length` data bytes at byte
/// `offset` from the element origin. Intermediate representation only — the
/// flattener emits these, then they are run-compressed into Quads.
struct Segment {
  std::size_t offset = 0;
  std::size_t length = 0;
};

/// One run-compressed plan descriptor: `count` contiguous runs of `length`
/// bytes each, run k starting at byte `offset + k * stride` from the element
/// origin. A strided 2D/3D subarray compiles to a handful of quads instead of
/// one Segment per row, shrinking plan storage by the row count while the
/// expanded runs (and therefore the packed byte stream) stay identical.
struct Quad {
  std::size_t offset = 0;
  std::size_t length = 0;
  std::ptrdiff_t stride = 0;
  std::size_t count = 1;
};

struct TypeNode {
  Kind kind = Kind::bytes;
  std::size_t size = 0;    // packed bytes per element
  std::size_t extent = 0;  // memory span per element
  bool contiguous = false;

  // bytes: size/extent only.
  // contiguous: count x inner
  // hvector: count blocks of blocklen inner, stride_bytes apart
  std::size_t count = 0;
  std::size_t blocklen = 0;
  std::ptrdiff_t stride_bytes = 0;
  std::shared_ptr<const TypeNode> inner;

  // subarray
  std::vector<int> sizes, subsizes, starts;  // normalized to Order::c
  /// Row strides in bytes per dimension, precomputed at construction so the
  /// flatteners never allocate per call (Order::c: last dim contiguous).
  std::vector<std::size_t> sub_strides;
  // strukt
  std::vector<StructBlock> blocks;
  // resized keeps `inner` and overrides extent.

  // --- compiled segment plan ----------------------------------------------
  // Run-compressed descriptor list of ONE element, built once on first use
  // (or via Datatype::precompile) and cached here: the flat coalesced
  // (offset, length) runs of the tree, collapsed into (offset, length,
  // stride, count) quads wherever consecutive runs have equal length and a
  // constant offset delta. The node is otherwise immutable; call_once makes
  // the lazy compile thread-safe.
  mutable std::once_flag plan_once;
  mutable std::vector<Quad> plan;

  const std::vector<Quad>& compiled() const;
};

namespace {

using SegmentFn = std::function<void(std::size_t, std::size_t)>;

/// Emits the contiguous segments of one element of `n` rooted at `base`,
/// in packed order.
void visit(const TypeNode& n, std::size_t base, const SegmentFn& fn) {
  switch (n.kind) {
    case Kind::bytes:
      if (n.size > 0) fn(base, n.size);
      return;
    case Kind::contiguous: {
      const TypeNode& in = *n.inner;
      if (in.contiguous) {
        if (n.size > 0) fn(base, n.count * in.size);
      } else {
        for (std::size_t i = 0; i < n.count; ++i)
          visit(in, base + i * in.extent, fn);
      }
      return;
    }
    case Kind::hvector: {
      const TypeNode& in = *n.inner;
      for (std::size_t i = 0; i < n.count; ++i) {
        const std::size_t block_base =
            base + static_cast<std::size_t>(static_cast<std::ptrdiff_t>(i) *
                                            n.stride_bytes);
        if (in.contiguous) {
          if (n.blocklen * in.size > 0) fn(block_base, n.blocklen * in.size);
        } else {
          for (std::size_t j = 0; j < n.blocklen; ++j)
            visit(in, block_base + j * in.extent, fn);
        }
      }
      return;
    }
    case Kind::subarray: {
      if (n.size == 0) return;  // empty sub-box: nothing to emit
      const TypeNode& in = *n.inner;
      const int ndims = static_cast<int>(n.sizes.size());
      // Row strides precomputed at construction (Order::c normalized: last
      // dimension contiguous).
      const std::vector<std::size_t>& stride = n.sub_strides;

      // Iterate over all index tuples of the subarray except the innermost
      // dimension, which forms a contiguous run when `in` is contiguous.
      std::vector<int> idx(static_cast<std::size_t>(ndims), 0);
      const bool dense_rows = in.contiguous;
      const auto row_len = static_cast<std::size_t>(
          n.subsizes[static_cast<std::size_t>(ndims - 1)]);
      for (;;) {
        std::size_t off = base;
        for (int d = 0; d < ndims - 1; ++d)
          off += stride[static_cast<std::size_t>(d)] *
                 static_cast<std::size_t>(n.starts[static_cast<std::size_t>(d)] +
                                          idx[static_cast<std::size_t>(d)]);
        off += stride[static_cast<std::size_t>(ndims - 1)] *
               static_cast<std::size_t>(n.starts[static_cast<std::size_t>(ndims - 1)]);
        if (dense_rows) {
          if (row_len * in.size > 0) fn(off, row_len * in.size);
        } else {
          for (std::size_t j = 0; j < row_len; ++j)
            visit(in, off + j * in.extent, fn);
        }
        // Odometer increment over dims [0, ndims-2].
        int d = ndims - 2;
        for (; d >= 0; --d) {
          auto& i = idx[static_cast<std::size_t>(d)];
          if (++i < n.subsizes[static_cast<std::size_t>(d)]) break;
          i = 0;
        }
        if (d < 0) break;
      }
      return;
    }
    case Kind::strukt: {
      for (const auto& b : n.blocks) {
        const TypeNode& in = *b.type;
        const std::size_t block_base =
            base + static_cast<std::size_t>(b.displ);
        if (in.contiguous) {
          const std::size_t len = static_cast<std::size_t>(b.blocklen) * in.size;
          if (len > 0) fn(block_base, len);
        } else {
          for (int j = 0; j < b.blocklen; ++j)
            visit(in, block_base + static_cast<std::size_t>(j) * in.extent, fn);
        }
      }
      return;
    }
    case Kind::resized:
      visit(*n.inner, base, fn);
      return;
  }
}

std::shared_ptr<const TypeNode> make_bytes(std::size_t nbytes) {
  auto n = std::make_shared<TypeNode>();
  n->kind = Kind::bytes;
  n->size = nbytes;
  n->extent = nbytes;
  n->contiguous = true;
  return n;
}

/// Whether pack/unpack/for_each_segment execute through compiled plans.
/// Off switches to the legacy recursive walker (bench/test reference).
std::atomic<bool> g_plan_enabled{true};

/// Appends a run to a plan under construction, coalescing with the previous
/// run when the two are adjacent in memory (the byte stream is unchanged:
/// segments are emitted in packed order).
void emit(std::vector<Segment>& out, std::size_t offset, std::size_t length) {
  if (length == 0) return;
  if (!out.empty() && out.back().offset + out.back().length == offset) {
    out.back().length += length;
    return;
  }
  out.push_back({offset, length});
}

/// Compile-time flattener: identical traversal to visit(), but emits into a
/// plain vector (no callback dispatch) and coalesces adjacent runs. Runs
/// once per type; the hot path then loops over the flat plan.
void compile_segments(const TypeNode& n, std::size_t base,
                      std::vector<Segment>& out) {
  switch (n.kind) {
    case Kind::bytes:
      emit(out, base, n.size);
      return;
    case Kind::contiguous: {
      const TypeNode& in = *n.inner;
      if (in.contiguous) {
        if (n.size > 0) emit(out, base, n.count * in.size);
      } else {
        for (std::size_t i = 0; i < n.count; ++i)
          compile_segments(in, base + i * in.extent, out);
      }
      return;
    }
    case Kind::hvector: {
      const TypeNode& in = *n.inner;
      for (std::size_t i = 0; i < n.count; ++i) {
        const std::size_t block_base =
            base + static_cast<std::size_t>(static_cast<std::ptrdiff_t>(i) *
                                            n.stride_bytes);
        if (in.contiguous) {
          emit(out, block_base, n.blocklen * in.size);
        } else {
          for (std::size_t j = 0; j < n.blocklen; ++j)
            compile_segments(in, block_base + j * in.extent, out);
        }
      }
      return;
    }
    case Kind::subarray: {
      if (n.size == 0) return;
      const TypeNode& in = *n.inner;
      const int ndims = static_cast<int>(n.sizes.size());
      const std::vector<std::size_t>& stride = n.sub_strides;
      // Iterative odometer over all dims but the innermost, whose sub-range
      // forms one run per tuple when `in` is contiguous.
      std::vector<int> idx(static_cast<std::size_t>(ndims), 0);
      const bool dense_rows = in.contiguous;
      const auto row_len = static_cast<std::size_t>(
          n.subsizes[static_cast<std::size_t>(ndims - 1)]);
      for (;;) {
        std::size_t off = base;
        for (int d = 0; d < ndims; ++d)
          off += stride[static_cast<std::size_t>(d)] *
                 static_cast<std::size_t>(n.starts[static_cast<std::size_t>(d)] +
                                          idx[static_cast<std::size_t>(d)]);
        if (dense_rows) {
          emit(out, off, row_len * in.size);
        } else {
          for (std::size_t j = 0; j < row_len; ++j)
            compile_segments(in, off + j * in.extent, out);
        }
        int d = ndims - 2;
        for (; d >= 0; --d) {
          auto& i = idx[static_cast<std::size_t>(d)];
          if (++i < n.subsizes[static_cast<std::size_t>(d)]) break;
          i = 0;
        }
        if (d < 0) break;
      }
      return;
    }
    case Kind::strukt: {
      for (const auto& b : n.blocks) {
        const TypeNode& in = *b.type;
        const std::size_t block_base = base + static_cast<std::size_t>(b.displ);
        if (in.contiguous) {
          emit(out, block_base, static_cast<std::size_t>(b.blocklen) * in.size);
        } else {
          for (int j = 0; j < b.blocklen; ++j)
            compile_segments(in, block_base + static_cast<std::size_t>(j) * in.extent,
                             out);
        }
      }
      return;
    }
    case Kind::resized:
      compile_segments(*n.inner, base, out);
      return;
  }
}

/// Run-compresses a flat segment list: a quad absorbs the next segment when
/// the lengths match and the offset delta equals the quad's stride (the
/// stride is established by the second run). Greedy and order-preserving, so
/// expanding the quads reproduces the segment list — and the packed byte
/// stream — exactly.
std::vector<Quad> compress_runs(const std::vector<Segment>& segs) {
  std::vector<Quad> out;
  out.reserve(segs.size());
  for (const Segment& s : segs) {
    if (!out.empty() && out.back().length == s.length) {
      Quad& q = out.back();
      const auto off = static_cast<std::ptrdiff_t>(s.offset);
      if (q.count == 1) {
        q.stride = off - static_cast<std::ptrdiff_t>(q.offset);
        q.count = 2;
        continue;
      }
      if (off == static_cast<std::ptrdiff_t>(q.offset) +
                     static_cast<std::ptrdiff_t>(q.count) * q.stride) {
        ++q.count;
        continue;
      }
    }
    out.push_back({s.offset, s.length, 0, 1});
  }
  out.shrink_to_fit();
  return out;
}

}  // namespace

const std::vector<Quad>& TypeNode::compiled() const {
  std::call_once(plan_once, [this] {
    std::vector<Segment> segs;
    compile_segments(*this, 0, segs);
    plan = compress_runs(segs);
  });
  return plan;
}

}  // namespace detail

using detail::Kind;
using detail::TypeNode;

Datatype::Datatype() : node_(detail::make_bytes(0)) {}
Datatype::Datatype(std::shared_ptr<const TypeNode> node)
    : node_(std::move(node)) {}

std::size_t Datatype::size() const noexcept { return node_->size; }
std::size_t Datatype::extent() const noexcept { return node_->extent; }
bool Datatype::contiguous() const noexcept { return node_->contiguous; }

Datatype Datatype::bytes(std::size_t n) {
  return Datatype(detail::make_bytes(n));
}

Datatype Datatype::contiguous(std::size_t count, const Datatype& inner) {
  auto n = std::make_shared<TypeNode>();
  n->kind = Kind::contiguous;
  n->count = count;
  n->inner = inner.node_;
  n->size = count * inner.size();
  n->extent = count * inner.extent();
  n->contiguous = inner.contiguous();
  return Datatype(std::move(n));
}

Datatype Datatype::vector(std::size_t count, std::size_t blocklen,
                          std::ptrdiff_t stride, const Datatype& inner) {
  return hvector(count, blocklen,
                 stride * static_cast<std::ptrdiff_t>(inner.extent()), inner);
}

Datatype Datatype::hvector(std::size_t count, std::size_t blocklen,
                           std::ptrdiff_t stride_bytes, const Datatype& inner) {
  auto n = std::make_shared<TypeNode>();
  n->kind = Kind::hvector;
  n->count = count;
  n->blocklen = blocklen;
  n->stride_bytes = stride_bytes;
  n->inner = inner.node_;
  n->size = count * blocklen * inner.size();
  if (count == 0) {
    n->extent = 0;
  } else {
    // Extent spans from the first block to the end of the last block.
    const auto last_start = static_cast<std::ptrdiff_t>(count - 1) * stride_bytes;
    require(last_start >= 0, ErrorClass::invalid_datatype,
            "hvector: negative strides are not supported");
    n->extent = static_cast<std::size_t>(last_start) +
                blocklen * inner.extent();
  }
  n->contiguous =
      inner.contiguous() &&
      (count <= 1 ||
       stride_bytes == static_cast<std::ptrdiff_t>(blocklen * inner.extent()));
  return Datatype(std::move(n));
}

Datatype Datatype::subarray(std::span<const int> sizes,
                            std::span<const int> subsizes,
                            std::span<const int> starts, const Datatype& inner,
                            Order order) {
  const std::size_t ndims = sizes.size();
  require(ndims >= 1, ErrorClass::invalid_datatype, "subarray: ndims >= 1");
  require(subsizes.size() == ndims && starts.size() == ndims,
          ErrorClass::invalid_datatype,
          "subarray: sizes/subsizes/starts must have equal length");
  auto n = std::make_shared<TypeNode>();
  n->kind = Kind::subarray;
  n->inner = inner.node_;
  n->sizes.assign(sizes.begin(), sizes.end());
  n->subsizes.assign(subsizes.begin(), subsizes.end());
  n->starts.assign(starts.begin(), starts.end());
  if (order == Order::fortran) {
    std::reverse(n->sizes.begin(), n->sizes.end());
    std::reverse(n->subsizes.begin(), n->subsizes.end());
    std::reverse(n->starts.begin(), n->starts.end());
  }
  std::size_t full = 1, sub = 1;
  for (std::size_t d = 0; d < ndims; ++d) {
    require(n->sizes[d] > 0, ErrorClass::invalid_datatype,
            "subarray: sizes must be positive");
    require(n->subsizes[d] >= 0, ErrorClass::invalid_datatype,
            "subarray: subsizes must be non-negative");
    require(n->starts[d] >= 0 && n->starts[d] + n->subsizes[d] <= n->sizes[d],
            ErrorClass::invalid_datatype,
            "subarray: sub-box must lie inside the full array");
    full *= static_cast<std::size_t>(n->sizes[d]);
    sub *= static_cast<std::size_t>(n->subsizes[d]);
  }
  n->size = sub * inner.size();
  n->extent = full * inner.extent();
  // Row strides in bytes, innermost dimension contiguous. Computed once here
  // so the per-call flatteners never allocate.
  n->sub_strides.resize(ndims);
  n->sub_strides[ndims - 1] = inner.extent();
  for (std::size_t d = ndims - 1; d-- > 0;)
    n->sub_strides[d] =
        n->sub_strides[d + 1] * static_cast<std::size_t>(n->sizes[d + 1]);
  // A sub-box equal to the full array selects every byte in order: the
  // memcpy fast path applies whenever the inner type is itself contiguous.
  n->contiguous = inner.contiguous() && n->subsizes == n->sizes;
  return Datatype(std::move(n));
}

Datatype Datatype::strukt(std::span<const int> blocklens,
                          std::span<const std::ptrdiff_t> displs,
                          std::span<const Datatype> types) {
  const std::size_t nb = blocklens.size();
  require(displs.size() == nb && types.size() == nb,
          ErrorClass::invalid_datatype,
          "struct: blocklens/displs/types must have equal length");
  auto n = std::make_shared<TypeNode>();
  n->kind = Kind::strukt;
  n->blocks.reserve(nb);
  std::size_t size = 0, extent = 0;
  for (std::size_t i = 0; i < nb; ++i) {
    require(blocklens[i] >= 0, ErrorClass::invalid_datatype,
            "struct: negative blocklen");
    require(displs[i] >= 0, ErrorClass::invalid_datatype,
            "struct: negative displacements are not supported");
    detail::StructBlock b;
    b.blocklen = blocklens[i];
    b.displ = displs[i];
    b.type = types[i].node_;
    size += static_cast<std::size_t>(blocklens[i]) * b.type->size;
    extent = std::max(extent, static_cast<std::size_t>(displs[i]) +
                                  static_cast<std::size_t>(blocklens[i]) *
                                      b.type->extent);
    n->blocks.push_back(std::move(b));
  }
  n->size = size;
  n->extent = extent;
  n->contiguous = false;
  return Datatype(std::move(n));
}

Datatype Datatype::indexed(std::span<const int> blocklens,
                           std::span<const int> displs,
                           const Datatype& inner) {
  require(blocklens.size() == displs.size(), ErrorClass::invalid_datatype,
          "indexed: blocklens/displs must have equal length");
  // Lower to a struct: displacements become byte offsets of inner extents.
  std::vector<std::ptrdiff_t> byte_displs;
  std::vector<Datatype> types;
  byte_displs.reserve(displs.size());
  types.reserve(displs.size());
  for (std::size_t i = 0; i < displs.size(); ++i) {
    byte_displs.push_back(static_cast<std::ptrdiff_t>(displs[i]) *
                          static_cast<std::ptrdiff_t>(inner.extent()));
    types.push_back(inner);
  }
  return strukt(blocklens, byte_displs, types);
}

Datatype Datatype::indexed_block(int blocklen, std::span<const int> displs,
                                 const Datatype& inner) {
  const std::vector<int> blocklens(displs.size(), blocklen);
  return indexed(blocklens, displs, inner);
}

Datatype Datatype::resized(const Datatype& inner, std::size_t new_extent) {
  auto n = std::make_shared<TypeNode>();
  n->kind = Kind::resized;
  n->inner = inner.node_;
  n->size = inner.size();
  n->extent = new_extent;
  n->contiguous = inner.contiguous() && inner.extent() == new_extent;
  return Datatype(std::move(n));
}

void Datatype::for_each_segment(
    std::size_t count,
    const std::function<void(std::size_t, std::size_t)>& fn) const {
  if (detail::g_plan_enabled.load(std::memory_order_relaxed)) {
    const std::vector<detail::Quad>& plan = node_->compiled();
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t base = i * node_->extent;
      for (const detail::Quad& q : plan) {
        auto off = static_cast<std::ptrdiff_t>(base + q.offset);
        for (std::size_t k = 0; k < q.count; ++k) {
          fn(static_cast<std::size_t>(off), q.length);
          off += q.stride;
        }
      }
    }
    return;
  }
  for (std::size_t i = 0; i < count; ++i)
    detail::visit(*node_, i * node_->extent, fn);
}

void Datatype::pack(const std::byte* src, std::size_t count,
                    std::byte* dst) const {
  if (node_->contiguous) {
    // memcpy with a null pointer is undefined even for zero bytes.
    if (count * node_->size > 0) std::memcpy(dst, src, count * node_->size);
    return;
  }
  if (detail::g_plan_enabled.load(std::memory_order_relaxed)) {
    const std::vector<detail::Quad>& plan = node_->compiled();
    const detail::CopyTrainFn train = detail::copy_train_fn();
    std::byte* out = dst;
    for (std::size_t i = 0; i < count; ++i) {
      const std::byte* base = src + i * node_->extent;
      for (const detail::Quad& q : plan) {
        // Gather: dense destination runs, strided source runs.
        train(out, static_cast<std::ptrdiff_t>(q.length), base + q.offset,
              q.stride, q.length, q.count);
        out += q.length * q.count;
      }
    }
    return;
  }
  std::size_t cursor = 0;
  for_each_segment(count, [&](std::size_t off, std::size_t len) {
    std::memcpy(dst + cursor, src + off, len);
    cursor += len;
  });
}

void Datatype::unpack(const std::byte* src, std::size_t count,
                      std::byte* dst) const {
  if (node_->contiguous) {
    if (count * node_->size > 0) std::memcpy(dst, src, count * node_->size);
    return;
  }
  if (detail::g_plan_enabled.load(std::memory_order_relaxed)) {
    const std::vector<detail::Quad>& plan = node_->compiled();
    const detail::CopyTrainFn train = detail::copy_train_fn();
    const std::byte* in = src;
    for (std::size_t i = 0; i < count; ++i) {
      std::byte* base = dst + i * node_->extent;
      for (const detail::Quad& q : plan) {
        // Scatter: strided destination runs, dense source runs.
        train(base + q.offset, q.stride, in,
              static_cast<std::ptrdiff_t>(q.length), q.length, q.count);
        in += q.length * q.count;
      }
    }
    return;
  }
  std::size_t cursor = 0;
  for_each_segment(count, [&](std::size_t off, std::size_t len) {
    std::memcpy(dst + off, src + cursor, len);
    cursor += len;
  });
}

void Datatype::precompile() const {
  const auto& plan = node_->compiled();
  DDR_TRACE_INSTANT("mpi.datatype.precompile",
                    {.bytes = static_cast<std::int64_t>(node_->size),
                     .value = static_cast<std::int64_t>(plan.size())});
}

std::size_t Datatype::plan_segment_count() const {
  std::size_t runs = 0;
  for (const detail::Quad& q : node_->compiled()) runs += q.count;
  return runs;
}

std::size_t Datatype::plan_quad_count() const {
  return node_->compiled().size();
}

void Datatype::set_plan_enabled(bool enabled) noexcept {
  detail::g_plan_enabled.store(enabled, std::memory_order_relaxed);
}

bool Datatype::plan_enabled() noexcept {
  return detail::g_plan_enabled.load(std::memory_order_relaxed);
}

void copy_regions(const Datatype& src_type, const std::byte* src,
                  std::size_t src_count, const Datatype& dst_type,
                  std::byte* dst, std::size_t dst_count) {
  const std::size_t total = src_count * src_type.size();
  require(total == dst_count * dst_type.size(), ErrorClass::invalid_datatype,
          "copy_regions: source region (" + std::to_string(total) +
              " B) and destination region (" +
              std::to_string(dst_count * dst_type.size()) +
              " B) describe different data sizes");
  if (total == 0) return;
  DDR_TRACE_SPAN(tspan, "mpi.copy_regions",
                 trace::Keys{.bytes = static_cast<std::int64_t>(total)});
  if (src_type.node_->contiguous && dst_type.node_->contiguous) {
    std::memcpy(dst, src, total);
    return;
  }
  // One-sided contiguity degrades to pack/unpack: a dense destination region
  // IS the packed stream of the source (and vice versa), and pack/unpack run
  // the dispatched copy-train kernel once per quad — strictly better than
  // marching two cursors run by run.
  if (dst_type.node_->contiguous) {
    src_type.pack(src, src_count, dst);
    return;
  }
  if (src_type.node_->contiguous) {
    dst_type.unpack(src, dst_count, dst);
    return;
  }
  // Both sides strided: march the two packed byte streams together. Whenever
  // both cursors sit at run starts of equal length, the overlap of the two
  // current quads is a strided train — one kernel call covers
  // min(remaining repetitions) runs. Mismatched or partially consumed runs
  // fall back to copying the overlap of the current runs byte-exactly.
  const detail::TypeNode& sn = *src_type.node_;
  const detail::TypeNode& dn = *dst_type.node_;

  // Cursor over the expanded run sequence of a quad plan: element index,
  // quad index, repetition within the quad, bytes consumed of that run.
  struct Cursor {
    const detail::Quad* quads;
    std::size_t nquads;
    std::size_t extent;
    std::size_t elem = 0, qi = 0, rep = 0, done = 0;

    [[nodiscard]] std::size_t run_len() const { return quads[qi].length; }
    [[nodiscard]] std::size_t offset() const {
      const detail::Quad& q = quads[qi];
      return elem * extent +
             static_cast<std::size_t>(
                 static_cast<std::ptrdiff_t>(q.offset) +
                 static_cast<std::ptrdiff_t>(rep) * q.stride) +
             done;
    }
    void advance(std::size_t step) {
      done += step;
      if (done < quads[qi].length) return;
      done = 0;
      if (++rep < quads[qi].count) return;
      rep = 0;
      if (++qi == nquads) {
        qi = 0;
        ++elem;
      }
    }
    /// Advances past `n` whole runs of the current quad; only valid at a run
    /// start (done == 0) with n <= remaining repetitions.
    void advance_runs(std::size_t n) {
      rep += n;
      if (rep < quads[qi].count) return;
      rep = 0;
      if (++qi == nquads) {
        qi = 0;
        ++elem;
      }
    }
  };
  auto make_cursor = [](const detail::TypeNode& n) {
    const std::vector<detail::Quad>& plan = n.compiled();
    return Cursor{plan.data(), plan.size(), n.extent};
  };
  Cursor sc = make_cursor(sn);
  Cursor dc = make_cursor(dn);
  const detail::CopyTrainFn train = detail::copy_train_fn();

  std::size_t copied = 0;
  while (copied < total) {
    const std::size_t slen = sc.run_len();
    const std::size_t dlen = dc.run_len();
    if (sc.done == 0 && dc.done == 0 && slen == dlen) {
      const detail::Quad& sq = sc.quads[sc.qi];
      const detail::Quad& dq = dc.quads[dc.qi];
      const std::size_t reps = std::min(sq.count - sc.rep, dq.count - dc.rep);
      train(dst + dc.offset(), dq.stride, src + sc.offset(), sq.stride, slen,
            reps);
      copied += slen * reps;
      sc.advance_runs(reps);
      dc.advance_runs(reps);
      continue;
    }
    const std::size_t step = std::min(slen - sc.done, dlen - dc.done);
    std::memcpy(dst + dc.offset(), src + sc.offset(), step);
    copied += step;
    sc.advance(step);
    dc.advance(step);
  }
}

std::string Datatype::describe() const {
  std::ostringstream os;
  const TypeNode& n = *node_;
  switch (n.kind) {
    case Kind::bytes:
      os << "bytes{" << n.size << "}";
      break;
    case Kind::contiguous:
      os << "contiguous{count=" << n.count << "}";
      break;
    case Kind::hvector:
      os << "hvector{count=" << n.count << ",blocklen=" << n.blocklen
         << ",stride=" << n.stride_bytes << "B}";
      break;
    case Kind::subarray: {
      auto join = [](const std::vector<int>& v) {
        std::string s = "[";
        for (std::size_t i = 0; i < v.size(); ++i)
          s += (i ? "," : "") + std::to_string(v[i]);
        return s + "]";
      };
      os << "subarray{sizes=" << join(n.sizes) << ",sub=" << join(n.subsizes)
         << ",starts=" << join(n.starts) << "}";
      break;
    }
    case Kind::strukt:
      os << "struct{" << n.blocks.size() << " blocks}";
      break;
    case Kind::resized:
      os << "resized{extent=" << n.extent << "}";
      break;
  }
  os << " size=" << n.size << " extent=" << n.extent;
  return os.str();
}

}  // namespace mpi
