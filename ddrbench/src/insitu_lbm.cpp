// insitu_lbm: the paper's use case B, in transit. World ranks 0-1 analyse,
// ranks 2-3 run a 1024x256 LBM wind tunnel that streams one vorticity frame
// every kStepsPerFrame steps. Per frame the analysis side redistributes the
// received slabs into near-square rectangles (default SetupOptions, so the
// paper's alltoallw path, set up once), colormaps them, gathers the tiles on
// rank 0 and encodes a JPEG. Redistribution is a small share of this
// application step, so a DDR gain should barely move it; the lbm, stream,
// image and jpegenc layers carry it.

#include <algorithm>
#include <atomic>
#include <cstring>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "ddr/redistributor.hpp"
#include "image/colormap.hpp"
#include "jpegenc/jpeg.hpp"
#include "lbm/lbm.hpp"
#include "minimpi/minimpi.hpp"
#include "stream/stream.hpp"
#include "suite.hpp"

namespace bench {

namespace {

constexpr int kViz = 2;  // analysis ranks: world ranks [0, kViz)
constexpr int kSim = 2;  // LBM ranks: world ranks [kViz, kViz + kSim)
constexpr int kNx = 1024;
constexpr int kNy = 256;
/// LBM steps per streamed frame: enough that the analysis side (including
/// the benchmark's own check) keeps up, so frames do not queue.
constexpr int kStepsPerFrame = 6;
/// Set-up rounds before the stream starts (each a few milliseconds).
constexpr int kSetupRounds = 15;
constexpr int kMaxFrames = 1 << 16;
constexpr int kTileTag = 50;

lbm::Params lbm_params() {
  lbm::Params p;
  p.nx = kNx;
  p.ny = kNy;
  p.u0 = 0.08;
  p.viscosity = 0.03;
  p.barrier = lbm::Params::vertical_barrier(kNx / 4, kNy / 3, 2 * kNy / 3);
  return p;
}

img::RgbImage colormap_tile(const std::vector<float>& data,
                            const ddr::Chunk& rect) {
  const img::Colormap& cm = img::Colormap::blue_white_red();
  const auto w = static_cast<std::uint32_t>(rect.dims[0]);
  const auto h = static_cast<std::uint32_t>(rect.dims[1]);
  img::RgbImage tile(w, h);
  for (std::uint32_t y = 0; y < h; ++y)
    for (std::uint32_t x = 0; x < w; ++x)
      tile.at(x, y) = cm.map(data[y * w + x], -0.06, 0.06);
  return tile;
}

/// Gathers every analysis rank's tile on analysis rank 0 and pastes them
/// into the full frame there (empty image elsewhere).
img::RgbImage gather_tiles(const mpi::Comm& group, const img::RgbImage& tile,
                           const std::array<int, 2>& grid) {
  const mpi::Datatype px = mpi::Datatype::bytes(sizeof(img::Rgb));
  if (group.rank() != 0) {
    group.send(tile.pixels().data(), tile.pixels().size(), px, 0, kTileTag);
    return {};
  }
  img::RgbImage full(kNx, kNy);
  for (int q = 0; q < group.size(); ++q) {
    const ddr::Chunk rq = stream::consumer_rect(q, grid, kNx, kNy);
    img::RgbImage t = tile;
    if (q != 0) {
      t = img::RgbImage(static_cast<std::uint32_t>(rq.dims[0]),
                        static_cast<std::uint32_t>(rq.dims[1]));
      group.recv(t.pixels().data(), t.pixels().size(), px, q, kTileTag);
    }
    for (int y = 0; y < rq.dims[1]; ++y)
      std::memcpy(&full.at(static_cast<std::uint32_t>(rq.offsets[0]),
                           static_cast<std::uint32_t>(rq.offsets[1] + y)),
                  &t.at(0, static_cast<std::uint32_t>(y)),
                  static_cast<std::size_t>(rq.dims[0]) * sizeof(img::Rgb));
  }
  return full;
}

/// True when `rect_data` equals the matching rows of the full frame, which
/// the analysis ranks assemble from their received slabs over `check`.
bool rect_matches_frames(const mpi::Comm& check,
                         const std::vector<float>& owned,
                         const std::vector<float>& rect_data,
                         const ddr::Chunk& rect) {
  const mpi::Datatype i32 = mpi::Datatype::of<int>();
  const mpi::Datatype f32 = mpi::Datatype::of<float>();
  const int mine = static_cast<int>(owned.size());
  std::vector<int> counts(kViz), displs(kViz);
  check.allgather(&mine, 1, i32, counts.data(), 1, i32);
  for (int q = 1; q < kViz; ++q) displs[q] = displs[q - 1] + counts[q - 1];
  // The sizes are allgathered, so every analysis rank takes this branch
  // alike.
  if (displs[kViz - 1] + counts[kViz - 1] != kNx * kNy) return false;
  std::vector<float> field(static_cast<std::size_t>(kNx) * kNy);
  check.allgatherv(owned.data(), owned.size(), f32, field.data(), counts,
                   displs, f32);
  const auto w = static_cast<std::size_t>(rect.dims[0]);
  for (std::size_t y = 0; y < static_cast<std::size_t>(rect.dims[1]); ++y) {
    const std::size_t row = static_cast<std::size_t>(rect.offsets[1]) + y;
    const float* want =
        &field[row * kNx + static_cast<std::size_t>(rect.offsets[0])];
    if (std::memcmp(&rect_data[y * w], want, w * sizeof(float)) != 0)
      return false;
  }
  return true;
}

}  // namespace

Report run_insitu_lbm(const Options& o) {
  Report rep;
  report_host(rep);
  Shared sh(o, kViz + kSim);
  mpi::RunOptions ro;
  ro.deadlock_grace_s = 10.0;
  // Send time of every frame per producer, and frames produced so far.
  std::vector<std::atomic<double>> t_send(kSim * kMaxFrames);
  std::atomic<int> produced{0};

  mpi::run(kViz + kSim, [&](mpi::Comm& world) {
    const int wr = world.rank();
    const bool viz = wr < kViz;
    const mpi::Comm group = world.split(viz ? 0 : 1, wr);
    RankLoop loop(world, viz ? group : mpi::Comm(), sh);
    loop.measure_fence(20);
    const stream::MNMapping mapping(kSim, kViz);
    const lbm::Params params = lbm_params();
    const std::array<int, 2> grid = stream::consumer_grid(kViz, kNx, kNy);
    const ddr::Chunk rect = stream::consumer_rect(viz ? wr : 0, grid, kNx, kNy);
    const mpi::Comm check = viz ? group.dup() : mpi::Comm();

    // Handshake frame (untimed): the analysis side learns the slab layout
    // from the first frame, as an in-transit consumer would.
    std::optional<lbm::DistributedLbm> sim;
    std::optional<stream::Producer> out;
    std::optional<stream::Consumer> in;
    std::optional<ddr::Redistributor> rd;
    ddr::OwnedLayout owned_layout;
    if (!viz) {
      sim.emplace(group, params);
      out.emplace(world, mapping.consumer_of(group.rank()));
      const int y0 = sim->row_start(group.rank());
      const int ny = sim->row_start(group.rank() + 1) - y0;
      out->send_frame({-1, y0, ny, kNx}, sim->local_vorticity());
    } else {
      const auto [lo, hi] = mapping.producers_of(wr);
      std::vector<int> sources;
      for (int p = lo; p < hi; ++p) sources.push_back(kViz + p);
      in.emplace(world, sources);
      owned_layout = stream::frames_layout(in->receive_step());
    }

    for (int s = 0; s < kSetupRounds; ++s) {
      rd.reset();
      if (!viz) sim.reset();
      loop.fence();
      Record& rec = loop.start(/*setup=*/true);
      if (viz) {
        Call c(rec, "bench.core.setup");
        rd.emplace(group, sizeof(float));
        rd->setup(owned_layout, rect);
      } else {
        Call c(rec, "bench.lbm.init");
        sim.emplace(group, params);
      }
      loop.stop(rec);
    }
    std::map<std::string, double> per_op;  // fixed mapping: same every frame
    if (viz) {
      per_op["core.lanes_self"] = rd->fused_lane_count(ddr::LaneClass::self);
      per_op["core.lanes_intra"] = rd->fused_lane_count(ddr::LaneClass::intra);
      per_op["core.lanes_inter"] = rd->fused_lane_count(ddr::LaneClass::inter);
    }
    if (wr == 0) {
      per_op["core.bytes_per_op"] = static_cast<double>(
          rd->stats().network_bytes + rd->stats().self_bytes);
      per_op["core.rounds"] = rd->rounds();
      report_plan(rep, kViz + kSim, ddr::backend_name(rd->effective_backend()),
                  rd->plan().pack_threads);
      rep.ctx("steps_per_frame", static_cast<double>(kStepsPerFrame));
      // Two D2Q9 distribution sets plus the vorticity frame and rectangle.
      rep.ctx("working_set_bytes",
              static_cast<double>(kNx) * kNy *
                  (9 * 2 * sizeof(double) + 2 * sizeof(float)));
    }

    loop.fence();
    loop.mark_begin();
    if (!viz) {
      const int g = group.rank();
      const double t0 = now_s();
      const int y0 = sim->row_start(g);
      const int ny = sim->row_start(g + 1) - y0;
      for (int f = 0;; ++f) {
        int go = g == 0 && now_s() - t0 < o.seconds && f < kMaxFrames;
        group.bcast(&go, 1, mpi::Datatype::of<int>(), 0);
        if (go == 0) {
          out->send_frame({-2, y0, 0, kNx}, {});  // end of stream
          break;
        }
        Record& rec = loop.start();
        bool ok = true;
        try {
          {
            Call c(rec, "bench.lbm.step");
            for (int k = 0; k < kStepsPerFrame; ++k) sim->step();
          }
          std::vector<float> vort;
          {
            Call c(rec, "bench.lbm.vorticity");
            vort = sim->local_vorticity();
          }
          t_send[static_cast<std::size_t>(g * kMaxFrames + f)].store(now_s());
          Call c(rec, "bench.stream.send_frame");
          out->send_frame({f, y0, ny, kNx}, vort);
        } catch (const std::exception& e) {
          ok = false;
          sh.note_error(e.what());
        }
        if (g == 0) produced.fetch_add(1);
        loop.stop(rec);
        rec.wall_ms = -1.0;  // latency is timed on the analysis side
        rec.ok = ok;
      }
    } else {
      std::vector<float> rect_data(static_cast<std::size_t>(rect.volume()));
      double prev_done = 0.0;
      for (int f = 0;; ++f) {
        const double w0 = now_s();
        const std::vector<stream::Frame> frames = in->receive_step();
        const double wait_ms = (now_s() - w0) * 1e3;
        if (frames.front().header.step < 0) break;
        const int backlog = produced.load() - (f + 1);

        Record& rec = loop.start();
        bool ok = true;
        std::vector<float> owned;
        std::vector<std::byte> jpg;
        double t_done = 0.0;
        try {
          {
            Call c(rec, "bench.stream.concat_frames");
            owned = stream::concat_frames(frames);
          }
          {
            Call c(rec, "bench.core.redistribute");
            rd->redistribute(std::as_bytes(std::span(owned)),
                             std::as_writable_bytes(std::span(rect_data)));
          }
          img::RgbImage tile;
          {
            Call c(rec, "bench.image.colormap");
            tile = colormap_tile(rect_data, rect);
          }
          img::RgbImage full;
          {
            Call c(rec, "bench.minimpi.gather_tiles");
            full = gather_tiles(group, tile, grid);
          }
          if (wr == 0) {
            Call c(rec, "bench.jpegenc.encode");
            jpg = jpeg::encode(full);
          }
          t_done = now_s();
        } catch (const std::exception& e) {
          ok = false;
          sh.note_error(e.what());
        }
        loop.stop(rec);
        rec.extra = per_op;
        rec.extra["stream.receive_wait_ms"] = wait_ms;
        rec.wall_ms = -1.0;
        if (wr == 0) {
          // Frame latency: first producer's send to the encoded JPEG.
          double first = t_send[static_cast<std::size_t>(f)].load();
          for (int p = 1; p < kSim; ++p)
            first = std::min(
                first, t_send[static_cast<std::size_t>(p * kMaxFrames + f)]
                           .load());
          rec.wall_ms = (t_done - first) * 1e3;
          if (f > 0)
            rec.extra["frame_interval_ms"] = (t_done - prev_done) * 1e3;
          prev_done = t_done;
          rec.extra["stream.backlog_frames"] = backlog;
          rec.extra["jpegenc.bytes_per_frame"] =
              static_cast<double>(jpg.size());
        }

        // Check (untimed, on its own communicator): every frame belongs to
        // this op, the rectangle equals the matching rows of the frames, and
        // the JPEG decodes to the full frame size.
        for (const stream::Frame& fr : frames) ok = ok && fr.header.step == f;
        ok = rect_matches_frames(check, owned, rect_data, rect) && ok;
        if (wr == 0 && ok) {
          const img::RgbImage back = jpeg::decode(jpg);
          ok = back.width() == kNx && back.height() == kNy;
        }
        rec.ok = ok;
        std::fill(rect_data.begin(), rect_data.end(), 0.0f);
      }
    }
    loop.fence();
    loop.mark_end();
  }, ro);

  const std::vector<OpAgg> all = combine(sh);
  report_ops(rep, sh, all);
  // The pipeline's frame rate: the reciprocal of the median interval
  // between consecutive encoded frames (the LBM side sets the pace).
  const double interval_ms = extra_median(all, "frame_interval_ms");
  rep.e2e("ops_per_s", interval_ms > 0 ? 1e3 / interval_ms : 0.0, "1/s");
  rep.ctx("frames_per_window_s",
          sh.window_s > 0 ? select(all, false, -1).size() / sh.window_s : 0.0);
  report_common_layers(rep, sh, all, "bench.core.setup",
                       "bench.core.redistribute");

  rep.layer("lbm.step_ms",
            traced_span_ms(all, "bench.lbm.step", kStepsPerFrame), "ms");
  rep.layer("lbm.vorticity_ms", traced_span_ms(all, "bench.lbm.vorticity"),
            "ms");
  rep.layer("stream.send_frame_ms",
            traced_span_ms(all, "bench.stream.send_frame"), "ms");
  rep.layer("stream.receive_wait_ms",
            extra_median(all, "stream.receive_wait_ms") / kViz, "ms");
  double backlog = 0.0;
  for (const OpAgg* a : select(all, false, -1))
    if (const auto it = a->extra.find("stream.backlog_frames");
        it != a->extra.end())
      backlog = std::max(backlog, it->second);
  rep.layer("stream.backlog_frames", backlog, "count");
  rep.layer("image.colormap_ms", traced_span_ms(all, "bench.image.colormap"),
            "ms");
  rep.layer("jpegenc.encode_ms", traced_span_ms(all, "bench.jpegenc.encode"),
            "ms");
  // Table IV: the JPEG against the raw float frame it replaces.
  const double jpeg_bytes = extra_median(all, "jpegenc.bytes_per_frame");
  rep.layer("jpegenc.bytes_per_frame", jpeg_bytes, "B");
  rep.layer("jpegenc.reduction_ratio",
            1.0 - jpeg_bytes / (static_cast<double>(kNx) * kNy * sizeof(float)),
            "ratio");
  finish(rep, sh);
  return rep;
}

}  // namespace bench
