// tiff_volume: the paper's use case A (Table II path) on 4 ranks. A seeded
// 16-bit 256^3 phantom series is written before timing; a PreparedLoad with
// the consecutive strategy (rebuilt a few times across the run to sample
// setup_s) serves every op, which reads and decodes each rank's slab of
// slices, redistributes it into DVR bricks in one alltoallw round of large
// messages, ray-casts the bricks, composites on rank 0 and encodes a JPEG
// there. It is the workload that exercises the tiff, loader and dvr layers.

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "ddr/mapping.hpp"
#include "dvr/dvr.hpp"
#include "inputs.hpp"
#include "jpegenc/jpeg.hpp"
#include "loader/tiff_loader.hpp"
#include "minimpi/minimpi.hpp"
#include "suite.hpp"
#include "tiff/phantom.hpp"

namespace bench {

namespace {

constexpr int kRanks = 4;
constexpr int kW = 256, kH = 256, kD = 256;
constexpr int kSetupRounds = 7;

std::size_t voxel(int x, int y, int z) {
  return (static_cast<std::size_t>(z) * kH + static_cast<std::size_t>(y)) *
             kW +
         static_cast<std::size_t>(x);
}

/// The seeded volume: the tooth phantom's density plus a seeded texture,
/// as 16-bit samples (x fastest). Filled slice-parallel on 4 threads.
std::vector<std::uint16_t> make_volume(std::uint64_t seed) {
  std::vector<std::uint16_t> vol(voxel(0, 0, kD));
  auto fill = [&](int z0, int z1) {
    for (int z = z0; z < z1; ++z)
      for (int y = 0; y < kH; ++y)
        for (int x = 0; x < kW; ++x) {
          const double d = tiff::tooth_phantom(
              (x + 0.5) / kW, (y + 0.5) / kH, (z + 0.5) / kD);
          const std::uint32_t v = static_cast<std::uint32_t>(d * 60000.0) +
                                  voxel_noise(seed, voxel(x, y, z));
          vol[voxel(x, y, z)] =
              static_cast<std::uint16_t>(std::min<std::uint32_t>(v, 65535));
        }
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < 4; ++t)
    pool.emplace_back(fill, kD * t / 4, kD * (t + 1) / 4);
  for (std::thread& th : pool) th.join();
  return vol;
}

}  // namespace

Report run_tiff_volume(const Options& o) {
  Report rep;
  report_host(rep);
  Shared sh(o, kRanks);

  const double g0 = now_s();
  const std::vector<std::uint16_t> vol = make_volume(o.seed);
  const std::string dir =
      o.work_dir + "/data/tiff_volume_" + std::to_string(o.seed);
  std::filesystem::remove_all(dir);
  tiff::write_series(dir, kD, [&](int z) {
    tiff::GrayImage img = tiff::GrayImage::zeros(kW, kH, 16);
    std::memcpy(img.pixels().data(), &vol[voxel(0, 0, z)],
                img.pixels().size());
    return img;
  });
  rep.ctx("input_generation_s", now_s() - g0);

  loader::SeriesInfo series;
  series.dir = dir;
  series.width = kW;
  series.height = kH;
  series.depth = kD;
  series.bytes_per_sample = 2;
  series.max_sample_value = 65535.0;
  const ddr::MappingStats stats = ddr::compute_stats(
      loader::plan_layout(kRanks, kW, kH, kD,
                          loader::Strategy::ddr_consecutive),
      series.bytes_per_sample);
  dvr::TransferFunction tf;
  tf.threshold = 0.18;
  tf.opacity_scale = 0.10;

  mpi::RunOptions ro;
  ro.deadlock_grace_s = 10.0;
  mpi::run(kRanks, [&](mpi::Comm& world) {
    RankLoop loop(world, world, sh);
    const int r = world.rank();
    loop.measure_fence(20);
    std::optional<loader::PreparedLoad> load;
    auto set_up = [&] {
      load.reset();
      Record& rec = loop.start(/*setup=*/true);
      {
        Call c(rec, "bench.loader.prepare");
        load.emplace(world, series, loader::Strategy::ddr_consecutive);
      }
      loop.stop(rec);
    };
    loop.fence();
    set_up();
    const ddr::Chunk brick = load->brick_chunk();
    loop.set_setup_interval(o.seconds / kSetupRounds);
    while (loop.next()) {
      if (loop.setup_due()) loop.setup_round(set_up);
      Record& rec = loop.start();
      bool ok = true;
      loader::LoadStats ls;
      dvr::Brick b;
      img::RgbImage image;
      std::vector<std::byte> jpg;
      try {
        {
          Call c(rec, "bench.loader.execute");
          b = load->execute(nullptr, &ls);
        }
        {
          Call c(rec, "bench.dvr.render");
          image = dvr::distributed_render(world, b, {kW, kH, kD},
                                          dvr::Axis::y, tf);
        }
        if (r == 0) {
          Call c(rec, "bench.jpegenc.encode");
          jpg = jpeg::encode(image);
        }
      } catch (const std::exception& e) {
        ok = false;
        sh.note_error(e.what());
      }
      loop.stop(rec);

      // Check: the brick is where it belongs and holds the phantom's
      // samples, normalized exactly as the loader does.
      ok = ok && b.chunk == brick &&
           b.data.size() == static_cast<std::size_t>(brick.volume());
      std::size_t i = 0;
      for (int z = 0; z < brick.dims[2] && ok; ++z)
        for (int y = 0; y < brick.dims[1]; ++y)
          for (int x = 0; x < brick.dims[0]; ++x, ++i) {
            const std::uint16_t v =
                vol[voxel(brick.offsets[0] + x, brick.offsets[1] + y,
                          brick.offsets[2] + z)];
            ok = ok &&
                 b.data[i] == static_cast<float>(v / series.max_sample_value);
          }
      if (r == 0) ok = ok && image.width() > 0 && !jpg.empty();
      rec.ok = ok;
      rec.extra["loader.images_read"] = ls.images_read;
      rec.extra["loader.bytes_read"] = static_cast<double>(ls.bytes_read);
      rec.extra["tiff.decode_cpu_ms"] = ls.decode_cpu_s * 1e3;
      if (r == 0) {
        rec.extra["jpegenc.bytes_per_frame"] = static_cast<double>(jpg.size());
        rec.extra["core.bytes_per_op"] =
            static_cast<double>(stats.network_bytes + stats.self_bytes);
        rec.extra["core.rounds"] = stats.rounds;
      }
    }
  }, ro);
  std::filesystem::remove_all(dir);

  const std::vector<OpAgg> all = combine(sh);
  report_ops(rep, sh, all);
  report_common_layers(rep, sh, all, "bench.loader.prepare", nullptr);
  rep.layer("loader.execute_ms", traced_span_ms(all, "bench.loader.execute"),
            "ms");
  rep.layer("loader.images_read", extra_median(all, "loader.images_read"),
            "count");
  rep.layer("loader.bytes_read", extra_median(all, "loader.bytes_read"), "B");
  rep.layer("tiff.decode_cpu_ms", extra_median(all, "tiff.decode_cpu_ms"),
            "ms");
  rep.layer("dvr.render_ms", traced_span_ms(all, "bench.dvr.render"), "ms");
  rep.layer("jpegenc.encode_ms", traced_span_ms(all, "bench.jpegenc.encode"),
            "ms");
  rep.layer("jpegenc.bytes_per_frame",
            extra_median(all, "jpegenc.bytes_per_frame"), "B");
  report_plan(rep, kRanks, "alltoallw (PreparedLoad default options)", 0);
  // The volume, the read slabs and their raw brick, and the float brick.
  rep.ctx("working_set_bytes",
          static_cast<double>(voxel(0, 0, kD)) *
              (3 * sizeof(std::uint16_t) + sizeof(float)));
  finish(rep, sh);
  return rep;
}

}  // namespace bench
