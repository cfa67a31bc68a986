// rebalance: the paper's dynamic-layout case. The 64^3 domain is cut into
// 4096 blocks of 4^3 that are dealt to the ranks at random every op, so each
// op pays a fresh Redistributor, setup(automatic) and one redistribute()
// over ~1024 owned chunks per rank into fixed 2x2x1 bricks. Set-up
// dominates (validate, overlap scan, metadata allgathers, plan.decide) and
// no steady-state reuse applies; the domain fits in cache. Sudarsan &
// Ribbens (arXiv 0706.2146): the schedule structure, not the data, sets the
// cost of such a re-layout.

#include <algorithm>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "ddr/redistributor.hpp"
#include "inputs.hpp"
#include "minimpi/minimpi.hpp"
#include "suite.hpp"

namespace bench {

namespace {

constexpr int kRanks = 4;
constexpr int kN = 64;                 // domain extent per axis
constexpr int kE = 4;                  // block extent per axis
constexpr int kB = kN / kE;            // blocks per axis
constexpr int kBlocks = kB * kB * kB;  // 4096

}  // namespace

Report run_rebalance(const Options& o) {
  Report rep;
  report_host(rep);
  Shared sh(o, kRanks);
  ddr::SetupOptions so;
  so.backend = ddr::Backend::automatic;
  mpi::RunOptions ro;
  ro.deadlock_grace_s = 10.0;
  std::map<std::string, int> backends;  // written by rank 0 only
  int max_pack_threads = 0;

  mpi::run(kRanks, [&](mpi::Comm& world) {
    RankLoop loop(world, world, sh);
    const int r = world.rank();
    loop.measure_fence(20);
    const ddr::Chunk need = ddr::Chunk::d3(kN / 2, kN / 2, kN, r % 2 * kN / 2,
                                           r / 2 * kN / 2, 0);
    std::vector<float> got(static_cast<std::size_t>(need.volume()));
    for (std::uint64_t op = 0; loop.next(); ++op) {
      // Inputs of this op: the seeded deal and the closed-form fill.
      const std::vector<int> mine = deal_blocks(
          o.seed, op, kBlocks, kRanks)[static_cast<std::size_t>(r)];
      const std::uint32_t salt = op_salt(o.seed, op);
      ddr::OwnedLayout owned;
      std::vector<float> data;
      data.reserve(mine.size() * kE * kE * kE);
      for (const int b : mine) {
        const int ox = b % kB * kE, oy = b / kB % kB * kE;
        const int oz = b / (kB * kB) * kE;
        owned.push_back(ddr::Chunk::d3(kE, kE, kE, ox, oy, oz));
        for (int z = 0; z < kE; ++z)
          for (int y = 0; y < kE; ++y)
            for (int x = 0; x < kE; ++x)
              data.push_back(cell_value(salt, ox + x, oy + y, oz + z, kN));
      }

      std::optional<ddr::Redistributor> rd;
      Record& rec = loop.start();
      bool ok = true;
      try {
        {
          Call c(rec, "bench.core.setup");
          rd.emplace(world, sizeof(float));
          rd->setup(owned, need, so);
        }
        Call c(rec, "bench.core.redistribute");
        rd->redistribute(std::as_bytes(std::span(data)),
                         std::as_writable_bytes(std::span(got)));
      } catch (const std::exception& e) {
        ok = false;
        sh.note_error(e.what());
      }
      loop.stop(rec);

      // Every needed cell holds f(x, y, z) of this op.
      std::size_t i = 0;
      for (int z = 0; z < need.dims[2] && ok; ++z)
        for (int y = 0; y < need.dims[1]; ++y)
          for (int x = 0; x < need.dims[0]; ++x, ++i)
            ok = ok && got[i] == cell_value(salt, need.offsets[0] + x,
                                            need.offsets[1] + y, z, kN);
      rec.ok = ok;
      if (rd && rd->is_setup()) {
        rec.extra["core.lanes_self"] =
            rd->fused_lane_count(ddr::LaneClass::self);
        rec.extra["core.lanes_intra"] =
            rd->fused_lane_count(ddr::LaneClass::intra);
        rec.extra["core.lanes_inter"] =
            rd->fused_lane_count(ddr::LaneClass::inter);
        if (r == 0) {
          rec.extra["core.bytes_per_op"] = static_cast<double>(
              rd->stats().network_bytes + rd->stats().self_bytes);
          rec.extra["core.rounds"] = rd->rounds();
          ++backends[ddr::backend_name(rd->effective_backend())];
          max_pack_threads =
              std::max(max_pack_threads, rd->plan().pack_threads);
        }
      }
      rd.reset();
      std::fill(got.begin(), got.end(), -1.0f);
    }
  }, ro);

  const std::vector<OpAgg> all = combine(sh);
  // Every op pays set-up; setup_s is the median set-up call of the ops.
  const double setup_ms =
      median_of(select(all, false, 0), [](const OpAgg& a) {
        const auto it = a.call_wall_ms.find("bench.core.setup");
        return it == a.call_wall_ms.end() ? std::optional<double>()
                                          : std::optional(it->second);
      });
  report_ops(rep, sh, all, setup_ms / 1e3);
  report_common_layers(rep, sh, all, "bench.core.setup",
                       "bench.core.redistribute");
  std::string plans;
  for (const auto& [name, n] : backends)
    plans += (plans.empty() ? "" : ",") + name + "=" + std::to_string(n);
  report_plan(rep, kRanks, plans, max_pack_threads);
  rep.ctx("working_set_bytes",
          static_cast<double>(2 * kN * kN * kN * sizeof(float)));
  finish(rep, sh);
  return rep;
}

}  // namespace bench
