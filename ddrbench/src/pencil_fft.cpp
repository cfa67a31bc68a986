// pencil_fft: repeated pencil transposes, the steady state of a distributed
// FFT solver (Dalcin et al., arXiv 1804.09536). A PencilTimestepper pays
// setup once and every op is one step (4 transposes, forward and inverse),
// so the executor and pack layers dominate; the benchmark rebuilds the
// timestepper a few times across the run only to sample setup_s. The field
// (64 MiB) and its live buffers are about the size of the host's last-level
// cache, so copy bandwidth matters.

#include <algorithm>
#include <cstring>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "ddr/redistributor.hpp"
#include "inputs.hpp"
#include "minimpi/minimpi.hpp"
#include "simnet/models.hpp"
#include "suite.hpp"
#include "workloads/workloads.hpp"

namespace bench {

namespace {

constexpr int kRanks = 4;
constexpr int kN = 256;
constexpr int kSetupRounds = 7;
constexpr int kTransposes = workloads::PencilTimestepper::kTransposesPerStep;

workloads::PencilParams params(int nranks) {
  workloads::PencilParams p;
  p.nx = p.ny = p.nz = kN;
  p.nranks = nranks;
  p.elem_size = sizeof(float);
  return p;
}

ddr::SetupOptions options() {
  ddr::SetupOptions so;
  so.backend = ddr::Backend::automatic;
  return so;
}

/// The same step on one rank: the plain single-threaded baseline.
double one_rank_step_ms(std::uint64_t seed) {
  std::vector<double> t;
  mpi::run(1, [&](mpi::Comm& comm) {
    workloads::PencilTimestepper ts(comm, params(1), options());
    std::vector<float> in(ts.slab_bytes() / sizeof(float)), out(in.size());
    fill_floats(in, seed, 0);
    for (int i = 0; i < 6; ++i) {
      const double t0 = now_s();
      ts.step(std::as_bytes(std::span(in)),
              std::as_writable_bytes(std::span(out)));
      if (i > 0) t.push_back((now_s() - t0) * 1e3);
    }
  });
  return median(t);
}

}  // namespace

Report run_pencil_fft(const Options& o) {
  Report rep;
  report_host(rep);
  Shared sh(o, kRanks);
  const simnet::LinkModel net(simnet::cooley_params());
  mpi::RunOptions ro;
  ro.network = &net;
  ro.deadlock_grace_s = 10.0;

  mpi::run(kRanks, [&](mpi::Comm& world) {
    RankLoop loop(world, world, sh);
    const int r = world.rank();
    loop.measure_fence(20);

    std::optional<workloads::PencilTimestepper> ts;
    auto set_up = [&] {
      ts.reset();
      Record& rec = loop.start(/*setup=*/true);
      {
        Call c(rec, "bench.workloads.timestepper");
        ts.emplace(world, params(kRanks), options());
      }
      loop.stop(rec);
    };
    loop.fence();
    set_up();

    // Per-op counts: identical every op (the mapping is fixed).
    std::map<std::string, double> counts;
    std::string plans;
    for (int t = 0; t < kTransposes; ++t) {
      const ddr::Redistributor& rd = ts->transpose(t);
      counts["core.lanes_self"] += rd.fused_lane_count(ddr::LaneClass::self);
      counts["core.lanes_intra"] += rd.fused_lane_count(ddr::LaneClass::intra);
      counts["core.lanes_inter"] += rd.fused_lane_count(ddr::LaneClass::inter);
      if (r != 0) continue;
      counts["core.bytes_per_op"] += static_cast<double>(
          rd.stats().network_bytes + rd.stats().self_bytes);
      counts["core.rounds"] += rd.rounds();
      plans += std::string(t ? "," : "") +
               ddr::backend_name(rd.effective_backend()) +
               "/pack_threads=" + std::to_string(rd.plan().pack_threads);
    }
    if (r == 0) {
      report_plan(rep, kRanks, plans, world.pack_threads());
      const std::size_t buffers = 3 * ts->slab_bytes() +
                                  ts->pencil_y_bytes() + ts->pencil_z_bytes();
      rep.ctx("working_set_bytes", static_cast<double>(kRanks * buffers));
    }

    const std::size_t n = ts->slab_bytes() / sizeof(float);
    std::vector<float> in(n), out(n);
    fill_floats(in, o.seed, static_cast<std::uint64_t>(r));
    loop.set_setup_interval(o.seconds / kSetupRounds);
    while (loop.next()) {
      if (loop.setup_due()) loop.setup_round(set_up);
      Record& rec = loop.start();
      bool ok = true;
      try {
        Call c(rec, "bench.workloads.step");
        ts->step(std::as_bytes(std::span(in)),
                 std::as_writable_bytes(std::span(out)));
      } catch (const std::exception& e) {
        ok = false;
        sh.note_error(e.what());
      }
      loop.stop(rec);
      // The forward+inverse round trip must give back the input bytes.
      rec.ok = ok && std::memcmp(in.data(), out.data(), n * sizeof(float)) == 0;
      rec.extra = counts;
      std::memset(out.data(), 0, n * sizeof(float));
    }
  }, ro);

  const std::vector<OpAgg> all = combine(sh);
  report_ops(rep, sh, all);
  report_common_layers(rep, sh, all, "bench.workloads.timestepper",
                       "bench.workloads.step");

  const std::vector<const OpAgg*> ops = select(all, false, -1);
  rep.layer("simnet.charged_ms_per_op",
            median_of(ops, [](const OpAgg& a) {
              return std::optional(a.charged_ms);
            }),
            "ms");
  rep.layer("simnet.rank_skew_ms",
            median_of(ops,
                      [](const OpAgg& a) { return std::optional(a.skew_ms); }),
            "ms");
  // The four ddr.redistribute spans of a step, in order, are the transposes.
  for (std::size_t t = 0; t < kTransposes; ++t) {
    const double v = median_of(
        select(all, false, 1), [&](const OpAgg& a) -> std::optional<double> {
          const auto it = a.span.find("ddr.redistribute");
          if (it == a.span.end() || it->second.each_us.size() <= t)
            return std::nullopt;
          return it->second.each_us[t] / 1e3;
        });
    rep.layer("workloads.transpose" + std::to_string(t) + "_ms", v, "ms");
  }
  if (o.trace) {
    rep.layer("core.pencil_1rank_step_ms", one_rank_step_ms(o.seed), "ms");
    // Two arrays of four times the last-level cache each, so the copy
    // streams from memory rather than from cache.
    const std::size_t bytes = 4 * std::max<std::size_t>(l3_bytes(), 64 << 20);
    rep.layer("host.memcpy_GBps", memcpy_GBps(bytes), "GB/s");
    rep.ctx("host.memcpy_bytes_per_array", static_cast<double>(bytes));
  }
  finish(rep, sh);
  return rep;
}

}  // namespace bench
