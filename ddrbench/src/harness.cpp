#include "harness.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "minimpi/datatype.hpp"

namespace bench {

namespace {

constexpr int kTokenTag = 901;
constexpr int kGoTag = 902;
/// Events a rank keeps for the Chrome trace; beyond this the recorder is
/// cleared between ops (after they were summarized), so memory stays flat.
constexpr std::size_t kKeepEvents = 50000;

/// Every per-layer metric, in report order, with its unit. A traced run
/// reports all of them; a layer the workload does not reach reads 0.
constexpr std::pair<const char*, const char*> kLayerMetrics[] = {
    {"core.setup_ms", "ms"},
    {"core.setup_cpu_ms", "ms"},
    {"core.setup.exchange_ms", "ms"},
    {"core.setup.validate_ms", "ms"},
    {"core.mapping.build_ms", "ms"},
    {"core.mapping.precompile_ms", "ms"},
    {"core.plan.decide_ms", "ms"},
    {"core.setup.reserve_staging_ms", "ms"},
    {"core.redistribute_ms", "ms"},
    {"core.redistribute_cpu_ms", "ms"},
    {"core.redistribute_share", "ratio"},
    {"core.setup_share", "ratio"},
    {"core.exchange_ms", "ms"},
    {"core.pack_ms", "ms"},
    {"core.wait_ms", "ms"},
    {"core.intra_copy_ms", "ms"},
    {"core.agreement_ms", "ms"},
    {"core.bytes_per_op", "B"},
    {"core.rounds", "count"},
    {"core.lanes_self", "count"},
    {"core.lanes_intra", "count"},
    {"core.lanes_inter", "count"},
    {"core.pencil_1rank_step_ms", "ms"},
    {"workloads.transpose0_ms", "ms"},
    {"workloads.transpose1_ms", "ms"},
    {"workloads.transpose2_ms", "ms"},
    {"workloads.transpose3_ms", "ms"},
    {"minimpi.msgs_per_op", "count"},
    {"minimpi.staging_acquires_per_op", "count"},
    {"minimpi.staging_heap_allocs_per_op", "count"},
    {"minimpi.staging_peak_bytes", "B"},
    {"minimpi.collective_ms", "ms"},
    {"minimpi.alltoallw_ms", "ms"},
    {"minimpi.copy_regions_ms", "ms"},
    {"simnet.charged_ms_per_op", "ms"},
    {"simnet.rank_skew_ms", "ms"},
    {"trace.overhead_ratio", "ratio"},
    {"trace.events_per_op", "count"},
    {"lbm.step_ms", "ms"},
    {"lbm.vorticity_ms", "ms"},
    {"stream.send_frame_ms", "ms"},
    {"stream.receive_wait_ms", "ms"},
    {"stream.backlog_frames", "count"},
    {"image.colormap_ms", "ms"},
    {"jpegenc.encode_ms", "ms"},
    {"jpegenc.bytes_per_frame", "B"},
    {"jpegenc.reduction_ratio", "ratio"},
    {"loader.execute_ms", "ms"},
    {"loader.images_read", "count"},
    {"loader.bytes_read", "B"},
    {"tiff.decode_cpu_ms", "ms"},
    {"dvr.render_ms", "ms"},
    {"host.memcpy_GBps", "GB/s"},
};

/// Set-up sub-layers, reported as self time per record.
constexpr std::pair<const char*, const char*> kSetupSelf[] = {
    {"core.setup.exchange_ms", "ddr.setup.exchange"},
    {"core.setup.validate_ms", "ddr.setup.validate"},
    {"core.mapping.build_ms", "ddr.mapping.build"},
    {"core.mapping.precompile_ms", "ddr.mapping.precompile"},
    {"core.plan.decide_ms", "ddr.plan.decide"},
    {"core.setup.reserve_staging_ms", "ddr.setup.reserve_staging"},
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void append_metrics(std::ostringstream& os, const std::vector<Metric>& ms) {
  os << "{";
  for (std::size_t i = 0; i < ms.size(); ++i)
    os << (i ? ", " : "") << json_string(ms[i].name)
       << ": {\"value\": " << json_number(ms[i].value)
       << ", \"unit\": " << json_string(ms[i].unit) << "}";
  os << "}";
}

void put(std::vector<Metric>& ms, const std::string& name, double v,
         const std::string& unit) {
  for (Metric& m : ms)
    if (m.name == name) {
      m = {name, v, unit};
      return;
    }
  ms.push_back({name, v, unit});
}

/// Self time (ms) summed over several span names (or "parent>child" edges),
/// present when any of them is.
std::optional<double> self_ms(const OpAgg& a,
                              std::initializer_list<const char*> names,
                              bool edges) {
  const std::map<std::string, OpAgg::Stat>& m = edges ? a.edge : a.span;
  std::optional<double> sum;
  for (const char* n : names)
    if (const auto it = m.find(n); it != m.end())
      sum = sum.value_or(0.0) + it->second.self_us / 1e3;
  return sum;
}

std::size_t sysfs_cache_bytes(int level) {
  for (int i = 0; i < 8; ++i) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i) + "/";
    std::ifstream lv(dir + "level"), sz(dir + "size"), ty(dir + "type");
    int l = 0;
    std::string size, type;
    if (!(lv >> l) || !(sz >> size)) continue;
    ty >> type;
    if (l != level || type == "Instruction") continue;
    std::size_t n = std::stoull(size);
    if (size.back() == 'K') n <<= 10;
    if (size.back() == 'M') n <<= 20;
    return n;
  }
  return 0;
}

}  // namespace

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

// --- Call -------------------------------------------------------------------

Call::Call(Record& rec, const char* name)
    : rec_(rec), name_(name), tr_(trace::current()) {
  if (tr_ != nullptr) tr_->begin(name_, {.value = rec_.id});
  c0_ = thread_cpu_s();
  t0_ = now_s();
}

Call::~Call() {
  const double t1 = now_s();
  const double c1 = thread_cpu_s();
  if (tr_ != nullptr) tr_->end(name_);
  rec_.call_wall_ms[name_] += (t1 - t0_) * 1e3;
  rec_.call_cpu_ms[name_] += (c1 - c0_) * 1e3;
}

// --- Shared / RankLoop ------------------------------------------------------

Shared::Shared(const Options& o, int n) : opt(o), recs(n) {
  for (int r = 0; r < n; ++r) {
    recorders.push_back(std::make_unique<trace::Recorder>(r));
    if (o.trace) recorders.back()->reserve(kKeepEvents + kKeepEvents / 2);
  }
}

void Shared::note_error(const std::string& what) {
  std::lock_guard lk(mu);
  if (errors.size() < 8) errors.push_back(what);
}

RankLoop::RankLoop(const mpi::Comm& world, const mpi::Comm& lib, Shared& sh)
    : sh_(sh),
      world_(world),
      fc_(world.dup()),
      lib_(lib),
      rank_(world.rank()) {}

void RankLoop::snapshot() {
  Snapshot s;
  s.msgs = fc_.messages_posted();
  if (lib_.valid()) s.staging = lib_.staging_stats();
  sh_.snaps.push_back(s);
}

bool RankLoop::fence(bool go) { return exchange(go ? 1 : 0) != 0; }

int RankLoop::exchange(int flag) {
  const mpi::Datatype i32 = mpi::Datatype::of<int>();
  if (rank_ == 0) {
    int token = 0;
    for (int r = 1; r < fc_.size(); ++r)
      fc_.recv(&token, 1, i32, r, kTokenTag);
    snapshot();  // every other rank is blocked on the go message
    for (int r = 1; r < fc_.size(); ++r) fc_.send(&flag, 1, i32, r, kGoTag);
  } else {
    const int token = 0;
    fc_.send(&token, 1, i32, 0, kTokenTag);
    fc_.recv(&flag, 1, i32, 0, kGoTag);
  }
  return flag;
}

bool RankLoop::next() {
  constexpr int kStop = 0, kGo = 1, kGoAfterSetup = 2;
  int code = kStop;
  if (rank_ == 0) {
    const double t = now_s();
    if (window_t0_ < 0.0) window_t0_ = t;
    const double in_window = t - window_t0_;
    if (in_window < sh_.opt.seconds) {
      code = kGo;
      if (setup_interval_ > 0.0 && in_window - last_setup_ >= setup_interval_) {
        code = kGoAfterSetup;
        last_setup_ = in_window;
      }
    }
  }
  code = exchange(code);
  setup_due_ = code == kGoAfterSetup;
  const bool open = code != kStop;
  if (rank_ == 0) {
    const int last = static_cast<int>(sh_.snaps.size()) - 1;
    if (sh_.window_begin < 0) sh_.window_begin = last;
    if (!open) {
      sh_.window_end = last;
      sh_.window_s = now_s() - window_t0_;
    }
  }
  return open;
}

void RankLoop::exclude_last_interval() {
  const Snapshot& a = sh_.snaps[sh_.snaps.size() - 2];
  const Snapshot& b = sh_.snaps.back();
  sh_.excluded.msgs +=
      b.msgs - a.msgs - static_cast<std::uint64_t>(sh_.fence_msgs);
  sh_.excluded.staging.acquires += b.staging.acquires - a.staging.acquires;
  sh_.excluded.staging.heap_allocations +=
      b.staging.heap_allocations - a.staging.heap_allocations;
}

void RankLoop::measure_fence(int n) {
  fence();
  // Only rank 0 touches the snapshots.
  const std::uint64_t m0 = rank_ == 0 ? sh_.snaps.back().msgs : 0;
  for (int i = 0; i < n; ++i) fence();
  if (rank_ == 0)
    sh_.fence_msgs = static_cast<double>(sh_.snaps.back().msgs - m0) / n;
}

void RankLoop::mark_begin() {
  if (rank_ == 0) {
    sh_.window_begin = static_cast<int>(sh_.snaps.size()) - 1;
    window_t0_ = now_s();
  }
}

void RankLoop::mark_end() {
  if (rank_ == 0) {
    sh_.window_end = static_cast<int>(sh_.snaps.size()) - 1;
    sh_.window_s = now_s() - window_t0_;
  }
}

Record& RankLoop::start(bool setup) {
  std::vector<Record>& mine = sh_.recs[static_cast<std::size_t>(rank_)];
  Record& r = mine.emplace_back();
  r.setup = setup;
  r.id = setup ? setups_++ : ops_++;
  r.traced = sh_.opt.trace && (setup || r.id % 2 == 1);
  if (r.traced) {
    trace::Recorder* rec = sh_.recorders[static_cast<std::size_t>(rank_)].get();
    scoped_.emplace(rec);
    ev0_ = rec->events().size();
    rec->begin(setup ? "bench.setup" : "bench.op", {.value = r.id});
  }
  v0_ = world_.clock().now();
  c0_ = thread_cpu_s();
  t0_ = now_s();
  return r;
}

void RankLoop::stop(Record& r) {
  const double t1 = now_s();
  const double c1 = thread_cpu_s();
  r.wall_ms = (t1 - t0_) * 1e3;
  r.cpu_ms = (c1 - c0_) * 1e3;
  r.charged_ms = (world_.clock().now() - v0_) * 1e3;
  if (!r.traced) return;
  trace::Recorder* rec = sh_.recorders[static_cast<std::size_t>(rank_)].get();
  rec->end(r.setup ? "bench.setup" : "bench.op");
  scoped_.reset();
  const std::vector<trace::Event>& ev = rec->events();
  r.spans = summarize_spans(std::span<const trace::Event>(ev).subspan(ev0_));
  if (!r.spans.balanced) sh_.note_error("unbalanced trace spans in a record");
  if (ev.size() > kKeepEvents) rec->clear();
}

// --- combine ----------------------------------------------------------------

std::vector<OpAgg> combine(const Shared& sh) {
  using Key = std::pair<int, int>;  // (setup, id)
  std::map<Key, OpAgg> by_key;
  std::map<Key, std::pair<double, double>> charged;  // min, max over ranks
  // How many ranks recorded each span, and each of its i-th calls.
  std::map<Key, std::map<std::string, int>> present;
  std::map<Key, std::map<std::string, std::vector<int>>> present_each;

  for (const std::vector<Record>& mine : sh.recs) {
    for (const Record& r : mine) {
      const Key key{r.setup ? 1 : 0, r.id};
      const bool first = by_key.find(key) == by_key.end();
      OpAgg& a = by_key[key];
      if (first) {
        a.id = r.id;
        a.setup = r.setup;
        a.traced = r.traced;
        charged[key] = {r.charged_ms, r.charged_ms};
      }
      a.ok = a.ok && r.ok;
      a.wall_ms = std::max(a.wall_ms, r.wall_ms);
      a.cpu_ms += r.cpu_ms;
      auto& [cmin, cmax] = charged[key];
      cmin = std::min(cmin, r.charged_ms);
      cmax = std::max(cmax, r.charged_ms);
      for (const auto& [k, v] : r.call_wall_ms)
        a.call_wall_ms[k] = std::max(a.call_wall_ms[k], v);
      for (const auto& [k, v] : r.call_cpu_ms) a.call_cpu_ms[k] += v;
      for (const auto& [k, v] : r.extra) a.extra[k] += v;
      if (!r.traced) continue;
      a.events += static_cast<double>(r.spans.events);
      auto fold = [&](std::map<std::string, OpAgg::Stat>& dst,
                      const std::map<std::string, SpanAgg>& src,
                      const std::string& prefix) {
        for (const auto& [name, s] : src) {
          OpAgg::Stat& d = dst[name];
          d.count += static_cast<double>(s.count);
          d.total_us += s.total_us;
          d.self_us += s.self_us;
          std::vector<int>& seen = present_each[key][prefix + name];
          if (d.each_us.size() < s.each_us.size()) {
            d.each_us.resize(s.each_us.size(), 0.0);
            seen.resize(s.each_us.size(), 0);
          }
          for (std::size_t i = 0; i < s.each_us.size(); ++i) {
            d.each_us[i] += s.each_us[i];
            ++seen[i];
          }
          ++present[key][prefix + name];
        }
      };
      fold(a.span, r.spans.by_name, "s:");
      fold(a.edge, r.spans.by_edge, "e:");
    }
  }

  std::vector<OpAgg> out;
  for (auto& [key, a] : by_key) {
    a.charged_ms = charged[key].second;
    a.skew_ms = charged[key].second - charged[key].first;
    // Span stats were summed over ranks; turn them into per-rank means over
    // the ranks that recorded each span.
    auto mean = [&](std::map<std::string, OpAgg::Stat>& m,
                    const std::string& prefix) {
      for (auto& [name, s] : m) {
        const double n = present[key][prefix + name];
        s.count /= n;
        s.total_us /= n;
        s.self_us /= n;
        const std::vector<int>& seen = present_each[key][prefix + name];
        for (std::size_t i = 0; i < s.each_us.size(); ++i)
          s.each_us[i] /= seen[i];
      }
    };
    mean(a.span, "s:");
    mean(a.edge, "e:");
    out.push_back(std::move(a));
  }
  return out;
}

std::vector<const OpAgg*> select(const std::vector<OpAgg>& all, bool setup,
                                 int traced) {
  std::vector<const OpAgg*> out;
  for (const OpAgg& a : all)
    if (a.setup == setup && (traced < 0 || a.traced == (traced == 1)))
      out.push_back(&a);
  return out;
}

std::optional<double> span_ms(const OpAgg& a, const std::string& name,
                              SpanKind kind) {
  const auto it = a.span.find(name);
  if (it == a.span.end()) return std::nullopt;
  const OpAgg::Stat& s = it->second;
  switch (kind) {
    case SpanKind::self:
      return s.self_us / 1e3;
    case SpanKind::per_call:
      return s.count > 0 ? s.total_us / s.count / 1e3 : 0.0;
    default:
      return s.total_us / 1e3;
  }
}

// --- Report -----------------------------------------------------------------

void Report::e2e(const std::string& name, double v, const std::string& unit) {
  put(end_to_end, name, v, unit);
}

void Report::layer(const std::string& name, double v,
                   const std::string& unit) {
  put(per_layer, name, v, unit);
}

void Report::ctx(const std::string& key, const std::string& text) {
  context.emplace_back(key, json_string(text));
}

void Report::ctx(const std::string& key, double v) {
  context.emplace_back(key, json_number(v));
}

std::string Report::json() const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"end_to_end\": ";
  append_metrics(os, end_to_end);
  os << ", \"per_layer\": ";
  append_metrics(os, per_layer);
  os << ", \"context\": {";
  for (std::size_t i = 0; i < context.size(); ++i)
    os << (i ? ", " : "") << json_string(context[i].first) << ": "
       << context[i].second;
  os << "}}";
  return os.str();
}

// --- standard metrics -------------------------------------------------------

double traced_span_ms(const std::vector<OpAgg>& all, const char* name,
                      double div) {
  return median_of(select(all, false, 1),
                   [&](const OpAgg& a) -> std::optional<double> {
                     const std::optional<double> ms =
                         span_ms(a, name, SpanKind::total);
                     if (!ms) return std::nullopt;
                     return *ms / div;
                   });
}

double extra_median(const std::vector<OpAgg>& all, const char* name) {
  return median_of(select(all, false, -1),
                   [&](const OpAgg& a) -> std::optional<double> {
                     const auto it = a.extra.find(name);
                     if (it == a.extra.end()) return std::nullopt;
                     return it->second;
                   });
}

void report_plan(Report& rep, int nranks, const std::string& backends,
                 int pack_threads) {
  rep.ctx("planned_backends", backends);
  rep.ctx("pack_threads", static_cast<double>(pack_threads));
  const int threads = nranks * (1 + pack_threads);
  const int cores = static_cast<int>(std::thread::hardware_concurrency());
  rep.ctx("oversubscribed", threads > cores ? "yes" : "no");
}

void report_ops(Report& rep, const Shared& sh, const std::vector<OpAgg>& all,
                std::optional<double> setup_s) {
  const auto wall = [](const OpAgg& a) { return std::optional(a.wall_ms); };
  const auto cpu = [](const OpAgg& a) { return std::optional(a.cpu_ms); };
  const std::vector<const OpAgg*> setups = select(all, true, -1);
  if (!setup_s) setup_s = median_of(setups, wall) / 1e3;
  const std::vector<const OpAgg*> ops = select(all, false, -1);
  const std::vector<const OpAgg*> plain = select(all, false, 0);
  rep.attempted = static_cast<long>(ops.size());
  for (const OpAgg* a : ops)
    if (!a->ok) ++rep.failed;
  std::vector<double> walls;
  double wall_sum_s = 0.0;
  for (const OpAgg* a : plain) {
    walls.push_back(a->wall_ms);
    wall_sum_s += a->wall_ms / 1e3;
  }
  const TailPercentile tail = tail_percentile(walls);
  rep.e2e("setup_s", *setup_s, "s");
  rep.e2e("op_p50_ms", median(walls), "ms");
  rep.e2e("ops_per_s", wall_sum_s > 0 ? walls.size() / wall_sum_s : 0.0,
          "1/s");
  rep.e2e("cpu_ms_per_op", median_of(plain, cpu), "ms");
  rep.e2e("peak_rss_MiB", peak_rss_MiB(), "MiB");
  rep.ctx("fail_ratio", ops.empty() ? 0.0
                                    : static_cast<double>(rep.failed) /
                                          static_cast<double>(ops.size()));
  // The tail is printed, not gated: on a shared host its run-to-run spread
  // exceeds any bound a regression check could use.
  rep.ctx("op_p95_ms", tail.value);
  rep.ctx("op_samples", static_cast<double>(walls.size()));
  rep.ctx("op_p95_ms.percentile", tail.pct);
  rep.ctx("op_p95_ms.samples_beyond", static_cast<double>(tail.beyond));
  rep.ctx("op_window_s", sh.window_s);
  rep.ctx("setup_samples", static_cast<double>(setups.size()));
}

void report_common_layers(Report& rep, const Shared& sh,
                          const std::vector<OpAgg>& all,
                          const char* setup_call,
                          const char* redistribute_call) {
  const std::vector<const OpAgg*> traced_ops = select(all, false, 1);
  const std::vector<const OpAgg*> plain_ops = select(all, false, 0);
  const std::vector<const OpAgg*> every_op = select(all, false, -1);
  // Set-up spans sit in set-up rounds or, on rebalance, in the ops.
  std::vector<const OpAgg*> traced_any = select(all, true, 1);
  traced_any.insert(traced_any.end(), traced_ops.begin(), traced_ops.end());

  auto span_med = [](const std::vector<const OpAgg*>& recs, const char* name,
                     SpanKind kind) {
    return median_of(recs,
                     [&](const OpAgg& a) { return span_ms(a, name, kind); });
  };
  // Thread-CPU of a bench call, summed over ranks, per library call inside.
  auto cpu_per_call = [&](const char* call, const char* span) {
    if (call == nullptr) return 0.0;
    return median_of(traced_any, [&](const OpAgg& a) -> std::optional<double> {
      const auto c = a.call_cpu_ms.find(call);
      const auto s = a.span.find(span);
      if (c == a.call_cpu_ms.end() || s == a.span.end() ||
          s->second.count <= 0)
        return std::nullopt;
      return c->second / s->second.count;
    });
  };
  auto share = [&](const char* span) {
    return median_of(traced_ops, [&](const OpAgg& a) -> std::optional<double> {
      const std::optional<double> ms = span_ms(a, span, SpanKind::total);
      if (!ms || a.wall_ms <= 0) return std::nullopt;
      return *ms / a.wall_ms;
    });
  };
  auto family = [&](std::initializer_list<const char*> names,
                    bool edges = false) {
    return median_of(traced_ops,
                     [&](const OpAgg& a) { return self_ms(a, names, edges); });
  };

  rep.layer("core.setup_ms",
            span_med(traced_any, "ddr.setup", SpanKind::per_call), "ms");
  rep.layer("core.setup_cpu_ms", cpu_per_call(setup_call, "ddr.setup"), "ms");
  for (const auto& [metric, span] : kSetupSelf)
    rep.layer(metric, span_med(traced_any, span, SpanKind::self), "ms");
  rep.layer("core.redistribute_ms",
            span_med(traced_ops, "ddr.redistribute", SpanKind::per_call),
            "ms");
  rep.layer("core.redistribute_cpu_ms",
            cpu_per_call(redistribute_call, "ddr.redistribute"), "ms");
  rep.layer("core.redistribute_share", share("ddr.redistribute"), "ratio");
  rep.layer("core.setup_share", share("ddr.setup"), "ratio");

  rep.layer("core.exchange_ms",
            family({"ddr.exchange.fused", "ddr.exchange.collective",
                    "ddr.exchange.hybrid", "ddr.exchange.reliable",
                    "ddr.round", "ddr.pipeline.post", "ddr.pipeline.complete",
                    "ddr.hybrid.self", "ddr.hybrid.intra",
                    "ddr.hybrid.inter"}),
            "ms");
  rep.layer("core.pack_ms", family({"ddr.pack.parallel", "ddr.pipeline.pack"}),
            "ms");
  rep.layer("core.wait_ms", family({"ddr.wait_all"}), "ms");
  rep.layer("core.intra_copy_ms", family({"ddr.intra.copy"}), "ms");
  // The precondition allreduce (reduce + bcast) directly inside
  // ddr.redistribute.
  rep.layer("core.agreement_ms",
            family({"ddr.redistribute>mpi.reduce",
                    "ddr.redistribute>mpi.bcast"},
                   /*edges=*/true),
            "ms");
  rep.layer("minimpi.collective_ms",
            family({"mpi.barrier", "mpi.bcast", "mpi.reduce", "mpi.gatherv",
                    "mpi.scatterv"}),
            "ms");
  rep.layer("minimpi.alltoallw_ms", family({"mpi.alltoallw"}), "ms");
  rep.layer("minimpi.copy_regions_ms", family({"mpi.copy_regions"}), "ms");

  rep.layer("core.bytes_per_op", extra_median(all, "core.bytes_per_op"), "B");
  for (const char* k : {"core.rounds", "core.lanes_self", "core.lanes_intra",
                        "core.lanes_inter"})
    rep.layer(k, extra_median(all, k), "count");

  // Window counters: exact snapshots at the fences, fences subtracted.
  if (sh.window_begin >= 0 && sh.window_end > sh.window_begin &&
      !every_op.empty()) {
    const Snapshot& s0 = sh.snaps[static_cast<std::size_t>(sh.window_begin)];
    const Snapshot& s1 = sh.snaps[static_cast<std::size_t>(sh.window_end)];
    const double fences = sh.window_end - sh.window_begin;
    const double n = static_cast<double>(every_op.size());
    auto per_op = [&](std::uint64_t before, std::uint64_t after,
                      std::uint64_t excluded) {
      return static_cast<double>(after - before - excluded) / n;
    };
    const Snapshot& ex = sh.excluded;
    rep.layer("minimpi.msgs_per_op",
              per_op(s0.msgs, s1.msgs, ex.msgs) - fences * sh.fence_msgs / n,
              "count");
    rep.layer("minimpi.staging_acquires_per_op",
              per_op(s0.staging.acquires, s1.staging.acquires,
                     ex.staging.acquires),
              "count");
    rep.layer("minimpi.staging_heap_allocs_per_op",
              per_op(s0.staging.heap_allocations, s1.staging.heap_allocations,
                     ex.staging.heap_allocations),
              "count");
    rep.layer("minimpi.staging_peak_bytes",
              static_cast<double>(s1.staging.peak_live_bytes), "B");
  }
  rep.ctx("bench_fence_msgs", sh.fence_msgs);

  const auto wall = [](const OpAgg& a) { return std::optional(a.wall_ms); };
  const double traced_p50 = median_of(traced_ops, wall);
  const double plain_p50 = median_of(plain_ops, wall);
  rep.layer("trace.overhead_ratio",
            plain_p50 > 0 ? traced_p50 / plain_p50 : 0.0, "ratio");
  rep.ctx("trace.overhead_ratio.traced_p50_ms", traced_p50);
  rep.ctx("trace.overhead_ratio.untraced_p50_ms", plain_p50);
  rep.ctx("trace.traced_ops", static_cast<double>(traced_ops.size()));
  rep.layer("trace.events_per_op",
            median_of(traced_ops,
                      [](const OpAgg& a) { return std::optional(a.events); }),
            "count");
}

void finish(Report& rep, Shared& sh) {
  {
    std::lock_guard lk(sh.mu);
    for (std::size_t i = 0; i < sh.errors.size(); ++i)
      rep.ctx("error." + std::to_string(i), sh.errors[i]);
    rep.correct = rep.failed == 0 && sh.errors.empty();
  }
  // The full per-layer list, in order; layers the workload did not reach
  // read 0.
  std::vector<Metric> ordered;
  for (const auto& [name, unit] : kLayerMetrics) {
    Metric m{name, 0.0, unit};
    for (const Metric& have : rep.per_layer)
      if (have.name == name) m = have;
    ordered.push_back(m);
  }
  rep.per_layer = std::move(ordered);
  if (!sh.opt.trace) return;

  std::filesystem::create_directories(sh.opt.work_dir + "/traces");
  const std::string path =
      sh.opt.work_dir + "/traces/" + sh.opt.workload + ".json";
  std::ofstream os(path);
  std::vector<const trace::Recorder*> recs;
  for (const auto& r : sh.recorders) recs.push_back(r.get());
  trace::write_chrome_json(os, recs, sh.opt.workload);
  rep.ctx("trace_file", path);
}

// --- host facts -------------------------------------------------------------

void warm_up_cpus(double seconds) {
  const double until = now_s() + seconds;
  std::vector<std::thread> pool;
  for (unsigned i = 0; i < std::max(1u, std::thread::hardware_concurrency());
       ++i)
    pool.emplace_back([until] {
      volatile double x = 1.0;
      while (now_s() < until) x = x * 1.0000001;
    });
  for (std::thread& t : pool) t.join();
}

std::size_t l3_bytes() {
  const long v = sysconf(_SC_LEVEL3_CACHE_SIZE);
  return v > 0 ? static_cast<std::size_t>(v) : sysfs_cache_bytes(3);
}

void report_host(Report& rep) {
  const long l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
  rep.ctx("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  rep.ctx("l2_bytes", static_cast<double>(l2 > 0 ? static_cast<std::size_t>(l2)
                                                 : sysfs_cache_bytes(2)));
  rep.ctx("l3_bytes", static_cast<double>(l3_bytes()));
  rep.ctx("pack_kernel", mpi::pack_kernel_name());
}

double memcpy_GBps(std::size_t bytes) {
  std::vector<char> src(bytes, 1), dst(bytes, 0);
  std::vector<double> t;
  volatile char sink = 0;
  for (int rep = 0; rep < 3; ++rep) {
    src[static_cast<std::size_t>(rep)] = static_cast<char>(rep);
    const double t0 = now_s();
    std::memcpy(dst.data(), src.data(), bytes);
    t.push_back(now_s() - t0);
    sink = static_cast<char>(sink + dst[static_cast<std::size_t>(rep)]);
  }
  return static_cast<double>(bytes) / median(t) / 1e9;
}

double peak_rss_MiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

}  // namespace bench
