// Checks of the benchmark's own arithmetic: percentile selection, span self
// times, seed -> identical inputs, and how ranks' records combine. Prints
// every failed check and exits nonzero if there was one.
//
//   .bench_build/ddrbench_selftest

#include <cmath>
#include <cstdio>
#include <set>
#include <vector>

#include "harness.hpp"
#include "inputs.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace {

int failures = 0;

void check(bool cond, const char* what) {
  if (!cond) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++failures;
  }
}

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i > 0; --i) v.push_back(static_cast<double>(i));
  return v;  // descending, so the helpers must sort
}

void percentiles() {
  check(bench::median({3, 1, 2}) == 2.0, "median of odd count");
  check(bench::median({4, 1, 3, 2}) == 2.5, "median of even count");
  check(bench::median({}) == 0.0, "median of nothing");

  // 200 samples: p95 is rank 190 and has exactly 10 samples beyond it.
  bench::TailPercentile t = bench::tail_percentile(ramp(200));
  check(t.pct == 95.0 && t.value == 190.0 && t.beyond == 10 && t.samples == 200,
        "p95 with exactly ten samples beyond");
  // 199 samples: p95 would leave 9 beyond, so p90 (rank 180, 19 beyond).
  t = bench::tail_percentile(ramp(199));
  check(t.pct == 90.0 && t.value == 180.0 && t.beyond == 19,
        "falls back to p90");
  // 100 samples: p90 leaves 10 beyond.
  t = bench::tail_percentile(ramp(100));
  check(t.pct == 90.0 && t.value == 90.0 && t.beyond == 10, "p90 of 100");
  // 20 samples: only the median keeps ten beyond.
  t = bench::tail_percentile(ramp(20));
  check(t.pct == 50.0 && t.value == 10.0 && t.beyond == 10, "median of 20");
  // Too few samples: the median, with its short tail count reported.
  t = bench::tail_percentile(ramp(5));
  check(t.pct == 50.0 && t.value == 3.0 && t.beyond == 2,
        "short tail reported");
  // Never above the cap.
  t = bench::tail_percentile(ramp(5000));
  check(t.pct == 95.0 && t.beyond == 250, "capped at p95");
}

trace::Event ev(trace::Phase ph, const char* name, double ts) {
  trace::Event e;
  e.phase = ph;
  e.name = name;
  e.ts_us = ts;
  return e;
}

void self_times() {
  using trace::Phase;
  // op [0, 10] holds a [1, 4] (which holds c [2, 3]) and a second a [5, 8],
  // with an instant that must not count as a span.
  const std::vector<trace::Event> evs{
      ev(Phase::begin, "op", 0),  ev(Phase::begin, "a", 1),
      ev(Phase::begin, "c", 2),   ev(Phase::instant, "i", 2.5),
      ev(Phase::end, "c", 3),     ev(Phase::end, "a", 4),
      ev(Phase::begin, "a", 5),   ev(Phase::end, "a", 8),
      ev(Phase::end, "op", 10)};
  const bench::SpanSummary s = bench::summarize_spans(evs);
  check(s.balanced && s.events == evs.size(),
        "balanced stream, all events counted");
  const bench::SpanAgg& op = s.by_name.at("op");
  const bench::SpanAgg& a = s.by_name.at("a");
  const bench::SpanAgg& c = s.by_name.at("c");
  check(op.total_us == 10 && op.self_us == 4, "parent self = total - children");
  check(a.count == 2 && a.total_us == 6 && a.self_us == 5, "nested child self");
  check(c.total_us == 1 && c.self_us == 1, "leaf self = total");
  check(op.self_us + a.total_us == op.total_us, "children + self = parent");
  check(a.self_us + c.total_us == a.total_us,
        "children + self = parent (nested)");
  check(a.each_us.size() == 2 && a.each_us[0] == 3 && a.each_us[1] == 3,
        "durations kept in begin order");
  check(s.by_edge.at("op>a").count == 2 && s.by_edge.at("a>c").total_us == 1,
        "parent>child edges");
  check(s.by_edge.find("op>c") == s.by_edge.end(),
        "edges are direct children only");

  const std::vector<trace::Event> bad{ev(Phase::begin, "x", 0),
                                      ev(Phase::end, "y", 1)};
  check(!bench::summarize_spans(bad).balanced, "mismatched end detected");
}

void seeded_inputs() {
  std::vector<float> a(4096), b(4096), c(4096);
  bench::fill_floats(a, 7, 1);
  bench::fill_floats(b, 7, 1);
  bench::fill_floats(c, 8, 1);
  check(a == b, "same seed, same floats");
  check(a != c, "other seed, other floats");
  bool in_range = true;
  for (const float f : a) in_range = in_range && f >= -0.5f && f < 0.5f;
  check(in_range, "floats in [-0.5, 0.5)");

  const auto d1 = bench::deal_blocks(11, 3, 4096, 4);
  const auto d2 = bench::deal_blocks(11, 3, 4096, 4);
  const auto d3 = bench::deal_blocks(11, 4, 4096, 4);
  check(d1 == d2, "same seed and op, same deal");
  check(d1 != d3, "next op, other deal");
  std::set<int> seen;
  for (const auto& share : d1) {
    check(share.size() == 1024, "equal shares");
    seen.insert(share.begin(), share.end());
  }
  check(seen.size() == 4096 && *seen.begin() == 0 && *seen.rbegin() == 4095,
        "every block dealt exactly once");

  const std::uint32_t salt = bench::op_salt(5, 9);
  check(salt == bench::op_salt(5, 9) && salt != bench::op_salt(5, 10),
        "op salt");
  const float v = bench::cell_value(salt, 63, 63, 63, 64);
  check(v == std::floor(v) && v < 16777216.0f,
        "cell values are exact integers");
  check(bench::voxel_noise(3, 100) == bench::voxel_noise(3, 100) &&
            bench::voxel_noise(3, 100) < 1024,
        "voxel noise is seeded and 10-bit");
}

void combining() {
  // Two ranks, one op: rank 0 ran span "x" (4 us), rank 1 ran it twice
  // (2 + 4 us) and also "y"; rank 1 alone times the op.
  bench::Shared sh(bench::Options{}, 2);
  bench::Record r0, r1;
  r0.traced = r1.traced = true;
  r0.wall_ms = -1.0;
  r1.wall_ms = 3.0;
  r0.cpu_ms = 1.0;
  r1.cpu_ms = 2.0;
  r0.charged_ms = 5.0;
  r1.charged_ms = 7.0;
  r0.extra["n"] = 1.0;
  r1.ok = false;
  r0.spans.by_name["x"] = {1, 4.0, 4.0, {4.0}};
  r1.spans.by_name["x"] = {2, 6.0, 6.0, {2.0, 4.0}};
  r1.spans.by_name["y"] = {1, 8.0, 8.0, {8.0}};
  sh.recs[0].push_back(r0);
  sh.recs[1].push_back(r1);
  const std::vector<bench::OpAgg> all = bench::combine(sh);
  check(all.size() == 1, "records of one op combine into one");
  const bench::OpAgg& a = all.front();
  check(a.wall_ms == 3.0 && a.cpu_ms == 3.0 && !a.ok,
        "wall max, cpu sum, ok and");
  check(a.charged_ms == 7.0 && a.skew_ms == 2.0, "charged max and skew");
  check(a.extra.at("n") == 1.0, "extras summed");
  const bench::OpAgg::Stat& x = a.span.at("x");
  check(x.count == 1.5 && x.total_us == 5.0 && x.each_us[0] == 3.0,
        "span stats are per-rank means");
  check(x.each_us[1] == 4.0,
        "i-th call mean only over ranks with an i-th call");
  check(a.span.at("y").total_us == 8.0, "mean only over ranks with the span");
  check(*bench::span_ms(a, "x", bench::SpanKind::per_call) == 5.0 / 1.5 / 1e3,
        "per-call time");
}

}  // namespace

int main() {
  percentiles();
  self_times();
  seeded_inputs();
  combining();
  if (failures == 0) std::printf("ddrbench selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
