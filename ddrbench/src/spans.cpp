#include "spans.hpp"

#include <cstring>

namespace bench {

namespace {

struct Open {
  const char* name;
  double begin_us;
  double child_us;
  std::size_t order;  ///< slot reserved in each_us at begin time
};

void add(SpanAgg& agg, double dur, double self, std::size_t slot) {
  ++agg.count;
  agg.total_us += dur;
  agg.self_us += self;
  agg.each_us[slot] = dur;
}

}  // namespace

SpanSummary summarize_spans(std::span<const trace::Event> events) {
  SpanSummary out;
  out.events = events.size();
  std::vector<Open> stack;
  for (const trace::Event& e : events) {
    if (e.phase == trace::Phase::begin) {
      // Reserve the duration slot now so each_us keeps begin order even
      // though spans close innermost first.
      std::vector<double>& each = out.by_name[e.name].each_us;
      each.push_back(0.0);
      stack.push_back({e.name, e.ts_us, 0.0, each.size() - 1});
    } else if (e.phase == trace::Phase::end) {
      if (stack.empty() || std::strcmp(stack.back().name, e.name) != 0) {
        out.balanced = false;
        continue;
      }
      const Open o = stack.back();
      stack.pop_back();
      const double dur = e.ts_us - o.begin_us;
      const double self = dur - o.child_us;
      add(out.by_name[o.name], dur, self, o.order);
      if (!stack.empty()) {
        stack.back().child_us += dur;
        SpanAgg& edge =
            out.by_edge[std::string(stack.back().name) + ">" + o.name];
        edge.each_us.push_back(0.0);
        add(edge, dur, self, edge.each_us.size() - 1);
      }
    }
  }
  if (!stack.empty()) out.balanced = false;
  return out;
}

}  // namespace bench
