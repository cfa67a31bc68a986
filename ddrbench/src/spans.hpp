#pragma once

/// \file spans.hpp
/// Layer attribution from one rank's trace events: per span name, how often
/// it ran, its total time, and its self time (its duration minus the part
/// its child spans cover).

#include <cstddef>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "trace/trace.hpp"

namespace bench {

struct SpanAgg {
  std::size_t count = 0;
  double total_us = 0.0;
  double self_us = 0.0;
  std::vector<double> each_us;  ///< every duration, in begin order
};

struct SpanSummary {
  /// Keyed by span name.
  std::map<std::string, SpanAgg> by_name;
  /// Keyed by "parent>child" for spans with a parent span.
  std::map<std::string, SpanAgg> by_edge;
  std::size_t events = 0;  ///< events of every phase in the input
  bool balanced = true;    ///< every begin had its end, in LIFO order
};

/// Summarizes one rank's events (begin/end pairs must nest; instants and
/// counters only count towards `events`).
[[nodiscard]] SpanSummary summarize_spans(std::span<const trace::Event> events);

}  // namespace bench
