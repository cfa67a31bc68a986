#pragma once

/// \file harness.hpp
/// The closed-loop op harness shared by every workload.
///
/// Each rank thread runs the same sequence of ops. Before every op the ranks
/// pass a fence (RankLoop::next): every rank sends rank 0 a token, rank 0
/// takes its counter readings while all others are blocked, then releases
/// them with a go/stop flag. That makes the readings exact (nothing is in
/// flight) and the fence's own message count a constant that a bare fence
/// loop measures and the window totals subtract. The fence runs on a
/// duplicate of the world communicator, so it never touches the staging
/// pool of the communicator the library runs on.
///
/// Timing per op and rank: wall (steady_clock) and thread-CPU time around
/// the op body, and the simnet virtual clock delta. In trace mode every odd
/// op (and every set-up round) runs with a per-rank trace::Recorder
/// installed; the op body opens `bench.<layer>.<call>` spans through Call,
/// and the library's own spans land in the same stream. End-to-end numbers
/// come only from the untraced ops.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "minimpi/comm.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "trace/trace.hpp"

namespace bench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".bench_build";  ///< traces and generated data
};

[[nodiscard]] double now_s();         ///< steady clock, seconds
[[nodiscard]] double thread_cpu_s();  ///< CLOCK_THREAD_CPUTIME_ID, seconds

/// One rank's measurements of one op or one set-up round.
struct Record {
  int id = 0;
  bool setup = false;
  bool traced = false;
  bool ok = true;
  double wall_ms = -1.0;     ///< < 0: this rank does not time the op
  double cpu_ms = 0.0;
  double charged_ms = 0.0;   ///< virtual-clock delta
  std::map<std::string, double> call_wall_ms;  ///< per bench call
  std::map<std::string, double> call_cpu_ms;
  std::map<std::string, double> extra;  ///< workload values, summed on combine
  SpanSummary spans;                    ///< traced records only
};

/// Times one public library call: a `bench.<layer>.<call>` span (when a
/// recorder is installed) keyed by the op id, plus wall and thread-CPU time
/// added to the record under the span name. `name` must be a literal.
class Call {
 public:
  Call(Record& rec, const char* name);
  ~Call();
  Call(const Call&) = delete;
  Call& operator=(const Call&) = delete;

 private:
  Record& rec_;
  const char* name_;
  trace::Recorder* tr_;
  double t0_, c0_;
};

/// Exact counter readings taken on rank 0 at a fence's quiescent point.
struct Snapshot {
  std::uint64_t msgs = 0;
  mpi::StagingStats staging;
};

/// State shared by the rank threads of one run. Each rank writes only its
/// own slots; rank 0 alone writes the snapshots and context.
struct Shared {
  Shared(const Options& o, int nranks);

  Options opt;
  std::vector<std::vector<Record>> recs;                   ///< per rank
  std::vector<std::unique_ptr<trace::Recorder>> recorders;  ///< per rank
  std::vector<Snapshot> snaps;   ///< rank 0: one per fence
  int window_begin = -1;         ///< snapshot index opening the op window
  int window_end = -1;           ///< snapshot index closing it
  double fence_msgs = 0.0;       ///< messages one fence posts
  Snapshot excluded;             ///< in-window set-up traffic, not ops
  double window_s = 0.0;         ///< rank 0: op window wall time

  void note_error(const std::string& what);
  std::mutex mu;
  std::vector<std::string> errors;  ///< guarded by mu
};

/// Per-rank runner of the op loop (see file comment).
class RankLoop {
 public:
  /// Collective over `world` (duplicates it for the fences). `lib` is the
  /// communicator whose staging pool the snapshots read (rank 0 must be a
  /// member; pass an invalid Comm on ranks outside it).
  RankLoop(const mpi::Comm& world, const mpi::Comm& lib, Shared& sh);

  /// Fence over all ranks; returns rank 0's `go`.
  bool fence(bool go = true);

  /// Op-window fence: true while rank 0's window of opt.seconds is open.
  /// The first call opens the window, the one returning false closes it.
  bool next();

  /// Asks next() to schedule a set-up round every `seconds` of the window
  /// (setup_due()), so set-up is sampled across the run rather than only
  /// at its start.
  void set_setup_interval(double seconds) { setup_interval_ = seconds; }
  /// True on every rank when the last next() scheduled a set-up round.
  [[nodiscard]] bool setup_due() const { return setup_due_; }

  /// Runs `set_up` as a set-up round inside the op window, then fences, so
  /// the round's messages and staging traffic stay out of the per-op
  /// counters. Collective; call right after next().
  template <typename F>
  void setup_round(F&& set_up) {
    set_up();
    fence();
    if (rank_ == 0) exclude_last_interval();
  }

  /// Bare fence loop: measures Shared::fence_msgs.
  void measure_fence(int n);

  /// Marks the latest snapshot as the window's begin / end (for workloads
  /// that do not run one op per next()).
  void mark_begin();
  void mark_end();

  /// Starts a record: timers, and in trace mode the recorder and bench.op.
  Record& start(bool setup = false);
  /// Stops the record's timers and summarizes its spans when traced.
  void stop(Record& rec);

 private:
  void snapshot();
  /// The fence protocol; returns rank 0's `flag` on every rank.
  int exchange(int flag);
  /// Rank 0: moves the traffic between the last two snapshots (less one
  /// fence) into Shared::excluded.
  void exclude_last_interval();

  Shared& sh_;
  mpi::Comm world_, fc_, lib_;
  int rank_;
  int ops_ = 0, setups_ = 0;
  double window_t0_ = -1.0;
  double setup_interval_ = 0.0;
  double last_setup_ = 0.0;  ///< rank 0: window time of the last set-up
  bool setup_due_ = false;
  double t0_ = 0.0, c0_ = 0.0, v0_ = 0.0;
  std::size_t ev0_ = 0;
  std::optional<trace::ScopedRecorder> scoped_;
};

/// One op (or set-up round) with every rank's record combined.
struct OpAgg {
  struct Stat {
    double count = 0.0, total_us = 0.0, self_us = 0.0;
    std::vector<double> each_us;
  };
  int id = 0;
  bool setup = false;
  bool traced = false;
  bool ok = true;
  double wall_ms = 0.0;     ///< max over timing ranks
  double cpu_ms = 0.0;      ///< sum over ranks
  double charged_ms = 0.0;  ///< max over ranks
  double skew_ms = 0.0;     ///< max - min over ranks
  double events = 0.0;      ///< trace events, summed over ranks
  std::map<std::string, double> call_wall_ms;  ///< max over ranks
  std::map<std::string, double> call_cpu_ms;   ///< sum over ranks
  std::map<std::string, double> extra;         ///< sum over ranks
  /// Span stats, mean over the ranks that recorded the span.
  std::map<std::string, Stat> span, edge;
};

[[nodiscard]] std::vector<OpAgg> combine(const Shared& sh);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// A run's result: end-to-end and per-layer metrics plus run context.
struct Report {
  bool correct = true;
  long attempted = 0;
  long failed = 0;
  std::vector<Metric> end_to_end, per_layer;
  std::vector<std::pair<std::string, std::string>> context;  ///< JSON values

  void e2e(const std::string& name, double v, const std::string& unit);
  void layer(const std::string& name, double v, const std::string& unit);
  void ctx(const std::string& key, const std::string& text);
  void ctx(const std::string& key, double v);
  [[nodiscard]] std::string json() const;
};

// --- metric helpers over combined records -----------------------------------

/// Median over records of `f`, skipping records where it yields nothing.
template <typename F>
double median_of(const std::vector<const OpAgg*>& recs, F f) {
  std::vector<double> v;
  v.reserve(recs.size());
  for (const OpAgg* a : recs)
    if (const std::optional<double> x = f(*a)) v.push_back(*x);
  return median(std::move(v));
}

[[nodiscard]] std::vector<const OpAgg*> select(const std::vector<OpAgg>& all,
                                               bool setup, int traced);

/// Span-derived value of one record (ms): total or self time summed over the
/// record, or per call (total / count).
enum class SpanKind { total, self, per_call };
[[nodiscard]] std::optional<double> span_ms(const OpAgg& a,
                                            const std::string& name,
                                            SpanKind kind);

/// Median over traced ops of a span's total time (ms) divided by `div`.
[[nodiscard]] double traced_span_ms(const std::vector<OpAgg>& all,
                                    const char* name, double div = 1.0);

/// Median over all ops of a workload value (Record::extra).
[[nodiscard]] double extra_median(const std::vector<OpAgg>& all,
                                  const char* name);

/// End-to-end metrics every workload reports, from its untraced ops; fills
/// attempted/failed and the sample-count context. `setup_s` defaults to the
/// median wall time of the set-up rounds.
void report_ops(Report& rep, const Shared& sh, const std::vector<OpAgg>& all,
                std::optional<double> setup_s = std::nullopt);

/// Context of the library's execution plan: the backends it planned, the
/// PackExecutor threads per rank, and whether rank threads plus pack
/// workers exceed nproc.
void report_plan(Report& rep, int nranks, const std::string& backends,
                 int pack_threads);

/// Per-layer metrics from spans and counters common to every workload
/// (core, minimpi, trace layers). `setup_call` / `redistribute_call` name
/// the bench calls whose thread-CPU time, divided by the ddr.setup /
/// ddr.redistribute calls inside them, gives the *_cpu_ms metrics (nullptr:
/// the workload has no such call).
void report_common_layers(Report& rep, const Shared& sh,
                          const std::vector<OpAgg>& all,
                          const char* setup_call,
                          const char* redistribute_call);

/// Closes a report: records the run's errors, sets `correct`, puts the
/// per-layer list in order (a layer the workload does not reach reads 0)
/// and, in trace mode, writes every rank's retained events as Chrome trace
/// JSON to <work_dir>/traces/<workload>.json.
void finish(Report& rep, Shared& sh);

/// Keeps every core busy for `seconds`. Cores that were idle run the first
/// fraction of a second slowly, which would land in the set-up rounds.
void warm_up_cpus(double seconds);

/// Host facts for the context block: nproc and cache sizes.
void report_host(Report& rep);

/// Single-thread memcpy bandwidth over two buffers of `bytes` each.
[[nodiscard]] double memcpy_GBps(std::size_t bytes);

[[nodiscard]] std::size_t l3_bytes();
[[nodiscard]] double peak_rss_MiB();

}  // namespace bench
