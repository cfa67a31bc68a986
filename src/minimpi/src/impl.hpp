#pragma once

/// \file impl.hpp
/// Internal shared state of the minimpi runtime (not installed).

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "minimpi/comm.hpp"
#include "minimpi/fault.hpp"
#include "minimpi/sim.hpp"
#include "trace/trace.hpp"

namespace mpi::detail {

/// One in-flight message.
struct Message {
  int src = -1;  // rank in the communicator
  int tag = -1;
  std::vector<std::byte> payload;
  double depart_vtime = 0.0;  // sender's clock when the message left
};

/// Per-destination-rank mailbox. Senders push; the owner rank matches and
/// pops. `cv` wakes the owner on new arrivals and on global abort.
struct Mailbox {
  std::mutex m;
  std::condition_variable cv;
  std::deque<Message> q;
};

/// Thrown on a rank's own thread when the FaultModel kills it. Caught by the
/// runtime launcher, which marks the rank dead and lets the thread exit
/// without aborting the run (unlike ordinary exceptions).
struct RankKilled {};

/// Recycles staging buffers (message payloads, pack scratch) so the
/// steady-state data path stops allocating: once the pool holds each
/// buffer size, acquire() is a best-fit pick + resize into existing
/// capacity. Counters expose the allocation behaviour to benches and CI
/// (heap_allocs must stay flat across steady-state redistribute() calls).
///
/// Each free buffer may be pledged to the comm rank whose reserve() claimed
/// it. A pledge keeps a buffer out of other ranks' reservations, so
/// concurrent reservations add up to the union of their working sets; a
/// rank's next reservation replaces its own pledges, so reservations that
/// never run cannot pile up. acquire() ignores pledges (the pledge leaves
/// with the buffer). Every lookup scans the free list, which holds one
/// setup's working set per rank.
struct BufferPool {
  /// Returns a buffer of exactly `bytes` size (contents unspecified).
  /// Best-fit, pledged or not, so a small request never steals the capacity
  /// a concurrent large request needs (first-fit let zero-padding control
  /// messages walk off with data-sized buffers and forced the data path to
  /// reallocate).
  std::vector<std::byte> acquire(std::size_t bytes) {
    if (bytes == 0) return {};  // a zero-size vector never touches the heap
    acquires.fetch_add(1, std::memory_order_relaxed);
    note_acquired(bytes);
    {
      std::lock_guard lk(m);
      const auto best = best_fit(bytes, /*unpledged_only=*/false);
      if (best != free.end()) {
        std::vector<std::byte> buf = std::move(best->buf);
        free.erase(best);
        retained_bytes -= buf.capacity();
        buf.resize(bytes);  // within capacity: no allocation
        DDR_TRACE_INSTANT("mpi.staging.acquire",
                          {.bytes = static_cast<std::int64_t>(bytes),
                           .value = 0});
        return buf;
      }
    }
    heap_allocs.fetch_add(1, std::memory_order_relaxed);
    // value=1 flags the heap allocation; whether a given acquire hits the
    // pool depends on cross-rank pool state, so `value` is outside the
    // deterministic-structure contract (see trace.hpp).
    DDR_TRACE_INSTANT("mpi.staging.acquire",
                      {.bytes = static_cast<std::int64_t>(bytes), .value = 1});
    return std::vector<std::byte>(bytes);
  }

  /// Returns a buffer's storage to the pool, unpledged (size is irrelevant,
  /// capacity is what gets reused). The pool is byte-budgeted, not
  /// count-capped: the steady-state working set equals the peak number of
  /// in-flight payloads, which scales with ranks x rounds, so any fixed
  /// buffer count would churn (drop on release, reallocate next call) on
  /// larger exchanges.
  void release(std::vector<std::byte>&& buf) {
    if (buf.capacity() == 0) return;
    // Live-byte accounting mirrors acquire(): a buffer handed out is "live"
    // until its storage comes back here. Clamped at zero so a buffer whose
    // size changed in user hands can never drive the counter negative.
    const auto sz = static_cast<std::int64_t>(buf.size());
    std::int64_t live = live_bytes.load(std::memory_order_relaxed);
    while (!live_bytes.compare_exchange_weak(live, std::max<std::int64_t>(
                                                       0, live - sz),
                                             std::memory_order_relaxed)) {
    }
    DDR_TRACE_INSTANT("mpi.staging.release",
                      {.bytes = static_cast<std::int64_t>(buf.size())});
    buf.clear();
    std::lock_guard lk(m);
    if (retained_bytes + buf.capacity() > kMaxPooledBytes) return;
    retained_bytes += buf.capacity();
    free.push_back({kUnpledged, std::move(buf)});
  }

  /// Comm::reserve_staging for comm rank `rank`: releases the rank's earlier
  /// pledges, then pledges, largest size first, the best-fitting unpledged
  /// buffer to each size, and plants new storage (capacity only, never
  /// acquired, so the live-byte accounting is untouched) for the sizes no
  /// unpledged buffer fits, within kMaxPooledBytes.
  void reserve(int rank, std::vector<std::size_t> sizes) {
    std::sort(sizes.begin(), sizes.end(), std::greater<>());
    std::lock_guard lk(m);
    for (Pooled& p : free)
      if (p.pledgee == rank) p.pledgee = kUnpledged;
    for (const std::size_t n : sizes) {
      if (n == 0) continue;
      if (const auto best = best_fit(n, /*unpledged_only=*/true);
          best != free.end()) {
        best->pledgee = rank;
        continue;
      }
      if (retained_bytes + n > kMaxPooledBytes) continue;
      std::vector<std::byte> buf;
      buf.reserve(n);
      retained_bytes += buf.capacity();
      free.push_back({rank, std::move(buf)});
    }
  }

  /// Bytes of storage held in the free list (StagingStats::pooled_bytes).
  [[nodiscard]] std::size_t pooled_bytes() {
    std::lock_guard lk(m);
    return retained_bytes;
  }

  static constexpr std::size_t kMaxPooledBytes = std::size_t{64} << 20;
  std::atomic<std::uint64_t> acquires{0};
  std::atomic<std::uint64_t> heap_allocs{0};
  /// Bytes currently handed out (acquired, not yet released) and the
  /// high-water mark of that quantity. The peak is what a
  /// peak_staging_bytes budget on DDR's fused-lane executor bounds and what
  /// benches report as the exchange's true staging footprint.
  std::atomic<std::int64_t> live_bytes{0};
  std::atomic<std::int64_t> peak_live_bytes{0};

 private:
  static constexpr int kUnpledged = -1;
  /// A free buffer and the comm rank it is pledged to (kUnpledged: none).
  struct Pooled {
    int pledgee = kUnpledged;
    std::vector<std::byte> buf;
  };

  /// The free buffer of smallest capacity >= `bytes` (free.end() if none),
  /// among the unpledged ones only if `unpledged_only`. Caller holds m.
  std::vector<Pooled>::iterator best_fit(std::size_t bytes,
                                         bool unpledged_only) {
    auto best = free.end();
    for (auto it = free.begin(); it != free.end(); ++it) {
      if (it->buf.capacity() < bytes) continue;
      if (unpledged_only && it->pledgee != kUnpledged) continue;
      if (best == free.end() || it->buf.capacity() < best->buf.capacity())
        best = it;
    }
    return best;
  }

  void note_acquired(std::size_t bytes) {
    const std::int64_t now =
        live_bytes.fetch_add(static_cast<std::int64_t>(bytes),
                             std::memory_order_relaxed) +
        static_cast<std::int64_t>(bytes);
    std::int64_t peak = peak_live_bytes.load(std::memory_order_relaxed);
    while (now > peak && !peak_live_bytes.compare_exchange_weak(
                             peak, now, std::memory_order_relaxed)) {
    }
  }

  std::mutex m;
  std::vector<Pooled> free;        // guarded by m
  std::size_t retained_bytes = 0;  // guarded by m: capacity in `free`
};

/// Whole-run shared state. One World per mpi::run().
///
/// `size` counts every rank-thread slot of the run, including dormant slots
/// reserved by RunOptions::max_ranks that no communicator has activated yet.
/// Dormant slots are pre-counted in `gone` (they cannot act until activated),
/// so the watchdog's live-set arithmetic needs no special cases.
struct World {
  World(int nranks, int capacity, const NetworkModel* net,
        FaultModel* fault_model, double grace_s)
      : size(capacity),
        network(net),
        fault(fault_model),
        deadlock_grace_s(grace_s),
        clocks(static_cast<std::size_t>(capacity)),
        dead(static_cast<std::size_t>(capacity)),
        running(static_cast<std::size_t>(capacity)),
        deadlock_ack(static_cast<std::size_t>(capacity)),
        blocked_at(static_cast<std::size_t>(capacity)),
        blocked_tag(static_cast<std::size_t>(capacity)) {
    for (int r = 0; r < capacity; ++r) {
      running[static_cast<std::size_t>(r)].store(r < nranks,
                                                 std::memory_order_relaxed);
      blocked_at[static_cast<std::size_t>(r)].store(nullptr,
                                                    std::memory_order_relaxed);
      blocked_tag[static_cast<std::size_t>(r)].store(-1,
                                                     std::memory_order_relaxed);
    }
    gone.store(capacity - nranks, std::memory_order_relaxed);
    live_activated = nranks;
    for (int r = nranks; r < capacity; ++r) dormant.push_back(r);
  }

  int size;
  const NetworkModel* network;  // nullable
  FaultModel* fault;            // nullable
  double deadlock_grace_s;      // <= 0 disables the watchdog
  std::vector<VirtualClock> clocks;  // index: world rank

  // Set when a rank throws; blocked receives wake up and abort.
  std::atomic<bool> aborted{false};

  // --- failure & watchdog bookkeeping --------------------------------------
  // The watchdog's invariant: a deadlock exists exactly when every rank
  // thread that can still make progress (not dead, not finished) sits inside
  // a blocking wait AND the global progress counter has been quiescent for
  // the grace period. Only rank threads post messages, so once that state is
  // reached nothing can ever wake anyone again.

  /// Rank threads currently inside a blocking receive/probe wait.
  std::atomic<int> blocked{0};
  /// Rank threads that will never act again (killed by the FaultModel or
  /// returned from rank_main).
  std::atomic<int> gone{0};
  /// Bumped on every message post and every successful match; quiescence of
  /// this counter while all live ranks are blocked proves a deadlock.
  std::atomic<std::uint64_t> progress{0};
  /// Total messages posted across the run (user + collective channels,
  /// including fault-injected duplicates). Benches diff this across a call
  /// to count the messages one operation costs.
  std::atomic<std::uint64_t> messages_posted{0};
  /// Next communicator trace id (Comm::trace_id). The world communicator is
  /// built before the rank threads start, so it always takes id 0.
  std::atomic<std::uint64_t> next_comm_id{0};
  /// Killed ranks, by world rank (Comm::failed_ranks / Comm::shrink).
  std::vector<std::atomic<bool>> dead;
  /// Per-rank thread liveness (true until the thread finishes or is killed);
  /// declare_deadlock consults it to know whose acks still matter.
  std::vector<std::atomic<bool>> running;

  /// Deadlock incidents are numbered; each blocked rank throws once per
  /// incident (its own slot records the last generation it consumed), so
  /// survivors that recover on a shrunk communicator are not re-thrown at.
  /// A new incident may only be declared once every running rank has
  /// consumed the previous one: a rank with a pending throw is about to
  /// wake, unblock, and start recovering, so the world is not truly stuck.
  std::atomic<std::uint64_t> deadlock_gen{0};
  std::vector<std::atomic<std::uint64_t>> deadlock_ack;
  std::mutex deadlock_m;
  std::string deadlock_detail;

  /// Diagnostic site labels: which wait each blocked rank sits in (static
  /// string set by BlockGuard::enter, cleared on exit) and the tag it is
  /// waiting for (receives/probes; -1 for agreements and votes). The
  /// watchdog's incident message names every live rank's wait, which is the
  /// difference between "deadlock detected" and knowing which collective
  /// stranded whom.
  std::vector<std::atomic<const char*>> blocked_at;
  std::vector<std::atomic<int>> blocked_tag;

  void abort_all();
  void note_progress() {
    progress.fetch_add(1, std::memory_order_release);
  }
  void mark_dead(int world_rank);
  void mark_finished(int world_rank) {
    running[static_cast<std::size_t>(world_rank)].store(
        false, std::memory_order_release);
    gone.fetch_add(1, std::memory_order_release);
    // The live set shrank: blocked waiters must re-evaluate.
    note_progress();
  }

  /// True when no runnable rank thread is outside a blocking wait.
  [[nodiscard]] bool all_live_blocked() const {
    return blocked.load(std::memory_order_acquire) >=
           size - gone.load(std::memory_order_acquire);
  }

  /// Declares a deadlock incident (first declarer wins; the rest re-read the
  /// bumped generation and throw via throw_if_deadlocked).
  void declare_deadlock(int declaring_world_rank);

  /// Throws ErrorClass::deadlock if an incident this rank has not yet
  /// consumed is pending.
  void throw_if_deadlocked(int world_rank);

  // --- elastic resize: dormant rank slots & the join port ------------------
  // RunOptions::max_ranks parks (capacity - nranks) rank threads at startup.
  // Comm::resize() claims dormant slots and publishes a JoinTicket per slot;
  // the parked thread wakes, enters joiner_main on the child communicator,
  // and from then on behaves like any other rank. World ranks are spent
  // permanently: a retired or killed slot never returns to the dormant pool
  // (the thread has exited), which keeps every rank's view of the world-rank
  // space monotone.

  /// What a dormant thread needs to start life as a communicator member.
  struct JoinTicket {
    std::shared_ptr<CommImpl> comm;
    int rank_in_comm = -1;
    double start_vtime = 0.0;  ///< creator's clock, so joiners don't lag
  };

  std::mutex join_m;
  std::condition_variable join_cv;       ///< wakes parked dormant threads
  std::condition_variable run_done_cv;   ///< wakes run() for shutdown
  std::map<int, JoinTicket> join_tickets;  // world rank -> ticket
  std::vector<int> dormant;  ///< unclaimed world ranks, ascending
  /// Activated-and-unfinished rank threads; run() shuts the remaining
  /// dormant threads down once this reaches zero.
  int live_activated = 0;
  bool shutting_down = false;  // guarded by join_m

  /// Claims `n` dormant world ranks (ascending), all-or-nothing: returns
  /// empty when fewer than `n` remain, so a failed grow never burns slots.
  /// Claimed slots never return to the pool.
  [[nodiscard]] std::vector<int> claim_dormant(int n) {
    std::lock_guard lk(join_m);
    if (static_cast<int>(dormant.size()) < n) return {};
    std::vector<int> out(dormant.begin(), dormant.begin() + n);
    dormant.erase(dormant.begin(), dormant.begin() + n);
    return out;
  }

  /// Dormant world ranks still claimable (Comm::spawnable_ranks).
  [[nodiscard]] int dormant_count() {
    std::lock_guard lk(join_m);
    return static_cast<int>(dormant.size());
  }

  /// Activates previously claimed dormant slots as members of `comm`,
  /// occupying comm ranks [first_rank, first_rank + ranks.size()). Flips the
  /// slots live for the watchdog (ack'ed up to the current incident so a
  /// joiner never consumes a stale deadlock) before waking the threads.
  void activate(const std::vector<int>& ranks,
                const std::shared_ptr<CommImpl>& comm, int first_rank,
                double start_vtime) {
    const std::uint64_t gen = deadlock_gen.load(std::memory_order_acquire);
    {
      std::lock_guard lk(join_m);
      int next = first_rank;
      for (int wr : ranks) {
        const auto s = static_cast<std::size_t>(wr);
        deadlock_ack[s].store(gen, std::memory_order_release);
        running[s].store(true, std::memory_order_release);
        gone.fetch_sub(1, std::memory_order_release);
        ++live_activated;
        join_tickets[wr] = JoinTicket{comm, next++, start_vtime};
      }
    }
    join_cv.notify_all();
    note_progress();
  }
};

/// Shared state of one communicator.
struct CommImpl {
  CommImpl(std::shared_ptr<World> w, std::vector<int> group_world_ranks);

  std::shared_ptr<World> world;
  /// Maps communicator rank -> world rank.
  std::vector<int> group;
  int size;
  /// Trace-event `comm` key (see Comm::trace_id).
  std::uint64_t trace_id = 0;

  /// User-facing message channel and the internal collective channel
  /// (separate so user tags can never collide with collective traffic).
  std::vector<std::unique_ptr<Mailbox>> user_box;
  std::vector<std::unique_ptr<Mailbox>> coll_box;

  /// Per-rank collective sequence numbers. Each rank only touches its own
  /// slot; collectives called in the same order on all ranks stay aligned.
  std::vector<std::uint64_t> coll_seq;

  // --- split() rendezvous -------------------------------------------------
  // All ranks compute the same grouping from an allgather; the first member
  // of each new group to arrive creates the child CommImpl, later members
  // pick it up. Keyed by (per-rank split sequence, color) — the split
  // sequence is aligned across ranks because split() is a collective.
  std::mutex split_m;
  std::map<std::pair<std::uint64_t, int>,
           std::pair<std::shared_ptr<CommImpl>, int /*remaining pickups*/>>
      split_pending;
  std::vector<std::uint64_t> split_seq;

  // --- shrink() / resize() group agreement ---------------------------------
  // Message-free bounded agreement: every survivor publishes the survivor
  // group it derives from World::dead into the slot for its per-rank
  // sequence number, then blocks until every member of that group has
  // published the IDENTICAL group (re-deriving, with bounded backoff, when
  // the dead set grows underneath the rendezvous — that is what the old
  // hard "survivors disagree" error has become). The first member to observe
  // full agreement constructs the child communicator; the rest pick it up.
  // One sequence space per operation so shrink() and resize() can interleave.
  struct AgreeSlot {
    /// comm rank -> that rank's latest proposed survivor group (world ranks).
    std::map<int, std::vector<int>> proposed;
    /// comm rank -> requested new size (resize only; shrink leaves it empty).
    std::map<int, int> target;
    std::shared_ptr<CommImpl> child;
    /// The agreed member group the child was built from (world ranks). For
    /// resize this is the OLD live members — the child group may be larger
    /// (joiners appended) or smaller (tail retired).
    std::vector<int> member_group;
    /// Set instead of `child` when the agreed outcome is an error every
    /// member must throw identically (e.g. resize past capacity).
    std::string error;
    int pickups = 0;  ///< members that have not collected the outcome yet
  };
  std::mutex agree_m;
  std::condition_variable agree_cv;
  std::map<std::uint64_t, AgreeSlot> shrink_slots;
  std::map<std::uint64_t, AgreeSlot> resize_slots;
  std::vector<std::uint64_t> shrink_seq;
  std::vector<std::uint64_t> resize_seq;

  // --- agree() ledger (ULFM-style MPI_Comm_agree) --------------------------
  // Message-free fault-tolerant agreement: each member records its vote in
  // the slot for its per-rank sequence number; the result is the bitwise AND
  // over every member's vote, where a member that died before voting
  // contributes 0. Deterministic across survivors because the dead set only
  // grows and a vote recorded under agree_m happens-before the rank's death
  // flag (mark_dead) becomes visible.
  struct VoteSlot {
    std::map<int, std::uint32_t> votes;  // comm rank -> contribution
    std::vector<int> picked;             // comm ranks that collected a result
  };
  std::map<std::uint64_t, VoteSlot> vote_slots;
  std::vector<std::uint64_t> agree_seq;

  /// Staging buffers for pack scratch and message payloads, shared by all
  /// ranks of this communicator (sender allocates, receiver releases).
  /// Mutable: the messaging helpers take the impl by const reference.
  mutable BufferPool staging;
};

}  // namespace mpi::detail
