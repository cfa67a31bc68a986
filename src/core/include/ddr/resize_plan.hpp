#pragma once

/// \file resize_plan.hpp
/// Movement-minimizing resize planning: given the layout an M-member run
/// holds today and a new member count N, propose a balanced owned layout for
/// the N members that keeps as much data in place as balance allows, and
/// express the move as an incremental redistribution problem (old layout on
/// the owned side, new layout on the needed side) so the compiled quad/lane
/// machinery executes it — data a member keeps travels through the self
/// lane (copy_regions, no message), only the genuinely re-homed remainder
/// crosses the network.
///
/// Grounding: Sudarsan & Ribbens' resizable computations redistribute by
/// diffing block-cyclic schedules; DDR generalizes that diff to arbitrary
/// box layouts via its geometric mapping.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ddr/layout.hpp"

namespace ddr {

/// Planner cost model (DESIGN.md §12): where every domain byte goes under
/// the plan, versus the naive alternative that tears the run down and
/// rescatters the whole domain.
struct ResizePlanStats {
  std::int64_t total_bytes = 0;  ///< bytes of the whole domain
  std::int64_t kept_bytes = 0;   ///< stay with their member (self lane)
  std::int64_t moved_bytes = 0;  ///< cross member boundaries (network)
  /// What a naive full re-redistribution moves: every domain byte once.
  std::int64_t naive_bytes = 0;
};

/// The incremental plan for one resize: the synthetic redistribution problem
/// plus the proposed layout and its cost accounting.
struct ResizePlan {
  /// owned[i] = member i's OLD chunks, needed[i] = member i's NEW chunks,
  /// over max(old members, new members) slots (a retiring member has empty
  /// needed, a joiner empty owned). Feeding this to the mapping machinery
  /// yields the incremental transfer schedule.
  GlobalLayout transition;
  /// The proposed owned layout per NEW member (transition.needed, trimmed).
  std::vector<OwnedLayout> new_owned;
  ResizePlanStats stats;
};

/// Proposes a balanced, movement-minimizing owned layout for `new_members`
/// members, given the old per-member layout (old member i corresponds to new
/// member i while both exist; surplus old members retire, surplus new
/// members join empty-handed). Every member ends with exactly total/N
/// elements (±1, lower indices rounded up): members first KEEP a prefix of
/// their own chunks up to quota — split along the slowest-varying axis when
/// a chunk straddles it — then surplus pieces are donated, in deterministic
/// (member, chunk) order, to members below quota. Purely geometric and
/// deterministic: every caller derives the identical proposal, so no layout
/// negotiation messages are needed.
///
/// `member_node`, when non-null, gives the node id of each member slot
/// (old member i and new member i are the same process slot; index up to
/// max(old, new) members). Each under-quota member then prefers donations
/// whose DONOR shares its node — the transfer's cross-member bytes are
/// unchanged (kept bytes and per-member quotas don't depend on pool order;
/// a donor at or above quota never receives, so no donation ever returns
/// home), but as many of them as the pool allows become intra-node traffic
/// the fused-lane executor moves zero-copy. Must be identical on every
/// caller (derive it from the shared NetworkModel), like the layout itself.
[[nodiscard]] std::vector<OwnedLayout> propose_resize_layout(
    const std::vector<OwnedLayout>& old_owned, int new_members,
    const std::vector<int>* member_node = nullptr);

/// Builds the incremental plan from an old and a (typically proposed) new
/// per-member layout, with the cost accounting filled in.
[[nodiscard]] ResizePlan plan_resize(const std::vector<OwnedLayout>& old_owned,
                                     const std::vector<OwnedLayout>& new_owned,
                                     std::size_t elem_size);

}  // namespace ddr
