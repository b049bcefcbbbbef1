// Scheduler-solver layer: Algorithm 1 with a choice of SinKnap.
//
// The paper fixes one backend for SinKnap (the Ibarra–Kim FPTAS); this
// layer turns that into a choice. `solve_overlapped` runs Algorithm 1
// and switches per slot over the knapsack.hpp kernels:
//
//   - `kFptas`  — the (1−ε) profit-scaling DP (the paper's SinKnap and
//                 the default),
//   - `kExact`  — weight-indexed exact DP, for capacity-bounded
//                 instances (tests, benches, small slots),
//   - `kGreedy` — ratio greedy per slot, no guarantee, the cheap end of
//                 the quality/cost tradeoff (EStreamer-style heuristic
//                 burst shaping),
//   - `kAuto`   — per slot: exact when the weight-indexed table
//                 n·(capacity+1) is at most 1e6 cells and no larger
//                 than the profit-scaling table, FPTAS otherwise.
//
// `SchedWorkspace` is the reusable per-thread scratch behind every
// solve: DP tables, the duplicated per-slot itemsets, and the flat
// id→item index that replaces the `std::map`s the seed-era
// `solve_overlapped` rebuilt twice per call. Inside a solve an item is
// named by its position in that index, so Algorithm 1's filter and
// GreedyAdd steps index flat per-position arrays instead of searching.
// Fleet sweeps invoke the solver per slot × per user × per policy × per
// sweep point; with a reused workspace the steady state allocates
// nothing. Workspaces are single-owner and not thread-safe: use
// `thread_workspace()` (one per thread, including per job-system
// worker) or a locally owned instance, never one workspace from two
// threads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "sched/knapsack.hpp"
#include "sched/overlap.hpp"

namespace netmaster::sched {

/// Which single-knapsack backend Algorithm 1 runs per slot.
enum class SolverChoice {
  kFptas,   ///< (1−ε) profit-scaling DP — the paper's SinKnap (default)
  kExact,   ///< exact weight-indexed DP (throws on oversized capacities)
  kGreedy,  ///< per-slot ratio greedy, no approximation guarantee
  kAuto,    ///< exact when cheap enough (≤ 1e6 cells), FPTAS otherwise
};

/// Stable lower-case name ("fptas", "exact", "greedy", "auto").
const char* to_string(SolverChoice choice);

/// Inverse of to_string; throws netmaster::Error on an unknown name.
SolverChoice parse_solver_choice(std::string_view name);

/// Solver configuration threaded from NetMasterConfig down to the
/// per-slot kernels.
struct SolverOptions {
  SolverChoice choice = SolverChoice::kFptas;
  double eps = 0.1;  ///< FPTAS quality knob (§V-C), in (0, 1)

  /// Throws netmaster::Error on out-of-range values.
  void validate() const;
};

/// Per-call solve report for instrumentation: what ran, how big it was,
/// and how far the result sits from the fractional upper bound.
struct SolveStats {
  SolverChoice requested = SolverChoice::kFptas;
  std::size_t items = 0;             ///< overlapped items in the instance
  std::size_t slots = 0;             ///< knapsacks in the instance
  std::size_t duplicated_items = 0;  ///< Σ per-slot itemset sizes
  std::size_t slot_solves_fptas = 0;   ///< per-slot backend actually taken
  std::size_t slot_solves_exact = 0;
  std::size_t slot_solves_greedy = 0;
  std::uint64_t dp_cells = 0;  ///< DP cells touched across all slots
  /// Per-slot ratio sorts of a duplicated itemset: one per slot whose
  /// capacity binds, plus any slack slot whose GreedyAdd leftovers tie
  /// in ratio. Slack slots skip the sort.
  std::size_t slot_sorts = 0;
  double profit = 0.0;         ///< solution profit
  /// Σ per-slot fractional bounds over the duplicated itemsets — an
  /// upper bound on the overlapped optimum (loose by up to 2×). A slack
  /// slot's bound is its positive profit sum, added in input order.
  double upper_bound = 0.0;
  /// (upper_bound − profit) / upper_bound, clamped to [0, 1]; 0 when
  /// the bound is non-positive.
  double gap = 0.0;
};

/// Reusable solver scratch. Buffers grow monotonically and are reused
/// across solves; contents between calls are unspecified. The members
/// are an implementation detail of the sched kernels — callers should
/// treat the type as opaque and only construct / reuse / destroy it.
class SchedWorkspace {
 public:
  SchedWorkspace() = default;
  SchedWorkspace(const SchedWorkspace&) = delete;
  SchedWorkspace& operator=(const SchedWorkspace&) = delete;
  SchedWorkspace(SchedWorkspace&&) = default;
  SchedWorkspace& operator=(SchedWorkspace&&) = default;

  /// Solves run through this workspace so far (reuse telemetry).
  std::uint64_t solves() const { return solves_; }

  // ---- single-knapsack scratch (kernels in knapsack.cpp) ----
  std::vector<std::size_t> order;        ///< ratio ordering
  std::vector<std::size_t> candidates;   ///< FPTAS candidate positions
  std::vector<std::int64_t> scaled;      ///< FPTAS scaled profits
  std::vector<std::int64_t> min_weight;  ///< FPTAS DP row
  std::vector<double> best;              ///< exact DP row
  std::vector<std::uint64_t> take_bits;  ///< flat DP choice bit-matrix

  // ---- Algorithm 1 scratch (overlap.cpp) ----
  /// Duplicated itemsets. Each copy's `KnapItem::id` is the item's
  /// position in `id_index`, not its id, so the filter and GreedyAdd
  /// steps index the per-position scratch below without a search.
  std::vector<std::vector<KnapItem>> slot_items;
  std::vector<std::vector<int>> chosen_per_slot;  ///< positions per slot
  /// Per slot: 1 when its itemset was ratio-sorted (capacity binds).
  std::vector<std::uint8_t> slot_sorted;
  std::vector<KnapItem> leftovers;  ///< a slack slot's GreedyAdd items
  /// Flat id→item index, sorted by id: replaces the per-call
  /// `std::map<int, const OverlapItem*>`s. A position in it is an
  /// item's handle inside a solve; `.first` maps it back to the id.
  std::vector<std::pair<int, const OverlapItem*>> id_index;
  /// Per input item: its position in `id_index`, built in O(n) from
  /// the index's item pointers.
  std::vector<int> rank;
  std::vector<int> cand_slot[2];          ///< per position: chosen slots
  std::vector<std::uint8_t> cand_count;   ///< per position: 0, 1 or 2
  std::vector<std::uint8_t> assigned;     ///< per position: taken flag
  /// Per assignment: the `id_index` position it was emitted from, so
  /// the solver's own feasibility check needs no id search.
  std::vector<std::size_t> assignment_pos;
  std::vector<std::int64_t> used;         ///< feasibility check scratch
  std::vector<std::uint8_t> times_assigned;

  std::uint64_t solves_ = 0;  ///< bumped by solve_overlapped
};

/// Algorithm 1 (overlap.hpp). The result is feasible (per-slot weight
/// within capacity, each item assigned at most once, only to one of its
/// two candidate slots); with a guaranteed backend it totals at least
/// (1−ε)/2 of the optimum. The per-slot SinKnap step runs the kernel
/// `options` picks, all scratch comes from `ws`, and per-call solve
/// stats are written to `*stats` (when non-null) and recorded through
/// `obs::` either way.
OverlapSolution solve_overlapped(std::span<const OverlapSlot> slots,
                                 std::span<const OverlapItem> items,
                                 const SolverOptions& options = {},
                                 SchedWorkspace& ws = thread_workspace(),
                                 SolveStats* stats = nullptr);

}  // namespace netmaster::sched
