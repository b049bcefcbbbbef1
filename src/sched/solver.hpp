// Pluggable scheduler-solver layer.
//
// The paper fixes one backend for SinKnap (the Ibarra–Kim FPTAS); this
// layer turns that into a choice. A `SinKnapSolver` is a single-knapsack
// backend behind Algorithm 1's per-slot DP step:
//
//   - `kFptas`  — the (1−ε) profit-scaling DP (the paper's SinKnap and
//                 the default; preserves pre-refactor schedules
//                 bit for bit),
//   - `kExact`  — weight-indexed exact DP, for capacity-bounded
//                 instances (tests, benches, small slots),
//   - `kGreedy` — ratio greedy per slot, no guarantee, the cheap end of
//                 the quality/cost tradeoff (EStreamer-style heuristic
//                 burst shaping),
//   - `kAuto`   — per-call choice: exact when the weight-indexed table
//                 n·(capacity+1) is small enough to beat the
//                 profit-scaling table, FPTAS otherwise.
//
// `SchedWorkspace` is the reusable per-thread scratch behind every
// solve: DP tables, the duplicated per-slot itemsets, and the flat
// id→item index that replaces the `std::map`s the seed-era
// `solve_overlapped` rebuilt twice per call. Inside a solve an item is
// named by its position in that index, so Algorithm 1's filter and
// GreedyAdd steps index flat per-position arrays instead of searching.
// Fleet sweeps invoke the solver per slot × per user × per policy × per
// sweep point; with a
// reused workspace the steady state allocates nothing. Workspaces are
// single-owner and not thread-safe: use `thread_workspace()` (one per
// thread, including per `parallel_for` worker) or a locally owned
// instance, never one workspace from two threads.
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
  kAuto,    ///< exact when cheap enough, FPTAS otherwise
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
  /// kAuto ceiling on the exact DP table n·(capacity+1); above it the
  /// FPTAS runs regardless of the cost comparison. Kept well under the
  /// exact kernel's hard 4e8-cell limit so auto never throws on size.
  std::int64_t auto_exact_cells = 1'000'000;

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
  double profit = 0.0;         ///< solution profit
  /// Σ per-slot fractional bounds over the duplicated itemsets — an
  /// upper bound on the overlapped optimum (loose by up to 2×).
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
  std::vector<std::int64_t> used;         ///< feasibility check scratch
  std::vector<std::uint8_t> times_assigned;

  std::uint64_t solves_ = 0;  ///< bumped by solve_overlapped
};

/// The calling thread's workspace (function-local thread_local): one
/// per thread, created on first use, destroyed at thread exit. Inside
/// `parallel_for` each worker thread gets its own, reused across every
/// task that worker runs within (and across) loop invocations on that
/// thread.
SchedWorkspace& thread_workspace();

/// Single-knapsack backend interface (the paper's SinKnap, pluggable).
/// Implementations are stateless; all scratch lives in the workspace.
class SinKnapSolver {
 public:
  virtual ~SinKnapSolver() = default;

  virtual SolverChoice choice() const = 0;
  const char* name() const { return to_string(choice()); }

  /// The concrete backend this solver runs for an (n, capacity)
  /// instance under `options` — the identity except for kAuto, which
  /// resolves to kExact or kFptas per call.
  virtual SolverChoice resolve(std::size_t /*n*/, std::int64_t /*capacity*/,
                               const SolverOptions& /*options*/) const {
    return choice();
  }

  /// Solves one 0/1 knapsack using `ws` scratch; adds the DP cells
  /// touched to `dp_cells`. Result contract matches knapsack.hpp.
  virtual KnapResult solve(std::span<const KnapItem> items,
                           std::int64_t capacity,
                           const SolverOptions& options, SchedWorkspace& ws,
                           std::uint64_t& dp_cells) const = 0;
};

/// The (stateless, immortal) solver for a backend choice.
const SinKnapSolver& solver_for(SolverChoice choice);

/// Backend-parameterized Algorithm 1. Same contract as the
/// overlap.hpp `solve_overlapped` (which delegates here with
/// `SolverChoice::kFptas` and the calling thread's workspace), plus:
/// the per-slot SinKnap step runs whichever backend `options` picks,
/// all scratch comes from `ws`, and per-call solve stats are written
/// to `*stats` (when non-null) and recorded through `obs::` either
/// way. With default options the returned schedule is bit-for-bit
/// identical to the pre-solver-layer implementation.
OverlapSolution solve_overlapped(std::span<const OverlapSlot> slots,
                                 std::span<const OverlapItem> items,
                                 const SolverOptions& options,
                                 SchedWorkspace& ws,
                                 SolveStats* stats = nullptr);

// ---- Workspace-parameterized kernels (implemented in knapsack.cpp).
// The knapsack.hpp free functions delegate here with the calling
// thread's workspace; hot paths pass an explicit workspace to skip even
// the thread_local lookup. `dp_cells`, when non-null, accumulates the
// DP cells touched. Results are bit-for-bit identical to the
// allocation-per-call seed kernels. ----

KnapResult knapsack_exact(std::span<const KnapItem> items,
                          std::int64_t capacity, SchedWorkspace& ws,
                          std::uint64_t* dp_cells = nullptr);
KnapResult knapsack_greedy(std::span<const KnapItem> items,
                           std::int64_t capacity, SchedWorkspace& ws,
                           std::uint64_t* dp_cells = nullptr);
KnapResult knapsack_fptas(std::span<const KnapItem> items,
                          std::int64_t capacity, double eps,
                          SchedWorkspace& ws,
                          std::uint64_t* dp_cells = nullptr);

}  // namespace netmaster::sched
