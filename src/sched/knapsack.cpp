#include "sched/knapsack.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "sched/solver.hpp"

namespace netmaster::sched {

namespace {

/// Fills `order` with item indices in `ratio_before` order. Reuses the
/// caller's buffer.
void ratio_order(std::span<const KnapItem> items,
                 std::vector<std::size_t>& order) {
  order.resize(items.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return ratio_before(items[a], items[b]);
  });
}

void validate_items(std::span<const KnapItem> items) {
  for (const KnapItem& item : items) {
    NM_REQUIRE(item.weight >= 0, "item weights must be non-negative");
    NM_REQUIRE(std::isfinite(item.profit), "item profits must be finite");
  }
}

// ---- Flat bit-matrix helpers for the DP "take" tables. The seed
// kernels used vector<vector<bool>>; a single reused uint64 buffer
// keeps the same 1-bit-per-cell footprint without per-row allocation.
// Row width is in words; cell (row, col) lives at
// bits[row * row_words + col / 64]. ----

inline std::size_t bit_row_words(std::size_t cols) { return (cols + 63) / 64; }

inline void bit_set(std::vector<std::uint64_t>& bits, std::size_t row_words,
                    std::size_t row, std::size_t col) {
  bits[row * row_words + col / 64] |= std::uint64_t{1} << (col % 64);
}

inline bool bit_get(const std::vector<std::uint64_t>& bits,
                    std::size_t row_words, std::size_t row, std::size_t col) {
  return (bits[row * row_words + col / 64] >> (col % 64)) & 1;
}

}  // namespace

KnapResult knapsack_exact(std::span<const KnapItem> items,
                          std::int64_t capacity, SchedWorkspace& ws,
                          std::uint64_t* dp_cells) {
  NM_REQUIRE(capacity >= 0, "capacity must be non-negative");
  validate_items(items);
  const std::size_t n = items.size();
  const auto cap = static_cast<std::size_t>(capacity);
  NM_REQUIRE(cap <= 4'000'000, "exact DP capacity too large");
  NM_REQUIRE(n * (cap + 1) <= 400'000'000,
             "exact DP instance too large");

  // best[w] = max profit using a prefix of items within weight w;
  // take bit (i, c) records whether item i was taken at that cell.
  std::vector<double>& best = ws.best;
  best.assign(cap + 1, 0.0);
  const std::size_t row_words = bit_row_words(cap + 1);
  std::vector<std::uint64_t>& take = ws.take_bits;
  take.assign(n * row_words, 0);

  std::uint64_t cells = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto w = static_cast<std::size_t>(items[i].weight);
    const double p = items[i].profit;
    if (p <= 0.0 || w > cap) continue;  // never beneficial
    cells += static_cast<std::uint64_t>(cap + 1 - w);
    for (std::size_t c = cap + 1; c-- > w;) {
      const double candidate = best[c - w] + p;
      if (candidate > best[c]) {
        best[c] = candidate;
        bit_set(take, row_words, i, c);
      }
    }
  }

  KnapResult result;
  std::size_t c = cap;
  for (std::size_t i = n; i-- > 0;) {
    if (bit_get(take, row_words, i, c)) {
      result.chosen.push_back(items[i].id);
      result.profit += items[i].profit;
      result.weight += items[i].weight;
      c -= static_cast<std::size_t>(items[i].weight);
    }
  }
  std::reverse(result.chosen.begin(), result.chosen.end());
  if (dp_cells != nullptr) *dp_cells += cells;
  return result;
}

KnapResult knapsack_greedy(std::span<const KnapItem> items,
                           std::int64_t capacity, SchedWorkspace& ws) {
  NM_REQUIRE(capacity >= 0, "capacity must be non-negative");
  validate_items(items);
  ratio_order(items, ws.order);
  KnapResult result;
  std::int64_t remaining = capacity;
  for (std::size_t idx : ws.order) {
    const KnapItem& item = items[idx];
    if (item.profit <= 0.0) continue;
    if (item.weight <= remaining) {
      result.chosen.push_back(item.id);
      result.profit += item.profit;
      result.weight += item.weight;
      remaining -= item.weight;
    }
  }
  return result;
}

KnapResult knapsack_fptas(std::span<const KnapItem> items,
                          std::int64_t capacity, double eps,
                          SchedWorkspace& ws, std::uint64_t* dp_cells) {
  NM_REQUIRE(capacity >= 0, "capacity must be non-negative");
  NM_REQUIRE(eps > 0.0 && eps < 1.0, "eps must be in (0, 1)");
  validate_items(items);

  // Partition: always-take zero-weight profitable items; candidates are
  // profitable items that fit.
  KnapResult result;
  std::vector<std::size_t>& candidates = ws.candidates;
  candidates.clear();
  for (std::size_t i = 0; i < items.size(); ++i) {
    const KnapItem& item = items[i];
    if (item.profit <= 0.0 || item.weight > capacity) continue;
    if (item.weight == 0) {
      result.chosen.push_back(item.id);
      result.profit += item.profit;
    } else {
      candidates.push_back(i);
    }
  }
  if (candidates.empty()) return result;

  double pmax = 0.0;
  for (std::size_t i : candidates) pmax = std::max(pmax, items[i].profit);
  const auto n = static_cast<double>(candidates.size());
  const double scale = eps * pmax / n;
  NM_ASSERT(scale > 0.0, "profit scale must be positive");

  // Scaled profits; total bounded by n * (n/eps + 1).
  std::vector<std::int64_t>& scaled = ws.scaled;
  scaled.resize(candidates.size());
  std::int64_t total_scaled = 0;
  for (std::size_t k = 0; k < candidates.size(); ++k) {
    scaled[k] = static_cast<std::int64_t>(
        std::floor(items[candidates[k]].profit / scale));
    total_scaled += scaled[k];
  }
  NM_REQUIRE(total_scaled <= 50'000'000,
             "FPTAS profit table too large; increase eps");
  NM_REQUIRE(static_cast<double>(candidates.size()) *
                 static_cast<double>(total_scaled + 1) <=
             4e8, "FPTAS choice table too large; increase eps");

  struct KnapsackMetrics {
    obs::Counter& solves;
    obs::Counter& iterations;
    obs::Counter& slack;
  };
  static KnapsackMetrics metrics{
      obs::Registry::global().counter("sched.knapsack.solves"),
      obs::Registry::global().counter("sched.knapsack.iterations"),
      obs::Registry::global().counter("sched.knapsack.slack"),
  };
  metrics.solves.add(1);

  // Capacity slack: when every candidate fits at once, the DP's best
  // scaled profit is total_scaled, and integer scaled profits reach it
  // only by taking every positive-scaled candidate. Each one sets its
  // take bit at its prefix sum (that cell is kInf before its row), so
  // the walk below is exactly the DP's reconstruction — same chosen
  // order, same profit/weight summation order — without the tables.
  bool fits = true;
  std::int64_t total_weight = 0;
  for (std::size_t i : candidates) {
    const std::int64_t w = items[i].weight;
    if (w > capacity - total_weight) {
      fits = false;
      break;
    }
    total_weight += w;
  }
  if (fits) {
    for (std::size_t k = candidates.size(); k-- > 0;) {
      if (scaled[k] == 0) continue;
      const KnapItem& item = items[candidates[k]];
      result.chosen.push_back(item.id);
      result.profit += item.profit;
      result.weight += item.weight;
    }
    metrics.slack.add(1);
    return result;
  }

  // min_weight[s] = least weight achieving scaled profit exactly s.
  constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max();
  std::vector<std::int64_t>& min_weight = ws.min_weight;
  min_weight.assign(static_cast<std::size_t>(total_scaled) + 1, kInf);
  min_weight[0] = 0;
  const std::size_t row_words =
      bit_row_words(static_cast<std::size_t>(total_scaled) + 1);
  std::vector<std::uint64_t>& take = ws.take_bits;
  take.assign(candidates.size() * row_words, 0);

  std::int64_t reach = 0;  // highest scaled profit reachable so far
  std::uint64_t dp_iterations = 0;  // DP cells touched, for telemetry
  for (std::size_t k = 0; k < candidates.size(); ++k) {
    const KnapItem& item = items[candidates[k]];
    const std::int64_t sp = scaled[k];
    if (sp == 0) continue;  // contributes < scale; GreedyAdd-style callers
                            // can still pick it up, the bound holds anyway
    reach = std::min(reach + sp, total_scaled);
    dp_iterations += static_cast<std::uint64_t>(reach - sp + 1);
    for (std::int64_t s = reach; s >= sp; --s) {
      const std::int64_t base = min_weight[static_cast<std::size_t>(s - sp)];
      if (base == kInf) continue;
      const std::int64_t w = base + item.weight;
      if (w < min_weight[static_cast<std::size_t>(s)]) {
        min_weight[static_cast<std::size_t>(s)] = w;
        bit_set(take, row_words, k, static_cast<std::size_t>(s));
      }
    }
  }

  std::int64_t best_s = 0;
  for (std::int64_t s = total_scaled; s > 0; --s) {
    if (min_weight[static_cast<std::size_t>(s)] <= capacity) {
      best_s = s;
      break;
    }
  }

  // Reconstruct the chosen set.
  std::int64_t s = best_s;
  for (std::size_t k = candidates.size(); k-- > 0;) {
    if (s > 0 && bit_get(take, row_words, k, static_cast<std::size_t>(s))) {
      const KnapItem& item = items[candidates[k]];
      result.chosen.push_back(item.id);
      result.profit += item.profit;
      result.weight += item.weight;
      s -= scaled[k];
    }
  }
  NM_ASSERT(s == 0, "FPTAS reconstruction must consume the profit");
  NM_ASSERT(result.weight <= capacity, "FPTAS result exceeds capacity");

  metrics.iterations.add(dp_iterations);
  if (dp_cells != nullptr) *dp_cells += dp_iterations;
  return result;
}

double fractional_upper_bound(std::span<const KnapItem> items,
                              std::int64_t capacity) {
  NM_REQUIRE(capacity >= 0, "capacity must be non-negative");
  validate_items(items);
  const bool sorted = std::is_sorted(items.begin(), items.end(), ratio_before);
  std::vector<std::size_t> order;
  if (!sorted) ratio_order(items, order);
  double bound = 0.0;
  std::int64_t remaining = capacity;
  for (std::size_t k = 0; k < items.size(); ++k) {
    const KnapItem& item = items[sorted ? k : order[k]];
    if (item.profit <= 0.0) continue;
    if (item.weight <= remaining) {
      bound += item.profit;
      remaining -= item.weight;
    } else {
      if (item.weight > 0 && remaining > 0) {
        bound += item.profit * static_cast<double>(remaining) /
                 static_cast<double>(item.weight);
      }
      break;
    }
  }
  return bound;
}

}  // namespace netmaster::sched
