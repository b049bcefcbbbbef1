// Fig. 5 — One-week per-app usage pattern for user 3: only 8 of the 23
// installed apps are ever used (and have network activity); the
// dominant messenger accounts for 669 launches — 59% of all usage.
#include <algorithm>
#include <iostream>

#include "bench_common.hpp"
#include "mining/special_apps.hpp"
#include "synth/generator.hpp"
#include "synth/presets.hpp"
#include "trace/trace_stats.hpp"

namespace {

using namespace netmaster;

constexpr int kDays = 7;  // the figure covers one week

void print_figure() {
  bench::banner("Fig. 5 — one-week program pattern (user 3)",
                "8 of 23 apps used+networked; top app 59% of usage");
  const UserTrace trace = synth::generate_trace(
      synth::study_population()[2], kDays, bench::kDefaultSeed);  // user 3

  const auto counts = per_app_usage_counts(trace);
  const auto intensity = per_app_intensity(trace);
  std::size_t total = 0;
  for (std::size_t c : counts) total += c;

  // Apps sorted by usage, used ones only.
  std::vector<std::size_t> order(counts.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return counts[a] > counts[b];
  });

  eval::Table t({"app", "launches", "share", "peak hour", "peak/h"});
  for (std::size_t idx : order) {
    if (counts[idx] == 0) continue;
    const auto& hours = intensity[idx];
    const auto peak = std::max_element(hours.begin(), hours.end());
    t.add_row({trace.app_names[idx], std::to_string(counts[idx]),
               eval::Table::pct(static_cast<double>(counts[idx]) /
                                static_cast<double>(total)),
               std::to_string(peak - hours.begin()),
               eval::Table::num(*peak, 0)});
  }
  bench::emit(t);

  const mining::SpecialApps special = mining::SpecialApps::detect(trace);
  std::cout << "measured: " << active_networked_app_count(trace) << " of "
            << trace.app_names.size()
            << " apps used with network activity (paper: 8 of 23); "
            << "special apps detected: " << special.count() << "\n";
  const std::size_t top = counts[order.front()];
  std::cout << "top app '" << trace.app_names[order.front()] << "' share: "
            << eval::Table::pct(static_cast<double>(top) /
                                static_cast<double>(total))
            << " (paper: 59%)\n\n";
}

}  // namespace

NETMASTER_BENCH_MAIN()
