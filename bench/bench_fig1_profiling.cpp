// Fig. 1 — Network activity profiling over the 8-user study population.
//
// (a) Fraction of network activities happening screen-on vs screen-off
//     per user; the paper reports 40.98% screen-off on average.
// (b) Transfer-rate CDF by screen state; the paper reports 90% of
//     screen-off transfers below 1 kB/s and 90% of screen-on transfers
//     below 5 kB/s.
#include <iostream>

#include "bench_common.hpp"
#include "common/stats.hpp"
#include "synth/generator.hpp"
#include "synth/presets.hpp"
#include "trace/trace_stats.hpp"

namespace {

using namespace netmaster;

constexpr int kDays = 21;  // the paper's 3-week study

void print_figure() {
  bench::banner("Fig. 1 — network activity profiling",
                "screen-off = 40.98% of activities; p90 rate < 1 kB/s "
                "(off) / < 5 kB/s (on)");
  const TraceSet traces = synth::generate_population(
      synth::study_population(), kDays, bench::kDefaultSeed);

  eval::Table a({"user", "screen-on frac", "screen-off frac",
                 "screen-off bytes frac"});
  double off_sum = 0.0;
  std::vector<double> on_rates, off_rates;
  for (const UserTrace& t : traces.users) {
    const TrafficSplit split = traffic_split(t);
    const double off = split.screen_off_activity_fraction();
    off_sum += off;
    a.add_row({std::to_string(t.user), eval::Table::pct(1.0 - off),
               eval::Table::pct(off),
               eval::Table::pct(split.screen_off_byte_fraction())});
    const RateSamples rates = transfer_rate_samples(t);
    on_rates.insert(on_rates.end(), rates.screen_on_kbps.begin(),
                    rates.screen_on_kbps.end());
    off_rates.insert(off_rates.end(), rates.screen_off_kbps.begin(),
                     rates.screen_off_kbps.end());
  }
  std::cout << "\n(a) activity distribution by screen state\n";
  bench::emit(a);
  std::cout << "measured average screen-off fraction: "
            << eval::Table::pct(off_sum /
                                static_cast<double>(traces.users.size()))
            << "  (paper: 40.98%)\n";

  std::cout << "\n(b) transfer-rate CDF (kB/s)\n";
  eval::Table b({"quantile", "screen-on", "screen-off"});
  const auto on_cdf = empirical_cdf(on_rates);
  const auto off_cdf = empirical_cdf(off_rates);
  for (double q : {0.10, 0.25, 0.50, 0.75, 0.90, 0.99}) {
    b.add_row({eval::Table::pct(q, 0),
               eval::Table::num(cdf_quantile(on_cdf, q), 2),
               eval::Table::num(cdf_quantile(off_cdf, q), 2)});
  }
  bench::emit(b);
  std::cout << "measured p90: screen-on "
            << eval::Table::num(cdf_quantile(on_cdf, 0.9), 2)
            << " kB/s (paper < 5), screen-off "
            << eval::Table::num(cdf_quantile(off_cdf, 0.9), 2)
            << " kB/s (paper < 1)\n\n";
}

}  // namespace

NETMASTER_BENCH_MAIN()
