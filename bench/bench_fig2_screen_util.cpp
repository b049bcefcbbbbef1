// Fig. 2 — Screen-on time utilization per user: average screen-session
// length vs the part of it carrying traffic. The paper reports an
// average radio utilization ratio of 45.14% (over half of screen-on
// radio time is wasted).
#include <iostream>

#include "bench_common.hpp"
#include "synth/generator.hpp"
#include "synth/presets.hpp"
#include "trace/trace_stats.hpp"

namespace {

using namespace netmaster;

constexpr int kDays = 21;

void print_figure() {
  bench::banner("Fig. 2 — screen-on time utilization",
                "average radio utilization ratio 45.14%");
  const TraceSet traces = synth::generate_population(
      synth::study_population(), kDays, bench::kDefaultSeed);

  eval::Table t({"user", "avg session (s)", "utilized (s)",
                 "utilization"});
  double util_sum = 0.0;
  for (const UserTrace& trace : traces.users) {
    const ScreenUtilization u = screen_utilization(trace);
    util_sum += u.radio_utilization;
    t.add_row({std::to_string(trace.user),
               eval::Table::num(u.avg_session_s, 1),
               eval::Table::num(u.avg_utilized_s, 1),
               eval::Table::pct(u.radio_utilization)});
  }
  bench::emit(t);
  std::cout << "measured average utilization: "
            << eval::Table::pct(
                   util_sum / static_cast<double>(traces.users.size()))
            << "  (paper: 45.14%)\n\n";
}

}  // namespace

NETMASTER_BENCH_MAIN()
