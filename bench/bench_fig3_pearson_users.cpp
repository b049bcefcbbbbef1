// Fig. 3 — Pearson correlation of hourly usage vectors across the 8
// study users. The paper reports an average of 0.1353: usage habits
// differ strongly between users, so no fixed-interval scheme fits all.
#include <iostream>

#include "bench_common.hpp"
#include "mining/pearson.hpp"
#include "synth/generator.hpp"
#include "synth/presets.hpp"

namespace {

using namespace netmaster;

constexpr int kDays = 21;

void print_figure() {
  bench::banner("Fig. 3 — cross-user Pearson matrix",
                "average 0.1353 (low cross-user correlation)");
  const TraceSet traces = synth::generate_population(
      synth::study_population(), kDays, bench::kDefaultSeed);
  const mining::CorrelationMatrix m = mining::cross_user_matrix(traces);

  std::vector<std::string> headers{"user"};
  for (std::size_t j = 0; j < m.n; ++j) {
    headers.push_back(std::to_string(traces.users[j].user));
  }
  eval::Table t(headers);
  for (std::size_t i = 0; i < m.n; ++i) {
    std::vector<std::string> row{std::to_string(traces.users[i].user)};
    for (std::size_t j = 0; j < m.n; ++j) {
      row.push_back(eval::Table::num(m.at(i, j), 2));
    }
    t.add_row(std::move(row));
  }
  bench::emit(t);
  std::cout << "measured off-diagonal mean: "
            << eval::Table::num(m.off_diagonal_mean(), 4)
            << "  (paper: 0.1353)\n\n";
}

}  // namespace

NETMASTER_BENCH_MAIN()
