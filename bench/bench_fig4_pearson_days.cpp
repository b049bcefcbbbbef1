// Fig. 4 — Pearson correlation of one user's hourly usage vectors
// across days (the paper shows user 4 over 8 days, average 0.8171):
// a single user's pattern repeats day to day, so it is predictable.
#include <iostream>

#include "bench_common.hpp"
#include "mining/pearson.hpp"
#include "synth/generator.hpp"
#include "synth/presets.hpp"

namespace {

using namespace netmaster;

constexpr int kDays = 21;
constexpr int kMatrixDays = 8;  // the paper's Fig. 4 spans 8 days

void print_figure() {
  bench::banner("Fig. 4 — cross-day Pearson matrix (user 4)",
                "average 0.8171 (high intra-user correlation)");
  // The paper's Fig. 4 subject is user 4; our study population's user 4
  // is the commuter archetype.
  const auto profiles = synth::study_population();
  const UserTrace trace =
      synth::generate_trace(profiles[3], kDays, bench::kDefaultSeed);
  const mining::CorrelationMatrix m =
      mining::cross_day_matrix(trace, kMatrixDays);

  std::vector<std::string> headers{"day"};
  for (std::size_t j = 0; j < m.n; ++j) {
    headers.push_back(std::to_string(j + 1));
  }
  eval::Table t(headers);
  for (std::size_t i = 0; i < m.n; ++i) {
    std::vector<std::string> row{std::to_string(i + 1)};
    for (std::size_t j = 0; j < m.n; ++j) {
      row.push_back(eval::Table::num(m.at(i, j), 2));
    }
    t.add_row(std::move(row));
  }
  bench::emit(t);

  // The full-study statistic: per-user cross-day mean over all users.
  double sum = 0.0;
  for (const auto& profile : profiles) {
    const UserTrace u =
        synth::generate_trace(profile, kDays, bench::kDefaultSeed);
    sum += mining::cross_day_matrix(u, kDays).off_diagonal_mean();
  }
  std::cout << "measured: user-4 mean "
            << eval::Table::num(m.off_diagonal_mean(), 4)
            << " (paper: 0.8171); all-user cross-day mean "
            << eval::Table::num(sum / static_cast<double>(profiles.size()),
                                4)
            << " (paper: 0.54)\n\n";
}

}  // namespace

NETMASTER_BENCH_MAIN()
