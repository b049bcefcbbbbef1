// Habit explorer: mine a synthetic user's traces and print what
// NetMaster learns — hourly activity probabilities, predicted active
// slots, the Pearson regularity matrices, and the detected special
// apps.
//
//   $ ./habit_explorer [archetype 0-7] [seed]
#include <iostream>

#include "cli_args.hpp"
#include "eval/table.hpp"
#include "mining/habits.hpp"
#include "mining/pearson.hpp"
#include "mining/special_apps.hpp"
#include "synth/generator.hpp"
#include "synth/presets.hpp"

int main(int argc, char** argv) {
  using namespace netmaster;

  const auto archetype = static_cast<synth::Archetype>(
      examples::int_arg_or_exit(argc, argv, 1, 0, 0, 7, "archetype"));
  const std::uint64_t seed = examples::seed_arg_or_exit(argc, argv, 2, 42);

  const synth::UserProfile profile = synth::make_user(archetype, 1);
  const UserTrace trace = synth::generate_trace(profile, 21, seed);
  std::cout << "Mining 21 days of '" << profile.name << "' (seed " << seed
            << ", " << trace.usages.size() << " launches, "
            << trace.activities.size() << " transfers)\n\n";

  // Hour-level habit profile.
  const mining::HabitModel model = mining::HabitModel::mine(trace);
  const mining::SlotPredictor predictor(model, mining::PredictorConfig{});
  eval::Table habit({"hour", "Pr[u] weekday", "Pr[u] weekend",
                     "mean launches/h", "screen-off syncs/h"});
  const auto& wd = model.stats(mining::DayKind::kWeekday);
  const auto& we = model.stats(mining::DayKind::kWeekend);
  for (int h = 0; h < kHoursPerDay; ++h) {
    habit.add_row({std::to_string(h), eval::Table::num(wd.pr_active[h], 2),
                   eval::Table::num(we.pr_active[h], 2),
                   eval::Table::num(wd.mean_intensity[h], 1),
                   eval::Table::num(wd.mean_net_count[h], 1)});
  }
  habit.print(std::cout);

  // Predicted user-active slots for one weekday and one weekend day.
  for (int day : {0, 5}) {
    const mining::DayPrediction pred = predictor.predict_day(day);
    std::cout << "\npredicted active slots, day " << day
              << (is_weekend(day) ? " (weekend, delta "
                                  : " (weekday, delta ")
              << predictor.delta_for_day(day) << "): ";
    for (const Interval& iv : pred.active_slots.intervals()) {
      std::cout << '[' << hour_of(iv.begin) << "h-"
                << (time_of_day(iv.end) == 0 ? 24
                                             : hour_of(iv.end - 1) + 1)
                << "h) ";
    }
    std::cout << '\n';
  }

  // Day-to-day regularity (the Fig. 4 statistic).
  const mining::CorrelationMatrix days =
      mining::cross_day_matrix(trace, 8);
  std::cout << "\ncross-day Pearson mean (8 days): "
            << eval::Table::num(days.off_diagonal_mean(), 3) << '\n';

  // Special apps (§IV-C.2).
  const mining::SpecialApps special = mining::SpecialApps::detect(trace);
  std::cout << "special apps (" << special.count() << " of "
            << trace.app_names.size() << "): ";
  for (std::size_t i = 0; i < trace.app_names.size(); ++i) {
    if (special.is_special(static_cast<AppId>(i))) {
      std::cout << trace.app_names[i] << ' ';
    }
  }
  std::cout << '\n';
  return 0;
}
