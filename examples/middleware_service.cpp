// Middleware walkthrough: the §V pipeline of Fig. 6, stage by stage —
// the monitoring component records into the DB (with its 500 KB write
// cache), mining derives the habit model and special apps from the DB,
// decision making packs tomorrow's pending transfers with Algorithm 1,
// the discrete-event executive replays the real-time adjustment over
// the evaluation week, and the NetMaster policy's week is accounted end
// to end.
//
//   $ ./middleware_service [seed]
#include <iostream>

#include "cli_args.hpp"
#include "eval/table.hpp"
#include "fault/sanitize.hpp"
#include "mining/habits.hpp"
#include "mining/special_apps.hpp"
#include "policy/netmaster.hpp"
#include "sched/instance.hpp"
#include "sched/solver.hpp"
#include "service/monitoring.hpp"
#include "service/online_sim.hpp"
#include "sim/accounting.hpp"
#include "synth/generator.hpp"
#include "synth/presets.hpp"

int main(int argc, char** argv) {
  using namespace netmaster;

  const std::uint64_t seed = examples::seed_arg_or_exit(argc, argv, 1, 42);
  const auto profile = synth::make_user(synth::Archetype::kOfficeWorker, 1);
  const UserTrace full = synth::generate_trace(profile, 21, seed);
  const UserTrace training = full.slice_days(0, 14);
  const UserTrace eval_week = full.slice_days(14, 7);
  const policy::NetMasterConfig config;

  // 1. Monitoring component feeds the DB.
  service::RecordStore store;  // 500 KB memory write cache
  service::MonitoringComponent monitor(store);
  monitor.observe(training);
  std::cout << "monitoring: " << monitor.event_records()
            << " event-trigger records, " << monitor.sample_records()
            << " timer samples; DB flushed " << store.flush_count()
            << "x (" << store.bytes_flushed() / 1024 << " kB to flash)\n";

  // 2. Mining: habit model and special apps from the DB's records.
  const fault::SanitizeResult recorded = fault::sanitize_trace(
      store.reconstruct(training.user, training.num_days,
                        training.app_names));
  const mining::SlotPredictor predictor(
      mining::HabitModel::mine(recorded.trace), config.predictor);
  const mining::SpecialApps special =
      mining::SpecialApps::detect(recorded.trace);
  std::cout << "mining: " << special.count() << " special apps, "
            << recorded.report.dropped_events
            << " records dropped in reconstruction\n";

  // 3. Decision making: pack tomorrow's pending screen-off transfers
  // into the predicted active slots (Algorithm 1).
  const mining::DayPrediction pred = predictor.predict_day(0);
  std::vector<NetworkActivity> pending;
  for (const NetworkActivity& n : eval_week.activities) {
    if (day_of(n.start) == 0 && n.deferrable &&
        !eval_week.screen_on_at(n.start) &&
        !pred.active_slots.contains(n.start)) {
      pending.push_back(n);
    }
  }
  const sched::Instance inst =
      sched::build_instance(pred.active_slots.intervals(), {}, pending,
                            predictor, config.profit);
  sched::SolverOptions solver_options;
  solver_options.choice = config.solver;
  solver_options.eps = config.eps;
  const sched::OverlapSolution plan =
      sched::solve_overlapped(inst.slots, inst.items, solver_options);
  std::cout << "\ndecision making: " << pending.size()
            << " pending screen-off transfers, " << plan.assignments.size()
            << " packed into " << pred.active_slots.size()
            << " predicted slots (profit "
            << eval::Table::num(plan.total_profit, 1) << " J)\n";

  // 4. Real-time adjustment: the event-driven executive replays the
  // week — radio switches at screen edges, duty-cycle probes, and
  // deferred transfers released at the first radio opportunity.
  const service::OnlineSimResult online =
      service::run_online(training, eval_week, config);
  std::cout << "\nreal-time adjustment over the week: "
            << online.events_processed << " events, "
            << online.radio_switches << " radio switches, "
            << online.outcome.wakes.size() << " duty wakes ("
            << online.outcome.duty_releases << " productive), "
            << online.outcome.deferral_latency_s.size()
            << " deferred transfers released\n";

  // 5. End-to-end: the NetMaster policy's week, accounted.
  const policy::NetMasterPolicy policy(training, config);
  const sim::SimReport report =
      sim::account(eval_week, policy.run(eval_week), config.profit.radio);
  std::cout << "\nend-to-end week: energy "
            << eval::Table::num(report.energy_j, 0) << " J, radio-on "
            << eval::Table::num(to_seconds(report.radio_on_ms) / 60, 0)
            << " min, interrupts " << report.interrupts << "\n";
  return 0;
}
