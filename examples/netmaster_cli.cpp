// netmaster_cli — command-line driver over the library, for working
// with traces on disk:
//
//   netmaster_cli generate <archetype 0-7> <days> <seed> <out.csv>
//   netmaster_cli inspect  <trace.csv>
//   netmaster_cli evaluate <training.csv> <eval.csv> [policy]
//   netmaster_cli compare  [seed]
//
// Policies for `evaluate`: baseline, oracle, netmaster (default),
// delay:<seconds>, batch:<n>, delaybatch:<seconds>.
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>

#include "cli_args.hpp"
#include "eval/battery.hpp"
#include "eval/experiments.hpp"
#include "eval/session.hpp"
#include "eval/table.hpp"
#include "policy/baseline.hpp"
#include "policy/batch.hpp"
#include "policy/delay.hpp"
#include "policy/delay_batch.hpp"
#include "policy/netmaster.hpp"
#include "policy/oracle.hpp"
#include "synth/generator.hpp"
#include "synth/presets.hpp"
#include "trace/trace_io.hpp"
#include "trace/trace_stats.hpp"

namespace {

using namespace netmaster;
using examples::parse_int_arg;
using examples::parse_seed_arg;

int usage() {
  std::cerr
      << "usage:\n"
      << "  netmaster_cli generate <archetype 0-7> <days> <seed> <out.csv>\n"
      << "  netmaster_cli inspect  <trace.csv>\n"
      << "  netmaster_cli evaluate <training.csv> <eval.csv> [policy]\n"
      << "  netmaster_cli compare  [seed]\n"
      << "policies: baseline | oracle | netmaster | delay:<s> | "
         "batch:<n> | delaybatch:<s>\n";
  return 2;
}

std::unique_ptr<policy::Policy> make_policy(const std::string& spec,
                                            const UserTrace& training) {
  const examples::PolicySpecArg p = examples::parse_policy_spec(spec);
  if (p.kind == "baseline") return std::make_unique<policy::BaselinePolicy>();
  if (p.kind == "oracle") return std::make_unique<policy::OraclePolicy>();
  if (p.kind == "netmaster") {
    return std::make_unique<policy::NetMasterPolicy>(
        training, policy::NetMasterConfig{});
  }
  if (p.kind == "delay") return std::make_unique<policy::DelayPolicy>(p.delay);
  if (p.kind == "batch") return std::make_unique<policy::BatchPolicy>(p.batch);
  return std::make_unique<policy::DelayBatchPolicy>(p.delay);
}

int cmd_generate(int argc, char** argv) {
  if (argc != 6) return usage();
  const auto archetype =
      static_cast<synth::Archetype>(parse_int_arg(argv[2], 0, 7, "archetype"));
  const int days = parse_int_arg(argv[3], 1, kMaxTraceDays, "days");
  const std::uint64_t seed = parse_seed_arg(argv[4]);
  const synth::UserProfile profile = synth::make_user(archetype, 1);
  const UserTrace trace = synth::generate_trace(profile, days, seed);
  save_trace(argv[5], trace);
  std::cout << "wrote " << days << " days of '" << profile.name << "' ("
            << trace.activities.size() << " transfers, "
            << trace.usages.size() << " launches) to " << argv[5] << "\n";
  return 0;
}

int cmd_inspect(int argc, char** argv) {
  if (argc != 3) return usage();
  const UserTrace trace = load_trace(argv[2]);
  const TrafficSplit split = traffic_split(trace);
  const ScreenUtilization util = screen_utilization(trace);
  eval::Table t({"metric", "value"});
  t.add_row({"user", std::to_string(trace.user)});
  t.add_row({"days", std::to_string(trace.num_days)});
  t.add_row({"apps", std::to_string(trace.app_names.size())});
  t.add_row({"sessions", std::to_string(trace.sessions.size())});
  t.add_row({"launches", std::to_string(trace.usages.size())});
  t.add_row({"transfers", std::to_string(trace.activities.size())});
  t.add_row({"screen-off activity fraction",
             eval::Table::pct(split.screen_off_activity_fraction())});
  t.add_row({"avg session (s)", eval::Table::num(util.avg_session_s, 1)});
  t.add_row({"session radio utilization",
             eval::Table::pct(util.radio_utilization)});
  t.print(std::cout);
  return 0;
}

int cmd_evaluate(int argc, char** argv) {
  if (argc != 4 && argc != 5) return usage();
  const UserTrace training = load_trace(argv[2]);
  const UserTrace eval_trace = load_trace(argv[3]);
  const std::string spec = argc == 5 ? argv[4] : "netmaster";

  const RadioPowerParams radio = RadioPowerParams::wcdma();
  const auto p = make_policy(spec, training);
  const sim::SimReport base = sim::account(
      eval_trace, policy::BaselinePolicy().run(eval_trace), radio);
  const sim::SimReport rep =
      sim::account(eval_trace, p->run(eval_trace), radio);

  eval::Table t({"metric", spec, "baseline"});
  t.add_row({"energy (J)", eval::Table::num(rep.energy_j, 0),
             eval::Table::num(base.energy_j, 0)});
  t.add_row({"saving",
             eval::Table::pct(base.energy_j > 0
                                  ? 1.0 - rep.energy_j / base.energy_j
                                  : 0.0),
             "0%"});
  t.add_row({"radio-on (min)",
             eval::Table::num(to_seconds(rep.radio_on_ms) / 60.0, 1),
             eval::Table::num(to_seconds(base.radio_on_ms) / 60.0, 1)});
  t.add_row({"avg down (kB/s)",
             eval::Table::num(rep.avg_down_rate_kbps, 2),
             eval::Table::num(base.avg_down_rate_kbps, 2)});
  t.add_row({"affected users", eval::Table::pct(rep.affected_fraction, 2),
             "0.00%"});
  t.add_row({"battery/day",
             eval::Table::pct(eval::battery_fraction_per_day(
                 rep.energy_j, eval_trace.num_days)),
             eval::Table::pct(eval::battery_fraction_per_day(
                 base.energy_j, eval_trace.num_days))});
  t.print(std::cout);
  return 0;
}

int cmd_compare(int argc, char** argv) {
  eval::ExperimentConfig cfg;
  if (argc > 2) cfg.seed = parse_seed_arg(argv[2]);
  const eval::EvalSession session(synth::volunteer_population(), cfg);
  const auto results = eval::compare_all(session);
  eval::Table t({"volunteer", "policy", "saving", "affected"});
  for (std::size_t u = 0; u < results.size(); ++u) {
    const auto& r = results[u];
    if (!session.ok(u)) {
      std::cerr << "volunteer " << r.user << " (" << r.profile_name
                << ") could not be prepared: " << session.prep_error(u)
                << "\n";
      continue;
    }
    for (const auto& row : r.rows) {
      t.add_row({std::to_string(r.user) + ":" + r.profile_name,
                 row.policy, eval::Table::pct(row.energy_saving),
                 eval::Table::pct(row.report.affected_fraction, 2)});
    }
  }
  t.print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "generate") return cmd_generate(argc, argv);
    if (cmd == "inspect") return cmd_inspect(argc, argv);
    if (cmd == "evaluate") return cmd_evaluate(argc, argv);
    if (cmd == "compare") return cmd_compare(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return usage();
}
