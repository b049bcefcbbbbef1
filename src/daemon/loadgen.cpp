#include "daemon/loadgen.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "net/protocol.hpp"
#include "synth/generator.hpp"
#include "synth/presets.hpp"

namespace netmaster::daemon {

void append_trace_events(const UserTrace& full, UserId user,
                         std::vector<LoadEvent>& out) {
  service::for_each_record(full, [&](const service::Record& r) {
    // The wire tie-break: off=0, on=1, app=2, net=3.
    int priority = 3;
    if (r.kind == service::RecordKind::kScreenOff) priority = 0;
    if (r.kind == service::RecordKind::kScreenOn) priority = 1;
    if (r.kind == service::RecordKind::kAppForeground) priority = 2;
    out.push_back({r.time, priority, user, r});
  });
}

void sort_events(std::vector<LoadEvent>& events) {
  std::stable_sort(events.begin(), events.end(),
                   [](const LoadEvent& a, const LoadEvent& b) {
                     if (a.time != b.time) return a.time < b.time;
                     return a.priority < b.priority;
                   });
}

LoadPlan build_load_plan(const LoadConfig& config) {
  NM_REQUIRE(config.users > 0, "users must be positive");
  NM_REQUIRE(config.train_days > 0 && config.train_days % 7 == 0,
             "train_days must be a positive multiple of 7");
  NM_REQUIRE(config.eval_days > 0, "eval_days must be positive");

  constexpr synth::Archetype kArchetypes[] = {
      synth::Archetype::kOfficeWorker,   synth::Archetype::kStudent,
      synth::Archetype::kNightOwl,       synth::Archetype::kCommuter,
      synth::Archetype::kRetiree,        synth::Archetype::kHeavyMessenger,
      synth::Archetype::kWeekendWarrior, synth::Archetype::kLightUser,
  };
  constexpr int kNumArchetypes =
      static_cast<int>(sizeof(kArchetypes) / sizeof(kArchetypes[0]));

  const int total = config.train_days + config.eval_days;
  LoadPlan plan;
  plan.users.reserve(static_cast<std::size_t>(config.users));
  for (int u = 0; u < config.users; ++u) {
    const synth::UserProfile profile =
        synth::make_user(kArchetypes[u % kNumArchetypes], u);
    // Exactly eval::make_traces: one full-horizon generation, then the
    // training/eval split by slice_days — the daemon's ground truth.
    const UserTrace full =
        synth::generate_trace(profile, total, config.seed);
    LoadUser user;
    user.session.user = u;
    user.session.train_days = config.train_days;
    user.session.num_days = total;
    user.session.app_names = full.app_names;
    user.training = full.slice_days(0, config.train_days);
    user.eval = full.slice_days(config.train_days, config.eval_days);
    append_trace_events(full, u, plan.events);
    plan.users.push_back(std::move(user));
  }

  sort_events(plan.events);
  return plan;
}

void replay_plan(const LoadPlan& plan, Netmasterd& daemon) {
  for (const LoadUser& user : plan.users) daemon.add_user(user.session);
  for (const LoadEvent& event : plan.events) {
    daemon.ingest(event.user, event.record);
  }
  for (const LoadUser& user : plan.users) {
    daemon.finish_user(user.session.user);
  }
}

std::vector<std::string> plan_request_lines(const LoadPlan& plan) {
  std::vector<std::string> lines;
  lines.reserve(plan.users.size() * 2 + plan.events.size());
  for (const LoadUser& user : plan.users) {
    net::Request req;
    req.kind = net::RequestKind::kUser;
    req.user = user.session.user;
    req.train_days = user.session.train_days;
    req.num_days = user.session.num_days;
    req.apps = user.session.app_names;
    lines.push_back(net::format_request(req));
  }
  for (const LoadEvent& event : plan.events) {
    net::Request req;
    req.kind = net::RequestKind::kIngest;
    req.user = event.user;
    req.record = event.record;
    lines.push_back(net::format_request(req));
  }
  for (const LoadUser& user : plan.users) {
    net::Request req;
    req.kind = net::RequestKind::kFinish;
    req.user = user.session.user;
    lines.push_back(net::format_request(req));
  }
  return lines;
}

}  // namespace netmaster::daemon
