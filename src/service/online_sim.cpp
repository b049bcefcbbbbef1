#include "service/online_sim.hpp"

#include <algorithm>
#include <optional>
#include <queue>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "duty/duty_cycle.hpp"
#include "fault/sanitize.hpp"
#include "mining/habits.hpp"
#include "mining/incremental.hpp"
#include "mining/special_apps.hpp"
#include "policy/policy.hpp"
#include "service/record_store.hpp"

namespace netmaster::service {

namespace {

enum class EventKind {
  kMidnight,   // re-predict the day's active slots
  kScreenOn,   // real session begins: radio opportunity
  kScreenOff,  // session ends: duty cycle re-arms
  kArrival,    // network activity wants to run
  kDutyWake,   // periodic probe while idle outside slots
};

struct Event {
  TimeMs time = 0;
  EventKind kind = EventKind::kMidnight;
  std::size_t index = 0;  // activity index for kArrival

  // Priority-queue ordering: earliest first; on ties, midnight and
  // screen edges before arrivals before probes (a transfer arriving
  // exactly at a screen edge sees the radio up).
  friend bool operator>(const Event& a, const Event& b) {
    if (a.time != b.time) return a.time > b.time;
    return static_cast<int>(a.kind) > static_cast<int>(b.kind);
  }
};

struct PendingTransfer {
  std::size_t index;
  TimeMs arrival;
  DurationMs duration;  // original duration
};

}  // namespace

OnlineSimResult run_online(const UserTrace& training,
                           const UserTrace& eval,
                           const policy::NetMasterConfig& config) {
  return run_online(training, eval, engine::TraceIndex(eval), config);
}

OnlineSimResult run_online(const UserTrace& training,
                           const UserTrace& eval,
                           const engine::TraceIndex& index,
                           const policy::NetMasterConfig& config,
                           const AdaptationConfig& adapt) {
  eval.validate();
  NM_REQUIRE(index.horizon() == eval.trace_end() &&
                 index.activities().size() == eval.activities.size() &&
                 index.sessions().size() == eval.sessions.size(),
             "run_online: the index was not built from the eval trace");
  const TimeMs horizon = index.horizon();
  ModelLifecycle lifecycle(adapt, config.robustness);  // validates adapt

  // ---- Mined state (the §V mining broadcast). ----
  // Mutable: the drift-adaptation loop may hot-swap a re-mined model.
  mining::MinedHabits mined = mining::mine_habits(training);
  mining::SlotPredictor predictor(std::move(mined.model), config.predictor);
  const mining::SpecialApps special = std::move(mined.special);

  OnlineSimResult result;
  sim::PolicyOutcome& out = result.outcome;
  out.policy_name = "netmaster-online";
  // Drives the data switch, as the policy path does; the accountant
  // derives the dormancy-grace windows from the executed transfers.
  out.radio_allowed = IntervalSet{};

  // ---- Event queue seeding. ----
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> queue;
  for (int day = 0; day < eval.num_days; ++day) {
    queue.push({day_start(day), EventKind::kMidnight, 0});
  }
  for (const ScreenSession& s : eval.sessions) {
    queue.push({s.begin, EventKind::kScreenOn, 0});
    queue.push({s.end, EventKind::kScreenOff, 0});
  }
  for (std::size_t i = 0; i < eval.activities.size(); ++i) {
    queue.push({eval.activities[i].start, EventKind::kArrival, i});
  }

  // ---- Executive state. ----
  IntervalSet today_slots;  // predicted active slots of the current day
  bool screen_on = false;
  duty::DutyCycler cycler(config.duty);
  bool duty_armed = false;
  TimeMs expected_wake = -1;  // invalidates stale queued probe events
  std::vector<PendingTransfer> pending;

  // ---- Drift adaptation (the continued §V mining loop). ----
  // Each completed day feeds the lifecycle at its closing midnight with
  // its row of the evaluation trace's bucket fold (eval.validate() above
  // makes `eval` a trace the fold takes); a due refresh re-mines from
  // the monitoring records of the days seen so far, derived from the
  // evaluation trace on demand.
  mining::HourBuckets eval_buckets;
  if (lifecycle.enabled()) {
    lifecycle.anchor(training);
    eval_buckets = mining::fold_buckets(eval);
  }
  auto close_day = [&](int day) {
    if (!lifecycle.enabled() ||
        !lifecycle.observe_summary(
            day, mining::IncrementalHabitMiner::summarize_day(
                     day, eval_buckets.day(day), eval_buckets.num_apps))) {
      return;
    }
    TraceRebuilder seen(eval.user, day + 1, eval.app_names);
    for_each_record(
        eval, [&](const Record& r) { seen.add(r); }, day_start(day + 1));
    std::optional<mining::HabitModel> fresh = lifecycle.refresh(
        day + 1, fault::sanitize_trace(std::move(seen).finish()));
    if (fresh) {
      predictor = mining::SlotPredictor(std::move(*fresh), config.predictor);
    }
  };

  auto in_slot = [&](TimeMs t) {
    return config.enable_prediction && today_slots.contains(t);
  };

  auto execute = [&](std::size_t activity, TimeMs start, DurationMs duration,
                     TimeMs arrival) {
    out.transfers.push_back({activity, start, duration});
    if (start > arrival) {
      out.deferral_latency_s.push_back(to_seconds(start - arrival));
    }
  };

  // A held transfer's deferred copy (deferred_duration) starts at
  // deferred_release(at, ...); with no room for the copy before the
  // horizon it runs in place with its original duration.
  auto release_all_pending = [&](TimeMs at) {
    for (const PendingTransfer& p : pending) {
      const DurationMs dur = policy::deferred_duration(p.duration);
      if (horizon - dur < p.arrival) {
        execute(p.index, p.arrival, p.duration, p.arrival);
      } else {
        execute(p.index,
                policy::deferred_release(at, p.arrival, dur, horizon), dur,
                p.arrival);
      }
    }
    const bool any = !pending.empty();
    pending.clear();
    return any;
  };

  auto arm_duty = [&](TimeMs now) {
    if (!config.enable_duty) {
      duty_armed = false;
      return;
    }
    cycler.reset(now);
    duty_armed = true;
    ++result.radio_switches;  // svc data disable
    expected_wake = cycler.next_wake();
    if (expected_wake < horizon) {
      queue.push({expected_wake, EventKind::kDutyWake, 0});
    }
  };

  // The radio starts down for the night-to-be.
  arm_duty(0);

  while (!queue.empty()) {
    const Event ev = queue.top();
    queue.pop();
    if (ev.time >= horizon) continue;
    ++result.events_processed;

    switch (ev.kind) {
      case EventKind::kMidnight: {
        const int day = day_of(ev.time);
        if (day > 0) close_day(day - 1);
        today_slots = predictor.predict_day(day).active_slots;
        break;
      }

      case EventKind::kScreenOn: {
        screen_on = true;
        ++result.radio_switches;  // real-time adjustment powers radio
        release_all_pending(ev.time);
        duty_armed = false;  // session owns the radio
        break;
      }

      case EventKind::kScreenOff: {
        screen_on = false;
        arm_duty(ev.time);
        break;
      }

      case EventKind::kArrival: {
        const NetworkActivity& act = eval.activities[ev.index];
        // The precomputed classification agrees with the event-loop
        // screen state: screen edges sort before same-time arrivals, so
        // `screen_on` here equals screen_on_at(act.start).
        if (!index.is_deferrable_screen_off(ev.index)) {
          execute(ev.index, act.start, act.duration, act.start);
          // Wrong-decision check (§VI-B): user-driven traffic outside
          // predicted slots finds the radio down unless the app is
          // special.
          if (act.user_initiated && !screen_on && !in_slot(act.start)) {
            const bool rescued = config.enable_special_apps &&
                                 special.is_special(act.app);
            if (!rescued) ++out.interrupts;
          }
          break;
        }
        // Deferrable, screen off: hold for the next radio opportunity.
        pending.push_back({ev.index, act.start, act.duration});
        if (!config.enable_duty && !config.enable_prediction) {
          // Nothing will ever release it: run in place (ablation).
          release_all_pending(act.start);
        }
        break;
      }

      case EventKind::kDutyWake: {
        // Stale timers: only the probe the cycler currently expects
        // counts; earlier re-arms invalidate queued events.
        if (!duty_armed || screen_on || ev.time != expected_wake) break;
        if (in_slot(ev.time)) {
          // A predicted active slot is a radio opportunity in itself:
          // release and let the slot own the radio until it closes.
          release_all_pending(ev.time);
          cycler.notify_activity(ev.time);
        } else {
          const DurationMs window = std::min<DurationMs>(
              config.duty.wake_window_ms, horizon - ev.time);
          const bool productive = release_all_pending(ev.time);
          out.wakes.push_back({ev.time, window, productive});
          if (productive) {
            ++out.duty_releases;
            cycler.notify_activity(ev.time + window);
          } else {
            cycler.advance_fruitless();
          }
        }
        expected_wake = cycler.next_wake();
        if (expected_wake < horizon) {
          queue.push({expected_wake, EventKind::kDutyWake, 0});
        }
        break;
      }
    }
  }
  // Anything still pending at the horizon runs at the last moment.
  release_all_pending(horizon);
  // No midnight tick follows the last day; close it here so the
  // detector score is the one at the horizon.
  if (eval.num_days > 0) close_day(eval.num_days - 1);

  // All zero (and -1) when adaptation is off.
  result.final_drift_score = lifecycle.score();
  out.drift_score = result.final_drift_score;
  result.drift_alarms = lifecycle.alarms();
  result.model_refreshes = lifecycle.refreshes();
  result.first_alarm_day = lifecycle.first_alarm_day();
  return result;
}

}  // namespace netmaster::service
