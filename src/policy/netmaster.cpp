// NetMasterPolicy::run — one evaluation replay, near-linear in the
// trace once the per-day prediction is made. Classification walks the
// activities with forward cursors over the predicted slots and the
// sessions; Algorithm 1's assignments land in a vector indexed by
// pending position; the duty walk is one merge over the inactive
// windows; and the outcome only states that NetMaster drives the data
// switch: the accountant derives the allowed set from the executed
// transfers (sim/accounting.hpp). The order of
// `outcome.transfers` (classification, then the knapsack releases, then
// the duty releases) is part of the contract: the daemon's get-schedule
// digest hashes it.
#include "policy/netmaster.hpp"

#include <algorithm>
#include <limits>
#include <span>
#include <sstream>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "policy/delay_batch.hpp"
#include "sched/overlap.hpp"
#include "sched/solver.hpp"

namespace netmaster::policy {

namespace {

/// Decision/degradation telemetry, resolved once per process.
struct NetMasterMetrics {
  obs::Counter& models_mined;
  obs::Counter& degraded_models;
  obs::Counter& runs;
  obs::Counter& fallback_taken;
  obs::Counter& interrupts;
  obs::Counter& duty_releases;

  static NetMasterMetrics& get() {
    obs::Registry& reg = obs::Registry::global();
    static NetMasterMetrics m{
        reg.counter("policy.netmaster.models_mined"),
        reg.counter("policy.netmaster.degraded_models"),
        reg.counter("policy.netmaster.runs"),
        reg.counter("policy.netmaster.fallback_taken"),
        reg.counter("policy.netmaster.interrupts"),
        reg.counter("policy.netmaster.duty_releases"),
    };
    return m;
  }
};

/// Deferral interval of the delay-batch schedule a degraded model falls
/// back to.
constexpr DurationMs kFallbackIntervalMs = 60 * 1000;

/// Pr[u] threshold for SlotPredictor::presence_windows: hours at least
/// this habitual are assumed to be spent at a familiar AP. Deliberately
/// stricter than the δ slot thresholds.
constexpr double kWifiPresenceDelta = 0.55;

/// Releases a fallback activity at the radio opportunity `at` (never
/// before its arrival, always inside the horizon).
void release_fallback(sim::PolicyOutcome& outcome,
                      const std::vector<NetworkActivity>& pending,
                      const std::vector<std::size_t>& pending_index,
                      std::size_t p, TimeMs at, TimeMs horizon) {
  const NetworkActivity& act = pending[p];
  const DurationMs dur = deferred_duration(act.duration);
  const TimeMs release = deferred_release(at, act.start, dur, horizon);
  if (release > act.start) {
    outcome.transfers.push_back({pending_index[p], release, dur});
    outcome.deferral_latency_s.push_back(to_seconds(release - act.start));
  } else {
    outcome.transfers.push_back({pending_index[p], act.start, act.duration});
  }
}

}  // namespace

// Delegation keeps the mine outside the member initializers: the
// mined pair is complete before predictor_ and then special_ take
// their halves.
NetMasterPolicy::NetMasterPolicy(const UserTrace& training,
                                 NetMasterConfig config)
    : NetMasterPolicy(mining::mine_habits(training), config) {}

NetMasterPolicy::NetMasterPolicy(mining::MinedHabits habits,
                                 NetMasterConfig config)
    : NetMasterPolicy(std::move(habits.model), std::move(habits.special),
                      config) {}

NetMasterPolicy::NetMasterPolicy(mining::HabitModel model,
                                 mining::SpecialApps special,
                                 NetMasterConfig config)
    : config_(config),
      predictor_(std::move(model), config.predictor),
      special_(std::move(special)) {
  validate_and_gate();
}

void NetMasterPolicy::validate_and_gate() {
  const NetMasterConfig& config = config_;
  NM_REQUIRE(config.eps > 0.0 && config.eps < 1.0,
             "eps must be in (0, 1)");
  NM_REQUIRE(config.robustness.min_confidence >= 0.0 &&
                 config.robustness.min_confidence <= 1.0,
             "min_confidence must be a probability");
  if (config.enable_wifi_offload) {
    config.profit.wifi.validate();
  }

  // Degradation gate: refuse to act on a model mined from too little
  // or too damaged history. The reason string is surfaced through
  // PolicyOutcome / SimReport so fleet reports show which users ran
  // degraded.
  const mining::HabitModel& model = predictor_.model();
  const double confidence = model.overall_confidence();
  // The reason is formatted only when the gate trips; a passing gate
  // leaves it empty.
  if (model.training_days() < config.robustness.min_training_days) {
    std::ostringstream why;
    why << "training days " << model.training_days() << " < "
        << config.robustness.min_training_days;
    degraded_reason_ = why.str();
  } else if (confidence < config.robustness.min_confidence) {
    std::ostringstream why;
    why << "model confidence " << confidence << " < "
        << config.robustness.min_confidence << " (data quality "
        << model.data_quality() << ")";
    degraded_reason_ = why.str();
  }
  NetMasterMetrics& metrics = NetMasterMetrics::get();
  metrics.models_mined.add(1);
  if (degraded()) metrics.degraded_models.add(1);
}

sim::PolicyOutcome NetMasterPolicy::run(
    const engine::TraceIndex& eval) const {
  NetMasterMetrics& metrics = NetMasterMetrics::get();
  metrics.runs.add(1);
  if (degraded()) {
    // Safe fallback: the strongest model-free baseline. Keep this
    // policy's name on the outcome so grids stay keyed consistently,
    // but flag the path so reports can tell the runs apart.
    metrics.fallback_taken.add(1);
    DelayBatchPolicy fallback(kFallbackIntervalMs);
    sim::PolicyOutcome outcome = fallback.run(eval);
    outcome.policy_name = name();
    outcome.path = sim::ExecutionPath::kDegradedFallback;
    outcome.degraded_reason = degraded_reason_;
    return outcome;
  }

  sim::PolicyOutcome outcome;
  outcome.policy_name = name();
  const TimeMs horizon = eval.horizon();
  const std::span<const ScreenSession> sessions = eval.sessions();
  const std::span<const NetworkActivity> activities = eval.activities();
  const std::size_t num_sessions = sessions.size();

  // NetMaster drives the data switch ("turns off radio whenever
  // necessary", §VI-A): after each transfer the radio keeps a short
  // dormancy grace, then the real-time adjustment forces it down —
  // during screen-off time *and* inside user active slots. The
  // accountant derives the grace windows and the duty probes from the
  // outcome; radio_allowed lists only the predicted slots, and only
  // when they power the radio.
  outcome.radio_allowed = IntervalSet{};

  // ---- Prediction: the user-active slot set U over the horizon. ----
  IntervalSet active;
  if (config_.enable_prediction) {
    for (int day = 0; day < eval.num_days(); ++day) {
      active.add(predictor_.predict_day(day).active_slots);
    }
  }
  if (config_.slot_powered_radio) outcome.radio_allowed = active;
  const std::vector<Interval>& slot_windows = active.intervals();

  // ---- Wi-Fi presence prediction (multi-radio co-scheduling). ----
  // The habit model's high-probability hours proxy for being at a
  // familiar AP; each merged window becomes an offload knapsack.
  IntervalSet wifi_presence;
  if (config_.enable_wifi_offload && config_.enable_prediction) {
    for (int day = 0; day < eval.num_days(); ++day) {
      wifi_presence.add(
          predictor_.presence_windows(day, kWifiPresenceDelta));
    }
  }
  const std::vector<Interval>& wifi_windows = wifi_presence.intervals();

  // ---- Classification pass. ----
  // Deferrable screen-off activities are held for a real radio-on
  // opportunity; everything else runs untouched. Arrivals come in start
  // order on any validated trace, so the slot and session lookups are
  // forward cursors; a backwards step (TraceIndex does not validate
  // ordering) re-seeks with the binary search the cursors replace.
  std::vector<NetworkActivity> pending;     // outside U: knapsack path
  std::vector<std::size_t> pending_index;   // -> eval activity index
  outcome.transfers.reserve(activities.size());
  std::size_t slot_at = 0;  // first slot with end > last arrival
  std::size_t sess_at = 0;  // first session with begin >= last arrival
  TimeMs last = std::numeric_limits<TimeMs>::min();
  for (std::size_t i = 0; i < activities.size(); ++i) {
    const NetworkActivity& act = activities[i];
    if (act.start < last) {
      slot_at = static_cast<std::size_t>(
          std::lower_bound(slot_windows.begin(), slot_windows.end(),
                           act.start,
                           [](const Interval& s, TimeMs t) {
                             return s.end <= t;
                           }) -
          slot_windows.begin());
      sess_at = eval.first_session_at_or_after(act.start);
    } else {
      while (slot_at < slot_windows.size() &&
             slot_windows[slot_at].end <= act.start) {
        ++slot_at;
      }
      while (sess_at < num_sessions && sessions[sess_at].begin < act.start) {
        ++sess_at;
      }
    }
    last = act.start;
    const bool in_slot = slot_at < slot_windows.size() &&
                         slot_windows[slot_at].begin <= act.start;
    if (eval.is_deferrable_screen_off(i)) {
      if (!in_slot) {
        pending.push_back(act);
        pending_index.push_back(i);
        continue;
      }
      if (config_.slot_powered_radio) {
        // Fig. 10c configuration: traffic inside U runs untouched on
        // the already-powered radio.
        outcome.transfers.push_back({i, act.start, act.duration});
        continue;
      }
      // Inside a predicted active slot: the user is expected soon. Hold
      // the transfer for the next real session; if the user never shows
      // before the slot closes, run at the slot boundary.
      NM_ASSERT(slot_at < slot_windows.size() &&
                    slot_windows[slot_at].contains(act.start),
                "active-set lookup must find the containing slot");
      const TimeMs next_session =
          sess_at < num_sessions ? sessions[sess_at].begin : horizon;
      const DurationMs dur = deferred_duration(act.duration);
      const TimeMs release = deferred_release(
          std::min(next_session, slot_windows[slot_at].end), act.start, dur,
          horizon);
      if (release > act.start) {
        outcome.transfers.push_back({i, release, dur});
        outcome.deferral_latency_s.push_back(
            to_seconds(release - act.start));
      } else {
        outcome.transfers.push_back({i, act.start, act.duration});
      }
      continue;
    }

    outcome.transfers.push_back({i, act.start, act.duration});
    // Wrong-decision accounting (§VI-B): a user-driven transfer outside
    // the predicted slots finds the radio off; the special-app check of
    // the real-time adjustment rescues it unless disabled or the app is
    // not special.
    if (act.user_initiated && !in_slot) {
      const bool rescued = config_.enable_special_apps &&
                           special_.is_special(act.app);
      if (!rescued) ++outcome.interrupts;
    }
  }

  // ---- Knapsack scheduling over the pending set (§IV, Algorithm 1). ----
  std::vector<int> assignment(pending.size(), -1);  // pending -> slot
  if ((!slot_windows.empty() || !wifi_windows.empty()) && !pending.empty()) {
    const sched::Instance inst = sched::build_instance(
        slot_windows, wifi_windows, pending, predictor_, config_.profit);
    sched::SolverOptions solver_options;
    solver_options.choice = config_.solver;
    solver_options.eps = config_.eps;
    const sched::OverlapSolution sol =
        sched::solve_overlapped(inst.slots, inst.items, solver_options);
    for (const sched::OverlapAssignment& a : sol.assignments) {
      assignment[inst.item_activity[static_cast<std::size_t>(a.item_id)]] =
          a.slot_index;
    }
  }

  std::vector<std::size_t> fallback;  // pending indices for duty path
  for (std::size_t p = 0; p < pending.size(); ++p) {
    const NetworkActivity& act = pending[p];
    if (assignment[p] < 0) {
      fallback.push_back(p);
      continue;
    }
    const auto slot_index = static_cast<std::size_t>(assignment[p]);
    if (slot_index >= slot_windows.size()) {
      // Wi-Fi offload: the same bytes execute on the WLAN inside the
      // assigned presence window — immediately when the arrival is
      // already covered, at the window's begin otherwise. Wi-Fi does
      // not ride the cellular data switch, so no session search.
      const Interval& win = wifi_windows[slot_index - slot_windows.size()];
      const DurationMs dur = sched::wifi_transfer_ms(act, config_.profit);
      const TimeMs release =
          deferred_release(win.begin, act.start, dur, horizon);
      outcome.transfers.push_back(
          {pending_index[p], release, dur, RadioId::kWifi});
      if (release > act.start) {
        outcome.deferral_latency_s.push_back(
            to_seconds(release - act.start));
      }
      continue;
    }
    const Interval& slot = slot_windows[slot_index];
    const DurationMs dur = deferred_duration(act.duration);
    TimeMs release;
    if (slot.end <= act.start) {
      // Prefetch into the preceding slot: the app is triggered to sync
      // while the user is active, during a real session late in the
      // slot; if the user never appeared, at the slot boundary.
      const TimeMs sess_begin =
          eval.last_session_begin_in(slot.begin, slot.end);
      release = sess_begin >= 0
                    ? sess_begin
                    : std::max(slot.begin, slot.end - dur);
      release = placed_release(release, dur, horizon);
      outcome.transfers.push_back({pending_index[p], release, dur});
      continue;
    }
    // Defer toward the following slot, riding the first real session
    // after the arrival (the real-time adjustment powers the radio for
    // any session, even one before the slot). If no session shows up by
    // the slot's end, run at the planned slot begin.
    const std::size_t sess = eval.first_session_at_or_after(act.start);
    if (sess < num_sessions && sessions[sess].begin <= slot.end) {
      release = sessions[sess].begin;
    } else {
      release = slot.begin;
    }
    release = deferred_release(release, act.start, dur, horizon);
    if (release > act.start) {
      outcome.transfers.push_back({pending_index[p], release, dur});
      outcome.deferral_latency_s.push_back(
          to_seconds(release - act.start));
    } else {
      outcome.transfers.push_back(
          {pending_index[p], act.start, act.duration});
    }
  }

  // ---- Duty-cycle fallback path (§IV-C.2). ----
  // The duty cycler owns every window outside U. Radio opportunities
  // inside such a window are the periodic wake-up probes plus any real
  // screen session (real-time adjustment); the window's end is a free
  // opportunity too, since a predicted active slot begins there.
  std::sort(fallback.begin(), fallback.end(),
            [&](std::size_t a, std::size_t b) {
              return pending[a].start < pending[b].start;
            });

  auto finalize = [&]() {
    metrics.interrupts.add(outcome.interrupts);
    metrics.duty_releases.add(outcome.duty_releases);
    return std::move(outcome);
  };

  if (!config_.enable_duty) {
    // Ablation: no probes; fall back to the next predicted slot or real
    // session, else run in place.
    for (std::size_t p : fallback) {
      const NetworkActivity& act = pending[p];
      TimeMs release = act.start;
      const auto after = std::upper_bound(
          slot_windows.begin(), slot_windows.end(), act.start,
          [](TimeMs t, const Interval& s) { return t < s.begin; });
      if (after != slot_windows.end()) release = after->begin;
      const TimeMs sess_begin = eval.next_session_begin(act.start, horizon);
      if (sess_begin < release) release = sess_begin;
      release_fallback(outcome, pending, pending_index, p, release,
                       horizon);
    }
    return finalize();
  }

  auto next_fb = fallback.begin();
  const IntervalSet inactive = active.complement(0, horizon);
  for (const Interval& window : inactive.intervals()) {
    duty::DutyCycler cycler(config_.duty);
    cycler.reset(window.begin);
    std::size_t sess = eval.first_session_at_or_after(window.begin);

    while (true) {
      const TimeMs wake = cycler.next_wake();
      const TimeMs sess_begin =
          (sess < num_sessions && sessions[sess].begin < window.end)
              ? sessions[sess].begin
              : window.end;
      if (sess_begin <= wake) {
        if (sess_begin >= window.end) break;
        // Real session pre-empts the probe: serve pending arrivals,
        // then restart the back-off after the session.
        while (next_fb != fallback.end() &&
               pending[*next_fb].start <= sess_begin) {
          release_fallback(outcome, pending, pending_index, *next_fb,
                           sess_begin, horizon);
          ++next_fb;
        }
        cycler.notify_activity(sessions[sess].end);
        ++sess;
        continue;
      }
      if (wake >= window.end) break;
      // Probe: productive when an arrival is waiting.
      bool productive = false;
      while (next_fb != fallback.end() &&
             pending[*next_fb].start <= wake) {
        release_fallback(outcome, pending, pending_index, *next_fb, wake,
                         horizon);
        ++outcome.duty_releases;
        ++next_fb;
        productive = true;
      }
      const DurationMs probe_window = std::min<DurationMs>(
          config_.duty.wake_window_ms, window.end - wake);
      outcome.wakes.push_back({wake, probe_window, productive});
      if (productive) {
        cycler.notify_activity(wake + probe_window);
      } else {
        cycler.advance_fruitless();
      }
    }
    // The window ends at a predicted active slot (or the horizon):
    // anything still waiting rides the slot's radio.
    while (next_fb != fallback.end() &&
           pending[*next_fb].start < window.end) {
      release_fallback(outcome, pending, pending_index, *next_fb,
                       window.end, horizon);
      ++next_fb;
    }
  }
  // Arrivals the walk never reached run in place (no inactive window
  // covered them — only possible when prediction marked everything
  // active).
  for (; next_fb != fallback.end(); ++next_fb) {
    const NetworkActivity& act = pending[*next_fb];
    outcome.transfers.push_back(
        {pending_index[*next_fb], act.start, act.duration});
  }

  return finalize();
}

}  // namespace netmaster::policy
