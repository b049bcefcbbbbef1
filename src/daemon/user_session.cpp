#include "daemon/user_session.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/error.hpp"
#include "engine/trace_index.hpp"
#include "fault/sanitize.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace netmaster::daemon {

namespace {

/// Fold/mine/refresh telemetry, resolved once per process.
struct SessionMetrics {
  obs::Counter& folds;
  obs::Counter& late;
  obs::Counter& models;
  obs::Counter& refreshes;
  obs::Counter& alarms;

  static SessionMetrics& get() {
    obs::Registry& reg = obs::Registry::global();
    static SessionMetrics m{
        reg.counter("daemon.fold.days"),
        reg.counter("daemon.ingest.late_events"),
        reg.counter("daemon.mine.models"),
        reg.counter("daemon.refresh.count"),
        reg.counter("daemon.drift.alarms"),
    };
    return m;
  }
};

}  // namespace

UserSession::UserSession(UserSessionConfig config,
                         policy::NetMasterConfig policy_config,
                         service::AdaptationConfig adapt)
    : config_(std::move(config)),
      policy_config_(policy_config),
      lifecycle_(adapt, policy_config.robustness) {
  NM_REQUIRE(config_.train_days > 0 && config_.train_days % 7 == 0,
             "train_days must be a positive multiple of 7");
  NM_REQUIRE(config_.num_days > config_.train_days,
             "num_days must exceed train_days");
  NM_REQUIRE(!config_.app_names.empty(), "app table must be non-empty");
  train_end_ = day_start(config_.train_days);
}

void UserSession::ingest(const service::Record& record) {
  ++stats_.events;
  const int day = day_of(std::max<TimeMs>(record.time, 0));
  if (stats_.finished || record.time < 0 || day >= config_.num_days ||
      day < current_day_) {
    // Out of the horizon, or its day already folded: the store keeps
    // the record (full-window reconstructions still see it) but the
    // at-most-once fold discipline never re-folds a completed day.
    ++stats_.late_events;
    SessionMetrics::get().late.add(1);
    if (!stats_.finished && record.time >= 0) {
      store_.append(record);
      if (record.time >= train_end_ && day < config_.num_days) {
        // The record lands inside the evaluation horizon, so the next
        // schedule() reconstruction includes it — count it into the
        // cache key and drop the schedule computed without it.
        ++eval_events_;
        cache_valid_ = false;
      }
    }
    return;
  }
  if (day > current_day_) fold_through(day);

  // Ingest-side session pairing, mirroring RecordStore::reconstruct:
  // the first ON opens, the first OFF closes, repeats are ignored. The
  // state feeds the synthetic screen-on edge when a session straddles
  // the training/evaluation boundary (slice_days clips; the eval
  // reconstruction must see the same clipped session).
  if (record.kind == service::RecordKind::kScreenOn) {
    if (screen_open_since_ < 0) screen_open_since_ = record.time;
  } else if (record.kind == service::RecordKind::kScreenOff) {
    screen_open_since_ = -1;
  }

  store_.append(record);
  window_records_.push_back(record);
  if (record.time >= train_end_) {
    ++eval_events_;
    cache_valid_ = false;
  }
}

void UserSession::finish() {
  if (stats_.finished) return;
  fold_through(config_.num_days);
  stats_.finished = true;
}

void UserSession::fold_through(int day) {
  const int until = std::min(day, config_.num_days);
  while (current_day_ < until) {
    fold_day(current_day_);
    ++current_day_;
    if (current_day_ == config_.train_days) complete_training();
    // Keep only the trailing day the next fold's window needs.
    const TimeMs keep_from = day_start(current_day_ - 1);
    std::erase_if(window_records_, [&](const service::Record& r) {
      return r.time < keep_from;
    });
  }
}

mining::DayContribution UserSession::summarize_window(int day) const {
  // Reconstruct days [day-1, day] (an evaluation day, so day >= 7)
  // shifted to a 2-day window: sessions spanning the leading midnight
  // pair up, sessions still open at the window's end clamp to it —
  // exactly the screen coverage the full-history fold derives for
  // `day`, summarized in the absolute day's regime.
  const TimeMs lo = day_start(day - 1);
  const TimeMs hi = day_start(day + 1);
  service::TraceRebuilder window(config_.user, 2, config_.app_names);
  for (service::Record r : window_records_) {
    if (r.time < lo || r.time >= hi) continue;
    r.time -= lo;
    window.add(r);
  }
  const mining::HourBuckets buckets = mining::fold_buckets(
      fault::sanitize_trace(std::move(window).finish()).trace);
  return mining::IncrementalHabitMiner::summarize_day(day, buckets.day(1),
                                                      buckets.num_apps);
}

void UserSession::fold_day(int day) {
  ++stats_.days_folded;
  SessionMetrics::get().folds.add(1);
  // A training day only closes: complete_training mines the whole
  // training window once, so nothing is summarized here.
  if (day < config_.train_days) return;

  // Evaluation day: the online executive's midnight tick. train_days
  // is a multiple of 7, so the relative day keeps its regime.
  obs::SpanScope span("daemon.fold");
  const int rel = day - config_.train_days;
  const bool refresh_due =
      lifecycle_.observe_summary(rel, summarize_window(day));
  if (lifecycle_.alarms() > stats_.alarms) {
    stats_.alarms = lifecycle_.alarms();
    SessionMetrics::get().alarms.add(1);
  }
  stats_.drift_score = lifecycle_.score();
  // The fold of relative day `rel` happens at the midnight opening
  // relative day rel + 1 — the day the online executive refreshes.
  if (refresh_due) attempt_refresh(rel + 1);
}

void UserSession::complete_training() {
  obs::SpanScope span("daemon.mine");
  // The batch constructor mines the raw reconstruction of every stored
  // training record (late ones included) and detects the special apps
  // from it — one builder for the batch policy and the daemon.
  const UserTrace training = training_trace();
  policy_ =
      std::make_unique<policy::NetMasterPolicy>(training, policy_config_);
  if (lifecycle_.enabled()) lifecycle_.anchor(training);
  eval_screen_open_ =
      screen_open_since_ >= 0 && screen_open_since_ < train_end_;
  stats_.trained = true;
  stats_.model_version = 1;
  cache_valid_ = false;
  SessionMetrics::get().models.add(1);
}

void UserSession::attempt_refresh(int eval_day) {
  obs::SpanScope span("daemon.refresh");
  std::optional<mining::HabitModel> fresh =
      lifecycle_.refresh(eval_day, eval_trace(eval_day));
  stats_.refresh_attempts = lifecycle_.attempts();
  if (!fresh) return;
  policy_ = std::make_unique<policy::NetMasterPolicy>(
      std::move(*fresh), policy_->special_apps(), policy_config_);
  stats_.refreshes = lifecycle_.refreshes();
  ++stats_.model_version;
  cache_valid_ = false;
  SessionMetrics::get().refreshes.add(1);
}

UserTrace UserSession::training_trace() const {
  service::TraceRebuilder training(config_.user, config_.train_days,
                                   config_.app_names);
  store_.for_each([&](service::Record r) {
    if (r.time >= train_end_) return;
    if (r.kind == service::RecordKind::kNetworkActivity &&
        r.time + r.duration > train_end_) {
      // slice_days clips transfers at the slice edge; match it so the
      // miner sees the same training window the batch path mines.
      r.duration = train_end_ - r.time;
    }
    training.add(r);
  });
  return std::move(training).finish();
}

fault::SanitizeResult UserSession::eval_trace(int horizon_days) const {
  const TimeMs hi = train_end_ + day_start(horizon_days);
  service::TraceRebuilder eval(config_.user, horizon_days,
                               config_.app_names);
  if (eval_screen_open_) {
    // A session straddling the training boundary appears in the
    // evaluation slice clipped to its start; re-open it at the epoch.
    eval.add({service::RecordKind::kScreenOn, 0, -1, 0, 0, 0, false, false});
  }
  // The store is read in place: no copy of the history per read.
  store_.for_each([&](service::Record r) {
    if (r.time < train_end_ || r.time >= hi) return;
    r.time -= train_end_;
    eval.add(r);
  });
  return fault::sanitize_trace(std::move(eval).finish());
}

const ScheduleResult& UserSession::schedule() {
  NM_REQUIRE(policy_ != nullptr,
             "schedule requested before the training window completed");
  if (cache_valid_ && cache_events_ == eval_events_ &&
      cache_version_ == stats_.model_version) {
    return cached_;
  }
  obs::SpanScope span("daemon.schedule");
  const fault::SanitizeResult repaired = eval_trace(eval_days());
  const engine::TraceIndex index(repaired.trace);
  cached_.outcome = policy_->run(index);
  cached_.model_version = stats_.model_version;
  cached_.degraded = policy_->degraded();
  cached_.degraded_reason = policy_->degraded_reason();
  cache_valid_ = true;
  cache_events_ = eval_events_;
  cache_version_ = stats_.model_version;
  return cached_;
}

}  // namespace netmaster::daemon
