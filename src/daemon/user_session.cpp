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
    // Out of the horizon, or its day already folded: the at-most-once
    // fold discipline never re-folds a completed day, but a record of
    // the open window still reaches its rebuilder (later reads see it).
    ++stats_.late_events;
    SessionMetrics::get().late.add(1);
    if (!stats_.finished && record.time >= 0 && day < config_.num_days) {
      add(record);
    }
    return;
  }
  if (day > current_day_) fold_through(day);
  add(record);
  window_records_.push_back(record);
}

void UserSession::add(service::Record r) {
  if (r.time < train_end_) {
    // Training completes before any evaluation record arrives; a
    // training record after that reaches neither window.
    if (stats_.trained) return;
    if (r.kind == service::RecordKind::kNetworkActivity &&
        r.time + r.duration > train_end_) {
      // slice_days clips transfers at the slice edge; match it so the
      // miner sees the same training window the batch path mines.
      r.duration = train_end_ - r.time;
    }
    training().add(r);
    return;
  }
  r.time -= train_end_;
  eval_->add(r);
  // The next schedule() snapshot includes the record: drop the
  // schedule computed without it.
  cache_valid_ = false;
}

service::TraceRebuilder& UserSession::training() {
  if (!training_) {
    training_.emplace(config_.user, config_.train_days, config_.app_names);
  }
  return *training_;
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
  // A session straddling the training boundary appears in the
  // evaluation slice clipped to its start; re-open it at the epoch.
  eval_.emplace(config_.user, eval_days(), config_.app_names);
  if (training().screen_open()) {
    eval_->add({service::RecordKind::kScreenOn, 0, -1, 0, 0, 0, false, false});
  }
  // The batch constructor mines the raw reconstruction of every
  // training record (late ones included) and detects the special apps
  // from it — one builder for the batch policy and the daemon.
  const UserTrace trace = std::move(training()).finish();
  training_.reset();
  policy_ = std::make_unique<policy::NetMasterPolicy>(trace, policy_config_);
  if (lifecycle_.enabled()) lifecycle_.anchor(trace);
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

fault::SanitizeResult UserSession::eval_trace(int horizon_days) const {
  return fault::sanitize_trace(eval_->snapshot(horizon_days));
}

const ScheduleResult& UserSession::schedule() {
  NM_REQUIRE(policy_ != nullptr,
             "schedule requested before the training window completed");
  if (cache_valid_) return cached_;
  obs::SpanScope span("daemon.schedule");
  const fault::SanitizeResult repaired = eval_trace(eval_days());
  const engine::TraceIndex index(repaired.trace);
  cached_.outcome = policy_->run(index);
  cached_.model_version = stats_.model_version;
  cache_valid_ = true;
  return cached_;
}

}  // namespace netmaster::daemon
