#include "eval/session.hpp"

#include <utility>

#include "common/error.hpp"
#include "jobs/job_system.hpp"
#include "obs/span.hpp"
#include "policy/baseline.hpp"
#include "synth/generator.hpp"

namespace netmaster::eval {

namespace {

/// Runs the per-user set-up tasks to completion. Which hydrations the
/// cap kept depends on the order the workers admitted in, so a build
/// that overflowed the cap keeps none: what stays hydrated is the same
/// at every worker count, and a fleet that fits stays fully hydrated.
void run_set_up(jobs::TaskGraph& graph, unsigned max_threads,
                UserStore& store) {
  jobs::run_graph(graph, max_threads);
  if (store.evictions() > 0) store.evict_all();
}

}  // namespace

VolunteerTraces make_traces(const synth::UserProfile& profile,
                            const ExperimentConfig& config) {
  NM_REQUIRE(config.train_days > 0 && config.eval_days > 0,
             "train/eval day counts must be positive");
  NM_REQUIRE(config.train_days % 7 == 0,
             "train_days must be whole weeks to keep the weekday/weekend "
             "regimes aligned between training and evaluation");
  const int total = config.train_days + config.eval_days;
  const UserTrace full =
      synth::generate_trace(profile, total, config.seed);
  return {full.slice_days(0, config.train_days),
          full.slice_days(config.train_days, config.eval_days)};
}

VolunteerTraces make_drifting_traces(const synth::UserProfile& profile,
                                     const ExperimentConfig& config,
                                     const synth::DriftSpec& spec) {
  NM_REQUIRE(config.train_days > 0 && config.eval_days > 0,
             "train/eval day counts must be positive");
  NM_REQUIRE(config.train_days % 7 == 0,
             "train_days must be whole weeks to keep the weekday/weekend "
             "regimes aligned between training and evaluation");
  // The spec's onset is eval-relative; generation runs in absolute
  // days over the whole train+eval horizon.
  synth::DriftSpec absolute = spec;
  absolute.onset_day = spec.onset_day + config.train_days;
  NM_REQUIRE(absolute.onset_day >= 0,
             "drift onset must not precede the generated horizon");
  const int total = config.train_days + config.eval_days;
  const UserTrace full =
      synth::generate_drifting_trace(profile, absolute, total, config.seed);
  return {full.slice_days(0, config.train_days),
          full.slice_days(config.train_days, config.eval_days)};
}

EvalSession::EvalSession(const std::vector<synth::UserProfile>& profiles,
                         const ExperimentConfig& config,
                         unsigned max_threads)
    : config_(config),
      store_(std::make_unique<UserStore>(config.store)),
      users_(profiles.size()) {
  store_->resize(profiles.size());
  // One task per user: synthesize and admit its traces, then prepare
  // from the Pin the admission returned. A user whose synthesis
  // finishes early prepares at once; it never waits for the slowest
  // generator.
  jobs::TaskGraph graph;
  for (std::size_t u = 0; u < users_.size(); ++u) {
    graph.add([this, u, &profile = profiles[u]] {
      users_[u].id = profile.id;
      users_[u].profile_name = profile.name;
      UserStore::Pin pin;
      try {
        const obs::SpanScope gen_span("fleet.trace_gen");
        pin = store_->admit(u, make_traces(profile, config_));
      } catch (const std::exception& e) {
        users_[u].prep_error = e.what();
        return;
      }
      prepare_user(u, pin);
    });
  }
  run_set_up(graph, max_threads, *store_);
}

EvalSession::EvalSession(std::vector<VolunteerTraces> volunteers,
                         const ExperimentConfig& config,
                         unsigned max_threads)
    : config_(config),
      store_(std::make_unique<UserStore>(config.store)),
      users_(volunteers.size()) {
  store_->resize(volunteers.size());
  // One task per user: admit its traces (each task moves out its own
  // element), then prepare from the admitted traces.
  jobs::TaskGraph graph;
  for (std::size_t u = 0; u < users_.size(); ++u) {
    graph.add([this, u, &volunteers] {
      users_[u].id = volunteers[u].eval.user;
      users_[u].profile_name = "volunteer";
      UserStore::Pin pin;
      try {
        pin = store_->admit(u, std::move(volunteers[u]));
      } catch (const std::exception& e) {
        users_[u].prep_error = e.what();
        return;
      }
      prepare_user(u, pin);
    });
  }
  run_set_up(graph, max_threads, *store_);
}

void EvalSession::prepare_user(std::size_t u, const VolunteerTraces& traces) {
  UserState& state = users_[u];
  const obs::SpanScope span("fleet.prepare");
  try {
    // The index copies the eval trace's records and is self-contained
    // from then on, and the policy-invariant report fields are folded
    // from its records once here instead of once per cell.
    traces.eval.validate();
    state.index = std::make_unique<engine::TraceIndex>(traces.eval);
    state.totals = sim::trace_totals(*state.index);
    const policy::BaselinePolicy base;
    const obs::SpanScope account_span("fleet.account");
    RadioSet radios;
    radios.cellular = config_.netmaster.profit.radio;
    state.baseline = sim::account(state.totals, state.index->usages(),
                                  base.run(*state.index), radios);
  } catch (const std::exception& e) {
    state.prep_error = e.what();
  }
}

std::size_t EvalSession::num_ok() const {
  std::size_t n = 0;
  for (const UserState& state : users_) {
    if (state.prep_error.empty()) ++n;
  }
  return n;
}

const engine::TraceIndex& EvalSession::index(std::size_t u) const {
  const UserState& state = user(u);
  NM_REQUIRE(state.index != nullptr,
             "EvalSession::index on a failed user — check ok(u) first");
  return *state.index;
}

const sim::TraceTotals& EvalSession::totals(std::size_t u) const {
  const UserState& state = user(u);
  NM_REQUIRE(state.index != nullptr,
             "EvalSession::totals on a failed user — check ok(u) first");
  return state.totals;
}

const sim::SimReport& EvalSession::baseline(std::size_t u) const {
  const UserState& state = user(u);
  NM_REQUIRE(state.prep_error.empty(),
             "EvalSession::baseline on a failed user — check ok(u) first");
  return state.baseline;
}

const mining::MinedHabits& EvalSession::habits(
    std::size_t u,
    const std::function<const UserTrace&()>& read_training) const {
  const UserState& state = user(u);
  NM_REQUIRE(state.prep_error.empty(),
             "EvalSession::habits on a failed user — check ok(u) first");
  // Double-checked under the user's mutex rather than std::call_once:
  // a throw must leave the memo unset so the next caller retries, and
  // ThreadSanitizer's pthread_once interceptor hangs every later caller
  // of a once_flag whose callable threw.
  if (!state.habits_ready.load(std::memory_order_acquire)) {
    const std::lock_guard<std::mutex> lock(state.habits_mutex);
    if (!state.habits_ready.load(std::memory_order_relaxed)) {
      state.habits.emplace(mining::mine_habits(read_training()));
      state.habits_ready.store(true, std::memory_order_release);
    }
  }
  return *state.habits;
}

std::size_t EvalSession::arena_bytes() const {
  std::size_t total = 0;
  for (const UserState& state : users_) {
    if (state.index) total += state.index->bytes();
  }
  return total;
}

const EvalSession::UserState& EvalSession::user(std::size_t u) const {
  NM_REQUIRE(u < users_.size(), "EvalSession user index out of range");
  return users_[u];
}

}  // namespace netmaster::eval
