// `stream`: the streaming engine over a pre-drawn million-session horizon.
//
// Untraced pass: sim::StreamingTimeline (marketplace design, default
// 100-bid menus, 300 s epochs over 1 h) replays the same broker and
// background streams repeatedly until the window is spent. Engine time is
// the run's wall time minus the time inside the replay streams' next_batch
// (the load generator). Epoch boundaries are read off the broker stream's
// pulls: the first pull an epoch makes happens right after it admitted the
// previous pull's leftover sessions, so consecutive first pulls bracket
// one epoch to within one batch of admissions.
//
// Traced pass: a replica of one streaming run built from the same public
// calls the engine makes (SessionStore admit/drop_until/groups,
// place_background_over, run_design_over, detail::assign_sessions,
// apply_assignment, compute_metrics_over, detail::ChurnTracker), each timed
// as a span, and gated to reproduce the engine's epoch reports exactly.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <optional>

#include "cdn/menu_cache.hpp"
#include "inputs.hpp"
#include "sim/designs.hpp"
#include "sim/metrics.hpp"
#include "sim/session_store.hpp"
#include "sim/streaming.hpp"
#include "sim/timeline_detail.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace vdx;
using trace::Session;

constexpr std::size_t kBrokerSessions = 1'000'000;
constexpr double kBackgroundMultiplier = 3.0;
constexpr double kHorizonS = 3600.0;
constexpr double kEpochS = 300.0;
// Set-ups repeated after the window; setup_s is their median. The measured
// run's own set-up is left out of it: it is the first to fault in fresh pages.
constexpr int kWarmSetups = 5;

struct Setup {
  sim::Scenario scenario;
  std::unique_ptr<cdn::CandidateMenuCache> menus;
  Drawn broker;
  Drawn background;
};

/// Scenario, the design's menu cache (handed to the engine through
/// RunConfig::menus, so menus are built once per process as a deployment
/// would), and the seeded broker + background streams.
Setup build_setup(std::uint64_t seed) {
  Setup s{build_scenario(kHorizonS), nullptr, {}, {}};
  s.menus = std::make_unique<cdn::CandidateMenuCache>(
      s.scenario.catalog(), s.scenario.mapping(), s.scenario.world().cities().size(),
      sim::menu_config_for(sim::Design::kMarketplace, sim::RunConfig{}));
  s.broker = draw_sessions(s.scenario, seed, "perfbench-stream-broker",
                           kBrokerSessions, kHorizonS, true);
  s.background = draw_sessions(
      s.scenario, seed, "perfbench-stream-background",
      static_cast<std::size_t>(kBackgroundMultiplier * kBrokerSessions), kHorizonS,
      false);
  return s;
}

sim::StreamingConfig engine_config(const Setup& setup) {
  sim::StreamingConfig config;
  config.design = sim::Design::kMarketplace;
  config.epoch_s = kEpochS;
  config.run.menus = setup.menus.get();
  return config;
}

bool same_report(const sim::EpochReport& a, const sim::EpochReport& b) {
  const auto& m = a.metrics;
  const auto& n = b.metrics;
  return a.epoch == b.epoch && a.time_s == b.time_s &&
         a.active_sessions == b.active_sessions &&
         a.assigned_sessions == b.assigned_sessions &&
         a.shed_sessions == b.shed_sessions &&
         a.cdn_switch_fraction == b.cdn_switch_fraction &&
         a.cluster_switch_fraction == b.cluster_switch_fraction &&
         m.median_cost == n.median_cost && m.median_score == n.median_score &&
         m.median_distance_miles == n.median_distance_miles &&
         m.median_load == n.median_load && m.congested_fraction == n.congested_fraction &&
         m.mean_cost == n.mean_cost && m.mean_score == n.mean_score &&
         m.broker_traffic_mbps == n.broker_traffic_mbps;
}

void gate_same(const sim::StreamingResult& a, const sim::StreamingResult& b,
               const char* what) {
  gate(a.timeline.epochs.size() == b.timeline.epochs.size() &&
           a.broker_sessions == b.broker_sessions &&
           a.background_sessions == b.background_sessions &&
           a.peak_active_sessions == b.peak_active_sessions &&
           a.decision_rounds == b.decision_rounds &&
           a.background_recomputes == b.background_recomputes &&
           a.timeline.mean_cdn_switch_fraction == b.timeline.mean_cdn_switch_fraction,
       std::string{what} + ": run totals differ");
  for (std::size_t e = 0; e < a.timeline.epochs.size(); ++e) {
    gate(same_report(a.timeline.epochs[e], b.timeline.epochs[e]),
         std::string{what} + ": epoch " + std::to_string(e) + " report differs");
  }
}

/// Start time of each epoch: its first broker pull. A pull is made during
/// epoch e when the previous pull's last arrival is at or before e's
/// midpoint (the engine only pulls while pending arrivals are due).
std::vector<double> epoch_starts(const std::vector<ReplayStream::Pull>& pulls,
                                 std::size_t epochs) {
  std::vector<double> starts(epochs, -1.0);
  double previous_last = -1.0;
  for (const ReplayStream::Pull& pull : pulls) {
    std::size_t e = 0;
    while (e < epochs && (static_cast<double>(e) + 0.5) * kEpochS < previous_last) ++e;
    if (e < epochs && starts[e] < 0.0) starts[e] = pull.start_s;
    previous_last = pull.last_arrival_s;
  }
  return starts;
}

/// One repetition of the untraced engine.
struct EngineRun {
  sim::StreamingResult result;
  double engine_s = 0.0;
  std::vector<double> epoch_ms;
};

EngineRun run_engine(const Setup& setup, ReplayStream& broker, ReplayStream& background) {
  broker.rewind();
  background.rewind();
  const sim::StreamingTimeline engine{setup.scenario, engine_config(setup)};
  EngineRun run;
  const double start = now_s();
  run.result = engine.run(broker, background);
  const double end = now_s();
  run.engine_s = end - start - broker.replay_s() - background.replay_s();

  // Per-epoch engine time: from one epoch start to the next, minus the
  // replay time of every pull (either stream) made in between.
  const auto epochs = static_cast<std::size_t>(std::ceil(broker.duration_s() / kEpochS));
  const std::vector<double> starts = epoch_starts(broker.pulls(), epochs);
  for (std::size_t e = 0; e < epochs; ++e) {
    gate(starts[e] >= 0.0, "stream: epoch " + std::to_string(e) + " never pulled");
    const double stop = e + 1 < epochs ? starts[e + 1] : end;
    double replay = 0.0;
    for (const ReplayStream* stream : {&broker, &background}) {
      for (const ReplayStream::Pull& pull : stream->pulls()) {
        if (pull.start_s >= starts[e] && pull.start_s < stop) replay += pull.duration_s;
      }
    }
    run.epoch_ms.push_back((stop - starts[e] - replay) * 1000.0);
  }
  return run;
}

// ---------------------------------------------------------------------------
// Traced replica of StreamingTimeline::run for the default config (no
// stress, overload policy or checkpoints).

class ReplicaSet {
 public:
  ReplicaSet(sim::SessionStream& stream, std::size_t batch, SpanRecorder* spans)
      : stream_(&stream), batch_(batch), spans_(spans) {}

  bool advance_to(double t) {
    bool changed = false;
    while (true) {
      {
        const Scoped span{spans_, "sim.store.admit"};
        while (!pending_.empty() && pending_.front().arrival_s <= t) {
          const Session& s = pending_.front();
          changed |= store_.admit(s.id.value(), s.city, s.bitrate_mbps, s.end_s(), t);
          pending_.pop_front();
          ++ops_;
        }
      }
      if (!pending_.empty() || stream_->exhausted()) break;
      auto batch = stream_->next_batch(batch_);
      if (batch.empty()) break;
      pulled_ += batch.size();
      pending_.insert(pending_.end(), std::make_move_iterator(batch.begin()),
                      std::make_move_iterator(batch.end()));
    }
    const Scoped span{spans_, "sim.store.drop"};
    changed |= store_.drop_until(t) > 0;
    ++ops_;
    return changed;
  }

  std::span<const broker::ClientGroup> groups() {
    const Scoped span{spans_, "sim.store.groups"};
    ++ops_;
    return store_.groups();
  }

  [[nodiscard]] std::size_t active_count() const noexcept { return store_.size(); }
  [[nodiscard]] std::size_t pulled() const noexcept { return pulled_; }
  [[nodiscard]] std::uint64_t ops() const noexcept { return ops_; }
  sim::SessionStore& store() noexcept { return store_; }

 private:
  sim::SessionStream* stream_;
  std::size_t batch_;
  SpanRecorder* spans_;
  std::deque<Session> pending_;
  sim::SessionStore store_;
  std::size_t pulled_ = 0;
  std::uint64_t ops_ = 0;
};

struct ReplicaRun {
  sim::StreamingResult result;
  double wall_s = 0.0;  // minus replay time
  std::uint64_t store_ops = 0;
  std::uint64_t groups = 0;
};

ReplicaRun run_replica(const Setup& setup, ReplayStream& broker,
                       ReplayStream& background, SpanRecorder& spans) {
  broker.rewind();
  background.rewind();
  const sim::Scenario& scenario = setup.scenario;
  const sim::StreamingConfig config = engine_config(setup);
  ReplicaRun run;
  const double start = now_s();

  // Menus: the design cache set-up built, rebuilt here to time it, and the
  // background cache the engine builds at the start of every run.
  sim::RunConfig base_run = config.run;
  const std::size_t cities = scenario.world().cities().size();
  std::optional<cdn::CandidateMenuCache> design_cache;
  std::optional<cdn::CandidateMenuCache> background_cache;
  {
    const Scoped span{&spans, "cdn.menu_build"};
    design_cache.emplace(scenario.catalog(), scenario.mapping(), cities,
                         sim::menu_config_for(config.design, base_run));
    base_run.menus = &*design_cache;
  }
  const cdn::CandidateMenuCache* background_menus = base_run.menus;
  if (!(background_menus->config() == cdn::MatchingConfig{})) {
    const Scoped span{&spans, "cdn.menu_build"};
    background_cache.emplace(scenario.catalog(), scenario.mapping(), cities,
                             cdn::MatchingConfig{});
    background_menus = &*background_cache;
  }

  ReplicaSet broker_set{broker, config.batch_sessions, &spans};
  ReplicaSet background_set{background, config.batch_sessions, &spans};
  std::vector<double> background_loads;
  bool background_stale = true;
  sim::detail::ChurnTracker churn;
  double gate_s = 0.0;  // the bench's own checks, kept out of the timings
  const auto epochs = static_cast<std::size_t>(std::ceil(broker.duration_s() / kEpochS));
  for (std::size_t e = 0; e < epochs; ++e) {
    const std::uint32_t epoch_span = spans.open("epoch", static_cast<std::int64_t>(e));
    const double mid = (static_cast<double>(e) + 0.5) * kEpochS;
    broker_set.advance_to(mid);
    background_stale |= background_set.advance_to(mid);
    const std::size_t concurrent =
        broker_set.active_count() + background_set.active_count();
    run.result.peak_active_sessions = std::max(run.result.peak_active_sessions, concurrent);
    const std::size_t active = broker_set.active_count();
    if (active == 0) {
      spans.close(epoch_span);
      continue;
    }

    const auto groups = broker_set.groups();
    run.groups += groups.size();
    if (background_stale) {
      const auto background_groups = background_set.groups();
      const Scoped span{&spans, "sim.background"};
      background_loads =
          sim::place_background_over(scenario, background_groups, background_menus);
      background_stale = false;
      ++run.result.background_recomputes;
    }
    sim::RunConfig round = base_run;
    round.qoe_epoch = e + 1;
    sim::DesignOutcome outcome;
    {
      const Scoped span{&spans, "sim.design_round"};
      outcome = sim::run_design_over(scenario, config.design, round, groups,
                                     background_loads);
    }
    sim::detail::Assignment assignment;
    {
      const Scoped span{&spans, "sim.assign"};
      assignment = sim::detail::assign_sessions(broker_set.store(), outcome);
      broker_set.store().apply_assignment(assignment);
    }
    sim::EpochReport report;
    {
      const Scoped span{&spans, "sim.report"};
      report.epoch = e;
      report.time_s = mid;
      report.active_sessions = active;
      report.assigned_sessions = assignment.size();
      report.metrics = sim::compute_metrics_over(scenario, outcome, groups);
      churn.observe(scenario.catalog(), std::move(assignment), report);
    }
    spans.close(epoch_span);
    const double gate_start = now_s();
    const Settled settled = settle_of(outcome.placements, groups);
    gate(std::abs(settled.placed + settled.unplaced - static_cast<double>(active)) <=
             1e-6 * static_cast<double>(active),
         "stream replica: epoch " + std::to_string(e) + " placed + unplaced != offered");
    gate_s += now_s() - gate_start;
    ++run.result.decision_rounds;
    run.result.timeline.epochs.push_back(report);
  }
  run.result.timeline.mean_cdn_switch_fraction = churn.mean_cdn_switch_fraction();
  run.result.broker_sessions = broker_set.pulled();
  run.result.background_sessions = background_set.pulled();
  run.wall_s = now_s() - start - broker.replay_s() - background.replay_s() - gate_s;
  run.store_ops = broker_set.ops() + background_set.ops();
  return run;
}

}  // namespace

RunResult run_stream(const Options& options) {
  RunResult result;
  const int warm_setups = options.trace ? 0 : kWarmSetups;
  std::vector<double> setup_s;  // warm set-ups
  // The measured repetition runs first, so the process's peak resident set
  // after it covers exactly its set-up and window.
  const double baseline_rss = peak_rss_mb();
  const double start = now_s();
  const Setup setup = build_setup(options.seed);
  const double first_setup_s = now_s() - start;
  const double input_mb =
      static_cast<double>((setup.broker.sessions.capacity() +
                           setup.background.sessions.capacity()) *
                          sizeof(Session)) /
      (1 << 20);

  ReplayStream broker{setup.broker.sessions, kHorizonS};
  ReplayStream background{setup.background.sessions, kHorizonS};
  const double window = options.trace ? options.seconds / 2.0 : options.seconds;
  std::vector<EngineRun> runs;
  const double window_start = now_s();
  do {
    runs.push_back(run_engine(setup, broker, background));
    if (runs.size() > 1) gate_same(runs.front().result, runs.back().result, "rerun");
  } while (now_s() - window_start < window);
  const double peak_mb = peak_rss_mb();
  for (int rep = 0; rep < warm_setups; ++rep) {
    const double rep_start = now_s();
    const Setup again = build_setup(options.seed);
    setup_s.push_back(now_s() - rep_start);
  }

  const sim::StreamingResult& first = runs.front().result;
  std::vector<double> sessions_per_s, rounds_per_s, epoch_ms;
  for (const EngineRun& run : runs) {
    const auto streamed =
        static_cast<double>(run.result.broker_sessions + run.result.background_sessions);
    sessions_per_s.push_back(streamed / run.engine_s);
    rounds_per_s.push_back(static_cast<double>(run.result.decision_rounds) / run.engine_s);
    epoch_ms.insert(epoch_ms.end(), run.epoch_ms.begin(), run.epoch_ms.end());
  }
  double active = 0.0, assigned = 0.0, score = 0.0, cost = 0.0;
  for (const sim::EpochReport& report : first.timeline.epochs) {
    gate(report.assigned_sessions + report.shed_sessions <= report.active_sessions,
         "stream: epoch " + std::to_string(report.epoch) + " assigned more than active");
    const auto placed = static_cast<double>(report.assigned_sessions);
    active += static_cast<double>(report.active_sessions);
    assigned += placed;
    score += report.metrics.mean_score * placed;
    cost += report.metrics.mean_cost * placed;
  }
  result.attempted = first.decision_rounds * runs.size();
  result.failed = 0;
  const double p95 = quantile(epoch_ms, 0.95);
  std::fprintf(stderr,
               "[stream] seed %llu: %zu engine runs, %zu epochs each (%zu epoch samples, "
               "%zu beyond p95), %.0f sessions/s median; set-up %.3f s first, "
               "%.3f s warm median\n",
               static_cast<unsigned long long>(options.seed), runs.size(),
               first.decision_rounds, epoch_ms.size(), count_above(epoch_ms, p95),
               quantile(sessions_per_s, 0.5), first_setup_s,
               setup_s.empty() ? 0.0 : quantile(setup_s, 0.5));

  if (!options.trace) {
    result.set("setup_s", quantile(setup_s, 0.5), "s");
    result.set("rounds_per_s", quantile(rounds_per_s, 0.5), "1/s");
    result.set("sessions_per_s", quantile(sessions_per_s, 0.5), "1/s");
    result.set("round_ms.p50", quantile(epoch_ms, 0.5), "ms");
    result.set("round_ms.p95", p95, "ms");
    result.set("mean_score", score / assigned, "score");
    result.set("mean_cost", cost / assigned, "USD");
    result.set("served_share", assigned / active, "ratio");
    result.set("peak_rss_mb", peak_mb - baseline_rss - input_mb, "MiB");
    return result;
  }

  SpanRecorder spans;
  ReplayStream traced_broker{setup.broker.sessions, kHorizonS, &spans};
  ReplayStream traced_background{setup.background.sessions, kHorizonS, &spans};
  const ReplicaRun replica = run_replica(setup, traced_broker, traced_background, spans);
  gate_same(first, replica.result, "stream replica");
  spans.write(options.trace_file);

  std::vector<double> engine_s;
  for (const EngineRun& run : runs) engine_s.push_back(run.engine_s);
  result.set("trace.rounds", static_cast<double>(replica.result.decision_rounds), "count");
  result.set("trace.generate_s", setup.broker.generate_s + setup.background.generate_s,
             "s");
  result.set("trace.sessions_per_s",
             static_cast<double>(setup.broker.sessions.size() +
                                 setup.background.sessions.size()) /
                 (setup.broker.generate_s + setup.background.generate_s),
             "1/s");
  result.set("sim.store_ops", static_cast<double>(replica.store_ops), "count");
  result.set("sim.groups",
             static_cast<double>(replica.groups) /
                 static_cast<double>(replica.result.decision_rounds),
             "count");
  result.set("obs.trace_overhead", replica.wall_s / quantile(engine_s, 0.5), "ratio");
  return result;
}

}  // namespace perfbench
