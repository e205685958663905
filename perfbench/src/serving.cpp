// `serve` and `settle`: the serving daemon under a replayed arrival feed.
//
// Untraced pass: serve::ServeDaemon exactly as vdxd runs it by default
// (monolith, no breakers, brownout or budget), its round clock the only
// caller (closed loop). The feed timestamps every next_until call and the
// round hook timestamps every round start, so a round's latency is the
// daemon's own time between handing it its arrivals and starting the next
// round — admission, store, exchange round, decision line, checkpoint and
// resilience bookkeeping, with the load generator's time left out.
//
// Traced pass: a replica of the daemon loop built only from public calls —
// sim::SessionStore, the market agents behind proto::run_decision_round
// (timing decorators on the BrokerParticipant / CdnParticipant interfaces),
// state::CheckpointStore over a timing state::FileSystem decorator — run
// over the same rounds and gated byte-for-byte against the daemon.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <queue>
#include <sstream>
#include <string>
#include <unistd.h>

#include "cdn/menu_cache.hpp"
#include "cdn/strategy.hpp"
#include "inputs.hpp"
#include "market/agents.hpp"
#include "market/exchange.hpp"
#include "serve/codec.hpp"
#include "serve/daemon.hpp"
#include "serve/latency.hpp"
#include "sim/session_store.hpp"
#include "state/checkpoint.hpp"
#include "state/fs.hpp"
#include "state/store.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace vdx;
using trace::Session;

constexpr double kRoundS = 10.0;
// Set-ups repeated after the window; setup_s is their median. The measured
// run's own set-up is left out of it: it is the first to fault in fresh pages.
constexpr int kWarmSetups = 5;
// serve: ~1x the serving-load bench's offered load (10K sessions/hour).
constexpr std::size_t kServeSessionsPerHour = 10'000;
constexpr double kServePoolHours = 6.0;
// settle: 1M live sessions, 1% churn per round, a checkpoint every 10 rounds.
constexpr std::uint64_t kLive = 1'000'000;
constexpr std::uint64_t kChurn = 10'000;
constexpr std::uint64_t kExtraDrawn = 3 * kChurn;
constexpr std::size_t kCheckpointEvery = 10;
constexpr std::size_t kCheckpointKeep = 2;
constexpr double kHorizonS = 1e9;  // the stop flag ends every pass
// Rounds (from round 1) the quality metrics average over.
constexpr std::uint64_t kServeQualityRounds = 300;
constexpr std::uint64_t kSettleQualityRounds = 10;

/// The sessions a serving workload draws: serve, a 6-hour generator trace;
/// settle, the city/bitrate attributes of 1M + 30K sessions.
Drawn draw_inputs(const sim::Scenario& scenario, std::uint64_t seed, bool settle) {
  if (settle) {
    return draw_sessions(scenario, seed, "perfbench-settle", kLive + kExtraDrawn,
                         3600.0, true);
  }
  return draw_sessions(scenario, seed, "perfbench-serve",
                       static_cast<std::size_t>(kServePoolHours * kServeSessionsPerHour),
                       kServePoolHours * 3600.0, true);
}

/// The replay rule over `drawn`, which must outlive the feed. serve: the
/// trace in a loop (pass k shifted by k * 6 h). settle: 1M prefill sessions
/// at t=0 with staggered departures (10K leave each round), then 10K
/// arrivals per round that each live 100 rounds — a constant 1M population
/// with generator-drawn city/bitrate. Arrivals reuse the drawn attributes at
/// an offset that never lines up with the 100-round lifetime, so every
/// round's adds differ from its drops.
ReplayFeed::Source source_for(const Drawn& drawn, bool settle) {
  const std::vector<Session>* pool = &drawn.sessions;
  if (!settle) {
    const double period = kServePoolHours * 3600.0;
    return [pool, period](std::uint64_t n) {
      Session s = (*pool)[n % pool->size()];
      s.arrival_s += static_cast<double>(n / pool->size()) * period;
      return s;
    };
  }
  return [pool](std::uint64_t n) {
    Session s;
    double end = 0.0;
    if (n < kLive) {
      s = (*pool)[n];
      s.arrival_s = 0.0;
      end = static_cast<double>(1 + n / kChurn) * kRoundS;
    } else {
      const std::uint64_t k = n - kLive;
      s = (*pool)[(kLive / 2 + k) % pool->size()];
      const auto round = static_cast<double>(1 + k / kChurn);
      s.arrival_s = round * kRoundS;
      end = (round + static_cast<double>(kLive / kChurn)) * kRoundS;
    }
    s.duration_s = end - s.arrival_s;
    return s;
  };
}

/// Span-timing + counting decorator over a FileSystem (ServeConfig::checkpoint_fs
/// and the replica's CheckpointStore).
class TimedFs final : public state::FileSystem {
 public:
  struct Totals {
    std::uint64_t bytes = 0;
    std::uint64_t failures = 0;
  };

  explicit TimedFs(state::FileSystem& inner, SpanRecorder* spans = nullptr)
      : inner_(inner), spans_(spans) {}

  core::Result<Handle> open_write(const std::filesystem::path& path) override {
    const Scoped span{spans_, "state.fs"};
    return count(inner_.open_write(path));
  }
  core::Status write(Handle handle, std::span<const std::uint8_t> bytes) override {
    const Scoped span{spans_, "state.write"};
    totals_.bytes += bytes.size();
    return count(inner_.write(handle, bytes));
  }
  core::Status fsync(Handle handle) override {
    const Scoped span{spans_, "state.fsync"};
    return count(inner_.fsync(handle));
  }
  core::Status close(Handle handle) override {
    const Scoped span{spans_, "state.fs"};
    return count(inner_.close(handle));
  }
  core::Status rename(const std::filesystem::path& from,
                      const std::filesystem::path& to) override {
    const Scoped span{spans_, "state.rename"};
    return count(inner_.rename(from, to));
  }
  core::Status remove(const std::filesystem::path& path) override {
    const Scoped span{spans_, "state.fs"};
    return count(inner_.remove(path));
  }
  core::Status create_directories(const std::filesystem::path& dir) override {
    const Scoped span{spans_, "state.fs"};
    return count(inner_.create_directories(dir));
  }
  core::Result<std::vector<std::filesystem::path>> list_dir(
      const std::filesystem::path& dir) override {
    const Scoped span{spans_, "state.fs"};
    return count(inner_.list_dir(dir));
  }
  core::Result<std::vector<std::uint8_t>> read_file(
      const std::filesystem::path& path) override {
    const Scoped span{spans_, "state.fs"};
    return count(inner_.read_file(path));
  }

  void set_spans(SpanRecorder* spans) noexcept { spans_ = spans; }
  [[nodiscard]] const Totals& totals() const noexcept { return totals_; }

 private:
  template <typename R>
  R count(R result) {
    if (!result.ok()) ++totals_.failures;
    return result;
  }

  state::FileSystem& inner_;
  SpanRecorder* spans_;
  Totals totals_;
};

std::vector<serve::DecisionLine> parse_lines(const std::string& text) {
  std::vector<serve::DecisionLine> lines;
  std::istringstream in{text};
  std::string line;
  while (std::getline(in, line)) {
    auto parsed = serve::parse_decision(line);
    gate(parsed.ok(), "unparseable decision line: " + line);
    lines.push_back(parsed.value());
  }
  return lines;
}

/// Sessions active at each round midpoint, recounted from the feed alone
/// (admitted when still running at the midpoint it arrived by, dropped at
/// the first midpoint at or past its end) — independent of the daemon.
std::vector<std::uint64_t> offered_per_round(const ReplayFeed& feed) {
  const auto& calls = feed.calls();
  std::vector<std::uint64_t> offered(calls.size(), 0);
  std::priority_queue<double, std::vector<double>, std::greater<>> ends;
  for (std::size_t r = 0; r < calls.size(); ++r) {
    const double t = (static_cast<double>(r) + 0.5) * kRoundS;
    const std::uint64_t stop =
        r + 1 < calls.size() ? calls[r + 1].consumed : feed.consumed();
    for (std::uint64_t n = calls[r].consumed; n < stop; ++n) {
      const double end = feed.at(n).end_s();
      if (end > t) ends.push(end);
    }
    while (!ends.empty() && ends.top() <= t) ends.pop();
    offered[r] = ends.size();
  }
  return offered;
}

/// One answered round as both passes see it.
struct Round {
  serve::DecisionLine line;
  Settled settled;
};

/// Checks the per-round gate and pairs each decision line with its
/// settlement: every round with offered clients was answered with the
/// recounted population, and placed + unplaced == offered.
std::vector<Round> check_rounds(const std::vector<serve::DecisionLine>& lines,
                                const std::vector<Settled>& settled,
                                const std::vector<std::uint64_t>& offered,
                                std::uint64_t rounds_run, const char* pass) {
  gate(lines.size() == settled.size(),
       std::string{pass} + ": decision lines and settlements disagree in count");
  std::vector<Round> rounds;
  std::size_t i = 0;
  for (std::uint64_t r = 0; r < rounds_run; ++r) {
    if (offered[r] == 0) continue;
    gate(i < lines.size() && lines[i].round == r,
         std::string{pass} + ": round " + std::to_string(r) + " was due but not answered");
    const serve::DecisionLine& line = lines[i];
    gate(line.active_sessions == offered[r],
         std::string{pass} + ": round " + std::to_string(r) + " priced " +
             std::to_string(line.active_sessions) + " sessions, " +
             std::to_string(offered[r]) + " were offered");
    const double accounted = settled[i].placed + settled[i].unplaced + line.shed_clients;
    const double want = static_cast<double>(offered[r]);
    gate(std::abs(accounted - want) <= 1e-6 * want + 1e-6,
         std::string{pass} + ": round " + std::to_string(r) +
             " placed + unplaced != offered");
    rounds.push_back(Round{line, settled[i]});
    ++i;
  }
  gate(i == lines.size(), std::string{pass} + ": decision line for an undue round");
  return rounds;
}

/// Result of the untraced daemon pass.
struct DaemonPass {
  double setup_end_s = 0.0;           // start of round 1
  std::vector<double> latency_s;      // rounds 1..R, the daemon's own time
  std::vector<Round> rounds;          // every answered round, from 0
  std::uint64_t rounds_run = 0;       // rounds 0..rounds_run-1 completed
  double exchange_round_ms = 0.0;     // mean of the daemon's serve.round_ms
};

/// Runs the daemon until `window_s` of measured rounds have passed and
/// rounds 1..`min_rounds` have completed (window 0: stop before round 1, a
/// set-up-only pass).
DaemonPass run_daemon(const sim::Scenario& scenario, ReplayFeed& feed, double window_s,
                      std::uint64_t min_rounds,
                      const std::filesystem::path& checkpoint_dir) {
  DaemonPass pass;
  obs::MetricsRegistry metrics;
  std::ostringstream decisions;
  std::atomic<bool> stop{false};
  TimedFs fs{state::real_fs()};
  std::vector<double> round_start;
  std::vector<Settled> settled;

  serve::ServeConfig config;
  config.round_s = kRoundS;
  config.decisions = &decisions;
  config.stop = &stop;
  config.obs.metrics = &metrics;
  if (!checkpoint_dir.empty()) {
    config.checkpoint_every_rounds = kCheckpointEvery;
    config.checkpoint_dir = checkpoint_dir;
    config.checkpoint_keep = kCheckpointKeep;
    config.checkpoint_fs = &fs;
  }
  const serve::ServeDaemon* daemon = nullptr;
  std::size_t completed = 0;
  config.round_hook = [&](std::uint64_t r) {
    const double now = now_s();
    round_start.push_back(now);
    const auto& exchange =
        dynamic_cast<const market::VdxExchange&>(daemon->exchange());
    if (exchange.rounds_completed() > completed) {
      completed = exchange.rounds_completed();
      settled.push_back(settle_of(exchange.placements(), exchange.active_demand()));
    }
    if (window_s <= 0.0) {
      if (r >= 1) stop.store(true);
    } else if (r >= 2 && r > min_rounds && now - feed.calls()[1].end_s >= window_s) {
      stop.store(true);
    }
  };

  feed.rewind();
  serve::ServeDaemon instance{scenario, feed, std::move(config)};
  daemon = &instance;
  const serve::ServeReport report = instance.run();
  gate(round_start.size() >= 2, "daemon stopped before round 1");
  pass.setup_end_s = round_start[1];
  // The hook of round S set the stop flag: rounds 0..S-1 completed.
  pass.rounds_run = round_start.size() - 1;
  const auto& calls = feed.calls();
  for (std::uint64_t r = 1; r < pass.rounds_run; ++r) {
    pass.latency_s.push_back(round_start[r + 1] - calls[r].end_s);
  }
  pass.rounds = check_rounds(parse_lines(decisions.str()), settled,
                             offered_per_round(feed), pass.rounds_run, "daemon");
  const auto summary = metrics.histogram_summary("serve.round_ms");
  if (summary && summary->count > 0) {
    pass.exchange_round_ms = summary->sum / static_cast<double>(summary->count);
  }
  if (!checkpoint_dir.empty()) {
    gate(report.checkpoint_skips == 0 && fs.totals().failures == 0,
         "daemon: a checkpoint write failed");
    // One per kCheckpointEvery completed rounds, plus the drain snapshot.
    gate(report.checkpoints_written == pass.rounds_run / kCheckpointEvery + 1,
         "daemon: checkpoint count " + std::to_string(report.checkpoints_written) +
             " does not match the cadence");
  }
  return pass;
}

// ---------------------------------------------------------------------------
// Traced replica.

struct WireCounts {
  std::uint64_t bids = 0;
  std::uint64_t accepts_delivered = 0;
  std::uint64_t accepts_useful = 0;
};

/// Timing decorator over one CDN agent's Decision-Protocol interface.
class TimedCdn final : public proto::CdnParticipant {
 public:
  TimedCdn(market::VdxCdnAgent& agent, SpanRecorder*& spans, WireCounts& counts)
      : agent_(agent), spans_(spans), counts_(counts) {}

  void handle_share(std::span<const proto::ShareMessage> shares) override {
    const Scoped span{spans_, "cdn.share"};
    agent_.handle_share(shares);
  }
  std::vector<proto::BidMessage> announce() override {
    std::vector<proto::BidMessage> bids;
    {
      const Scoped span{spans_, "cdn.announce"};
      bids = agent_.announce();
    }
    counts_.bids += bids.size();
    return bids;
  }
  void handle_accept(std::span<const proto::AcceptMessage> accepts) override {
    counts_.accepts_delivered += accepts.size();
    const std::uint32_t self = agent_.id().value();
    counts_.accepts_useful += static_cast<std::uint64_t>(std::count_if(
        accepts.begin(), accepts.end(),
        [self](const proto::AcceptMessage& a) { return a.cdn_id == self; }));
    const Scoped span{spans_, "cdn.accept"};
    agent_.handle_accept(accepts);
  }

 private:
  market::VdxCdnAgent& agent_;
  SpanRecorder*& spans_;
  WireCounts& counts_;
};

/// Timing decorator over the broker agent's Decision-Protocol interface.
class TimedBroker final : public proto::BrokerParticipant {
 public:
  TimedBroker(market::VdxBrokerAgent& agent, SpanRecorder*& spans)
      : agent_(agent), spans_(spans) {}

  std::vector<proto::ShareMessage> gather() override {
    const Scoped span{spans_, "broker.gather"};
    return agent_.gather();
  }
  std::vector<proto::AcceptMessage> optimize(
      std::span<const proto::BidMessage> bids) override {
    const Scoped span{spans_, "broker.optimize"};
    return agent_.optimize(bids);
  }

 private:
  market::VdxBrokerAgent& agent_;
  SpanRecorder*& spans_;
};

/// The daemon's default exchange (market::VdxExchange with the daemon's
/// config) composed from the public agents.
class ReplicaExchange {
 public:
  ReplicaExchange(const sim::Scenario& scenario, obs::MetricsRegistry& metrics,
                  SpanRecorder*& spans)
      : scenario_(scenario), spans_(spans) {
    market::ExchangeConfig config;
    config.broker.allow_unbid_groups = true;  // forced by the daemon
    obs_.metrics = &metrics;
    background_ = sim::place_background(scenario);
    {
      const Scoped span{spans_, "cdn.menu_build"};
      cdn::MatchingConfig matching;
      matching.max_candidates = config.agent.bid_count;
      matching.score_tolerance = config.agent.menu_tolerance;
      menus_ = std::make_unique<cdn::CandidateMenuCache>(
          scenario.catalog(), scenario.mapping(), scenario.world().cities().size(),
          matching);
    }
    config.agent.menus = menus_.get();
    config.broker.obs = obs_;
    broker_ = std::make_unique<market::VdxBrokerAgent>(scenario, config.broker);
    timed_broker_ = std::make_unique<TimedBroker>(*broker_, spans_);
    for (const cdn::Cdn& cdn : scenario.catalog().cdns()) {
      strategies_.push_back(cdn::make_risk_averse_strategy());
      agents_.push_back(std::make_unique<market::VdxCdnAgent>(
          scenario, cdn.id, *strategies_.back(), background_, config.agent));
      timed_.push_back(std::make_unique<TimedCdn>(*agents_.back(), spans_, counts_));
      participants_.push_back(timed_.back().get());
    }
    zero_loads_.assign(scenario.catalog().clusters().size(), 0.0);
  }

  /// set_active_load(groups, zero background) + run_round(), as the daemon
  /// calls them. Returns (mean_score, mean_cost) computed exactly as
  /// VdxExchange::run_round does.
  std::pair<double, double> round(std::span<const broker::ClientGroup> groups) {
    const Scoped span{spans_, "market.round"};
    broker_->set_demand({groups.begin(), groups.end()});
    background_.assign(zero_loads_.begin(), zero_loads_.end());
    for (const auto& agent : agents_) agent->set_background_loads(background_);

    proto::DecisionEngineConfig engine;
    engine.obs = obs_;
    {
      const Scoped protocol{spans_, "proto.round"};
      const proto::RoundStats stats =
          proto::run_decision_round(*timed_broker_, participants_, engine);
      bytes_on_wire_ += stats.bytes_on_wire;
    }
    const auto placements = broker_->placements();
    const auto demand = broker_->demand();
    double clients = 0.0, score_sum = 0.0, cost_sum = 0.0;
    for (const sim::Placement& p : placements) {
      const broker::ClientGroup& group = demand[p.group];
      clients += p.clients;
      score_sum += p.clients * p.score;
      cost_sum += p.clients * scenario_.catalog().cluster(p.cluster).unit_cost() *
                  group.bitrate_mbps;
    }
    return clients > 0.0 ? std::pair{score_sum / clients, cost_sum / clients}
                         : std::pair{0.0, 0.0};
  }

  [[nodiscard]] Settled settled() const {
    return settle_of(broker_->placements(), broker_->demand());
  }
  [[nodiscard]] const WireCounts& counts() const noexcept { return counts_; }
  [[nodiscard]] std::uint64_t bytes_on_wire() const noexcept { return bytes_on_wire_; }

 private:
  const sim::Scenario& scenario_;
  SpanRecorder*& spans_;
  obs::Observer obs_;
  std::vector<double> background_;
  std::vector<double> zero_loads_;
  std::unique_ptr<cdn::CandidateMenuCache> menus_;
  std::unique_ptr<market::VdxBrokerAgent> broker_;
  std::unique_ptr<TimedBroker> timed_broker_;
  std::vector<std::unique_ptr<cdn::BiddingStrategy>> strategies_;
  std::vector<std::unique_ptr<market::VdxCdnAgent>> agents_;
  std::vector<std::unique_ptr<TimedCdn>> timed_;
  std::vector<proto::CdnParticipant*> participants_;
  WireCounts counts_;
  std::uint64_t bytes_on_wire_ = 0;
};

/// The broker/solver counters the registry keeps, over the traced rounds.
struct OptimizeCounters {
  double solver_invocations = 0.0;
  double overflow_mbps = 0.0;
  double unbid_groups = 0.0;
};

double counter_sum(const obs::MetricsRegistry& metrics, std::string_view name) {
  double total = 0.0;
  for (const auto& row : metrics.rows()) {
    if (row.name == name) total += row.value;
  }
  return total;
}

OptimizeCounters optimize_counters(const obs::MetricsRegistry& metrics) {
  return OptimizeCounters{counter_sum(metrics, "solver.invocations"),
                          counter_sum(metrics, "broker.optimize.overflow_mbps"),
                          counter_sum(metrics, "broker.optimize.unbid_groups")};
}

struct ReplicaPass {
  std::vector<Round> rounds;
  OptimizeCounters optimize;
  std::vector<double> wall_s;  // rounds 1.., round span minus feed time
  std::uint64_t store_ops = 0;
  std::uint64_t groups = 0;
  WireCounts wire;
  std::uint64_t bytes_on_wire = 0;
  TimedFs::Totals fs;
  std::uint64_t checkpoints = 0;
};

/// Replays the daemon loop for rounds 0..rounds_run-1 from public calls.
/// Spans cover rounds >= 1 (round 0 is set-up) plus the menu build.
ReplicaPass run_replica(const sim::Scenario& scenario, ReplayFeed& feed,
                        std::uint64_t rounds_run, SpanRecorder& recorder,
                        const std::filesystem::path& checkpoint_dir) {
  ReplicaPass pass;
  obs::MetricsRegistry metrics;
  SpanRecorder* spans = &recorder;
  ReplicaExchange exchange{scenario, metrics, spans};
  spans = nullptr;
  serve::LatencyRecorder latency{metrics};
  TimedFs fs{state::real_fs(), nullptr};
  std::unique_ptr<state::CheckpointStore> store;
  if (!checkpoint_dir.empty()) {
    store = std::make_unique<state::CheckpointStore>(
        checkpoint_dir, kCheckpointKeep, obs::Observer{&metrics, nullptr, nullptr}, &fs);
  }
  sim::SessionStore sessions;
  std::ostringstream decisions;
  std::vector<Settled> settled;
  std::uint64_t decision_rounds = 0;
  OptimizeCounters optimize_before;

  feed.rewind();
  for (std::uint64_t r = 0; r < rounds_run; ++r) {
    if (r == 1) {
      spans = &recorder;
      feed.set_spans(spans);
      fs.set_spans(spans);
      optimize_before = optimize_counters(metrics);
    }
    const double round_begin = now_s();
    const Scoped round_span{spans, "round", static_cast<std::int64_t>(r)};
    const double t = (static_cast<double>(r) + 0.5) * kRoundS;
    const double feed_begin = now_s();
    const std::vector<Session> arrivals = feed.next_until(t);
    const double feed_s = now_s() - feed_begin;
    {
      const Scoped span{spans, "sim.store.admit"};
      for (const Session& s : arrivals) {
        sessions.admit(s.id.value(), s.city, s.bitrate_mbps, s.end_s(), t);
      }
    }
    {
      const Scoped span{spans, "sim.store.drop"};
      sessions.drop_until(t);
    }
    pass.store_ops += arrivals.size() + 1;
    if (sessions.size() > 0) {
      std::span<const broker::ClientGroup> groups;
      {
        const Scoped span{spans, "sim.store.groups"};
        groups = sessions.groups();
      }
      ++pass.store_ops;
      pass.groups += groups.size();
      double demand_mbps = 0.0;
      for (const broker::ClientGroup& g : groups) demand_mbps += g.demand_mbps();
      const double exchange_begin = now_s();
      const auto [mean_score, mean_cost] = exchange.round(groups);
      latency.record_round((now_s() - exchange_begin) * 1000.0, 0, demand_mbps,
                           demand_mbps);
      serve::DecisionLine line;
      line.round = r;
      line.active_sessions = sessions.size();
      line.demand_mbps = demand_mbps;
      line.admitted_mbps = demand_mbps;  // no admission budget: nothing shed
      line.mean_score = mean_score;
      line.mean_cost = mean_cost;
      serve::write_decision(decisions, line);
      settled.push_back(exchange.settled());
      ++decision_rounds;
    }
    if (store != nullptr && (r + 1) % kCheckpointEvery == 0) {
      const Scoped span{spans, "state.checkpoint"};
      state::DaemonCheckpoint cp;
      cp.fingerprint.design = serve::kDaemonDesign;
      cp.fingerprint.epoch_s = kRoundS;
      cp.next_round = r + 1;
      cp.feed = sessions.cursor();
      cp.feed.consumed = feed.consumed();
      cp.decision_rounds = decision_rounds;
      cp.peak_active_sessions = sessions.size();
      gate(store->write(r + 1, state::encode(cp)).ok(),
           "replica: a checkpoint write failed");
      ++pass.checkpoints;
    }
    if (r >= 1) pass.wall_s.push_back(now_s() - round_begin - feed_s);
  }
  feed.set_spans(nullptr);
  const std::vector<std::uint64_t> offered = offered_per_round(feed);
  pass.rounds =
      check_rounds(parse_lines(decisions.str()), settled, offered, rounds_run, "replica");
  pass.wire = exchange.counts();
  pass.bytes_on_wire = exchange.bytes_on_wire();
  pass.fs = fs.totals();
  gate(pass.fs.failures == 0, "replica: a checkpoint write failed");
  const OptimizeCounters after = optimize_counters(metrics);
  pass.optimize = OptimizeCounters{
      after.solver_invocations - optimize_before.solver_invocations,
      after.overflow_mbps - optimize_before.overflow_mbps,
      after.unbid_groups - optimize_before.unbid_groups};
  return pass;
}

std::filesystem::path checkpoint_dir_for(const Options& options, const char* pass) {
  return std::filesystem::path{options.work_dir} /
         ("checkpoints-" + options.workload + "-" + std::to_string(::getpid()) + "-" +
          pass);
}

}  // namespace

Settled settle_of(std::span<const sim::Placement> placements,
                  std::span<const broker::ClientGroup> demand) {
  Settled out;
  std::vector<bool> covered(demand.size(), false);
  std::uint64_t hash = fnv1a(nullptr, 0);
  for (const sim::Placement& p : placements) {
    out.placed += p.clients;
    if (p.group < covered.size()) covered[p.group] = true;
    const std::uint64_t group = p.group;
    const std::uint32_t cluster = p.cluster.value();
    hash = fnv1a(&group, sizeof group, hash);
    hash = fnv1a(&cluster, sizeof cluster, hash);
    hash = fnv1a(&p.clients, sizeof p.clients, hash);
    hash = fnv1a(&p.price, sizeof p.price, hash);
    hash = fnv1a(&p.score, sizeof p.score, hash);
  }
  for (std::size_t g = 0; g < demand.size(); ++g) {
    if (!covered[g]) out.unplaced += demand[g].client_count;
  }
  out.hash = hash;
  return out;
}

RunResult run_serving(const Options& options, bool settle) {
  RunResult result;
  const int warm_setups = options.trace ? 0 : kWarmSetups;
  const double window = options.trace ? options.seconds / 2.0 : options.seconds;
  std::vector<double> setup_s;  // warm set-ups
  // Quality is taken over a fixed prefix of rounds, so it is a function of
  // the seed alone, not of how many rounds the window happened to fit; an
  // untraced run goes on past the window until the prefix is complete.
  const std::uint64_t quality_rounds =
      settle ? kSettleQualityRounds : kServeQualityRounds;

  // The measured repetition runs first, so the process's peak resident set
  // after it covers exactly its set-up and window.
  const double baseline_rss = peak_rss_mb();
  const double start = now_s();
  const sim::Scenario scenario = build_scenario(3600.0);
  const Drawn drawn = draw_inputs(scenario, options.seed, settle);
  ReplayFeed feed{source_for(drawn, settle), kHorizonS};
  const std::filesystem::path daemon_dir =
      settle ? checkpoint_dir_for(options, "daemon") : std::filesystem::path{};
  DaemonPass pass =
      run_daemon(scenario, feed, window, options.trace ? 0 : quality_rounds, daemon_dir);
  const double first_setup_s = pass.setup_end_s - start;
  const double peak_mb = peak_rss_mb();
  if (!daemon_dir.empty()) std::filesystem::remove_all(daemon_dir);
  for (int rep = 0; rep < warm_setups; ++rep) {
    const double rep_start = now_s();
    const sim::Scenario rep_scenario = build_scenario(3600.0);
    const Drawn rep_drawn = draw_inputs(rep_scenario, options.seed, settle);
    ReplayFeed rep_feed{source_for(rep_drawn, settle), kHorizonS};
    const DaemonPass rep_pass = run_daemon(rep_scenario, rep_feed, 0.0, 0, {});
    setup_s.push_back(rep_pass.setup_end_s - rep_start);
  }

  // Measured rounds: 1..rounds_run-1 (round 0 admits the prefill: set-up).
  const std::size_t measured = pass.latency_s.size();
  gate(measured >= 1, "no round completed inside the window");
  double offered = 0.0, quality_offered = 0.0, placed = 0.0, score = 0.0, cost = 0.0;
  for (const Round& round : pass.rounds) {
    if (round.line.round == 0) continue;
    offered += static_cast<double>(round.line.active_sessions);
    if (round.line.round > quality_rounds) continue;
    quality_offered += static_cast<double>(round.line.active_sessions);
    placed += round.settled.placed;
    score += round.line.mean_score * round.settled.placed;
    cost += round.line.mean_cost * round.settled.placed;
  }
  double system_s = 0.0;
  for (const double s : pass.latency_s) system_s += s;
  std::vector<double> latency_ms;
  for (const double s : pass.latency_s) latency_ms.push_back(s * 1000.0);
  const double p50 = quantile(latency_ms, 0.5);
  const double p95 = quantile(latency_ms, 0.95);
  // Every due round in the window (the gate has already failed the run if
  // one went unanswered).
  result.attempted = static_cast<std::uint64_t>(std::count_if(
      pass.rounds.begin(), pass.rounds.end(),
      [](const Round& round) { return round.line.round >= 1; }));
  result.failed = 0;
  std::fprintf(stderr,
               "[%s] seed %llu: %zu rounds in %.2f s of daemon time (%zu beyond p95), "
               "%.0f client-rounds offered; set-up %.3f s first, %.3f s warm median\n",
               options.workload.c_str(), static_cast<unsigned long long>(options.seed),
               measured, system_s, count_above(latency_ms, p95), offered, first_setup_s,
               setup_s.empty() ? 0.0 : quantile(setup_s, 0.5));

  if (!options.trace) {
    result.set("setup_s", quantile(setup_s, 0.5), "s");
    result.set("rounds_per_s", static_cast<double>(measured) / system_s, "1/s");
    result.set("sessions_per_s", offered / system_s, "1/s");
    result.set("round_ms.p50", p50, "ms");
    result.set("round_ms.p95", p95, "ms");
    result.set("mean_score", score / placed, "score");
    result.set("mean_cost", cost / placed, "USD");
    result.set("served_share", placed / quality_offered, "ratio");
    result.set("peak_rss_mb",
               peak_mb - baseline_rss -
                   static_cast<double>(drawn.sessions.capacity() * sizeof(Session)) /
                       (1 << 20),
               "MiB");
    return result;
  }

  // Traced replica over the same rounds, gated against the daemon.
  SpanRecorder recorder;
  const std::filesystem::path replica_dir =
      settle ? checkpoint_dir_for(options, "replica") : std::filesystem::path{};
  const ReplicaPass replica =
      run_replica(scenario, feed, pass.rounds_run, recorder, replica_dir);
  if (!replica_dir.empty()) std::filesystem::remove_all(replica_dir);
  gate(replica.rounds.size() == pass.rounds.size(),
       "replica answered a different number of rounds");
  for (std::size_t i = 0; i < pass.rounds.size(); ++i) {
    serve::DecisionLine a = pass.rounds[i].line;
    serve::DecisionLine b = replica.rounds[i].line;
    a.logical_ticks = b.logical_ticks = 0;
    gate(a == b, "replica decision line differs from the daemon's at round " +
                     std::to_string(a.round));
    gate(pass.rounds[i].settled.hash == replica.rounds[i].settled.hash,
         "replica placements differ from the daemon's at round " +
             std::to_string(a.round));
  }
  double replica_s = 0.0;
  for (const double s : replica.wall_s) replica_s += s;
  recorder.write(options.trace_file);

  const double traced_rounds = static_cast<double>(replica.wall_s.size());
  const double rounds_answered = static_cast<double>(replica.rounds.size());
  result.set("trace.rounds", traced_rounds, "count");
  result.set("trace.generate_s", drawn.generate_s, "s");
  result.set("trace.sessions_per_s",
             static_cast<double>(drawn.sessions.size()) / drawn.generate_s, "1/s");
  result.set("sim.store_ops", static_cast<double>(replica.store_ops), "count");
  result.set("sim.groups", static_cast<double>(replica.groups) / rounds_answered,
             "count");
  result.set("cdn.bids", static_cast<double>(replica.wire.bids), "count");
  result.set("proto.bytes_on_wire", static_cast<double>(replica.bytes_on_wire), "B");
  result.set("proto.accepts_delivered",
             static_cast<double>(replica.wire.accepts_delivered), "count");
  result.set("proto.accept_useful_ratio",
             replica.wire.accepts_delivered > 0
                 ? static_cast<double>(replica.wire.accepts_useful) /
                       static_cast<double>(replica.wire.accepts_delivered)
                 : 0.0,
             "ratio");
  result.set("state.bytes_written", static_cast<double>(replica.fs.bytes), "B");
  result.set("state.checkpoints", static_cast<double>(replica.checkpoints), "count");
  result.set("serve.exchange_round_ms", pass.exchange_round_ms, "ms");
  result.set("serve.loop_other_ms",
             system_s / static_cast<double>(measured) * 1000.0 - pass.exchange_round_ms,
             "ms");
  result.set("solver.invocations", replica.optimize.solver_invocations, "count");
  result.set("broker.optimize.overflow_mbps", replica.optimize.overflow_mbps, "Mbps");
  result.set("broker.optimize.unbid_groups", replica.optimize.unbid_groups, "count");
  result.set("obs.trace_overhead", replica_s / system_s, "ratio");
  return result;
}

}  // namespace perfbench
