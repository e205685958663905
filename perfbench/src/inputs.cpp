#include "inputs.hpp"

#include <algorithm>
#include <stdexcept>

namespace perfbench {

using vdx::trace::Session;

Drawn draw_sessions(const vdx::sim::Scenario& scenario, std::uint64_t seed,
                    const char* stream, std::size_t count, double duration_s,
                    bool broker_controlled) {
  vdx::trace::TraceConfig config = scenario.config().trace;
  config.session_count = count;
  config.duration_s = duration_s;
  vdx::trace::BrokerTraceGenerator::Options options;
  options.broker_controlled = broker_controlled;
  vdx::core::Rng root{seed};
  vdx::trace::BrokerTraceGenerator generator{scenario.world(), config,
                                             root.fork(stream), options};
  Drawn drawn;
  drawn.sessions.reserve(generator.total_sessions());
  while (true) {
    const double start = now_s();
    std::vector<Session> batch = generator.next_batch(65'536);
    drawn.generate_s += now_s() - start;
    if (batch.empty()) break;
    for (Session& s : batch) {
      s.switches = {};
      drawn.sessions.push_back(std::move(s));
    }
  }
  return drawn;
}

vdx::sim::Scenario build_scenario(double duration_s) {
  vdx::sim::ScenarioConfig config;
  config.trace.session_count = 10'000;  // pilot trace only
  config.trace.duration_s = duration_s;
  return vdx::sim::Scenario::build(config);
}

std::vector<Session> ReplayStream::next_batch(std::size_t max_sessions) {
  const Scoped span{spans_, "serve.feed"};
  Pull pull;
  pull.start_s = now_s();
  const std::size_t take = std::min(max_sessions, sessions_.size() - pos_);
  std::vector<Session> out(sessions_.begin() + static_cast<std::ptrdiff_t>(pos_),
                           sessions_.begin() + static_cast<std::ptrdiff_t>(pos_ + take));
  pos_ += take;
  pull.last_arrival_s = out.empty() ? duration_s_ : out.back().arrival_s;
  pull.duration_s = now_s() - pull.start_s;
  pulls_.push_back(pull);
  return out;
}

double ReplayStream::replay_s() const noexcept {
  double total = 0.0;
  for (const Pull& pull : pulls_) total += pull.duration_s;
  return total;
}

void ReplayStream::seek(std::uint64_t consumed) {
  if (consumed > sessions_.size()) {
    throw std::invalid_argument{"ReplayStream::seek past the end"};
  }
  pos_ = static_cast<std::size_t>(consumed);
}

Session ReplayFeed::at(std::uint64_t n) const {
  Session s = source_(n);
  s.id = vdx::core::SessionId{static_cast<std::uint32_t>(n)};
  return s;
}

std::vector<Session> ReplayFeed::next_until(double t) {
  const Scoped span{spans_, "serve.feed"};
  Call call;
  call.start_s = now_s();
  call.consumed = consumed_;
  std::vector<Session> out;
  while (true) {
    Session s = at(consumed_);
    if (s.arrival_s > t) break;
    out.push_back(std::move(s));
    ++consumed_;
  }
  call.end_s = now_s();
  calls_.push_back(call);
  return out;
}

void ReplayFeed::seek(std::uint64_t) {
  throw std::invalid_argument{"ReplayFeed: not seekable"};
}

void ReplayFeed::rewind() {
  consumed_ = 0;
  calls_.clear();
}

}  // namespace perfbench
