// Seeded inputs and the bench-owned replay sources that hand them to the
// program.
//
// Every input is drawn from trace::BrokerTraceGenerator before the timed
// window (time inside next_batch is the trace.generate_s layer and part of
// setup_s). The program then receives only the generated sessions, through
// the two public source interfaces it consumes: sim::SessionStream (the
// streaming engine) and serve::ArrivalFeed (the serving daemon). Replay time
// is load-generator time and is measured apart from the program's time.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "bench.hpp"
#include "serve/feed.hpp"
#include "sim/scenario.hpp"
#include "sim/streaming.hpp"
#include "trace/generator.hpp"

namespace perfbench {

/// Sessions pulled from one generator, with the time spent inside its
/// next_batch calls. Switch lists are dropped: neither engine reads them,
/// and replaying them would charge allocation to the load generator.
struct Drawn {
  std::vector<vdx::trace::Session> sessions;
  double generate_s = 0.0;
};

/// Draws `count` sessions over `duration_s` from a generator seeded with
/// `seed` (the world/catalog stay the scenario's; only the trace varies).
[[nodiscard]] Drawn draw_sessions(const vdx::sim::Scenario& scenario,
                                  std::uint64_t seed, const char* stream,
                                  std::size_t count, double duration_s,
                                  bool broker_controlled);

/// The fixed world every workload runs on: the repository's default
/// scenario (seed 2017) with a small pilot trace. The workload seed only
/// varies the sessions drawn on top of it.
[[nodiscard]] vdx::sim::Scenario build_scenario(double duration_s);

/// Replays a pre-drawn, arrival-ordered session vector as a SessionStream.
/// Rewindable, so one draw serves every repetition of a timeline run.
///
/// Every next_batch call is logged: when it started, how long it took (the
/// load generator's time) and the last arrival it returned, which places
/// the pull in the engine's epochs.
class ReplayStream final : public vdx::sim::SessionStream {
 public:
  struct Pull {
    double start_s = 0.0;
    double duration_s = 0.0;
    double last_arrival_s = 0.0;
  };

  ReplayStream(std::span<const vdx::trace::Session> sessions, double duration_s,
               SpanRecorder* spans = nullptr)
      : sessions_(sessions), duration_s_(duration_s), spans_(spans) {}

  [[nodiscard]] std::vector<vdx::trace::Session> next_batch(
      std::size_t max_sessions) override;
  [[nodiscard]] bool exhausted() const override { return pos_ >= sessions_.size(); }
  [[nodiscard]] double duration_s() const override { return duration_s_; }
  void seek(std::uint64_t consumed) override;

  void rewind() {
    pos_ = 0;
    pulls_.clear();
  }
  /// The next_batch calls since the last rewind().
  [[nodiscard]] const std::vector<Pull>& pulls() const noexcept { return pulls_; }
  /// Seconds spent inside next_batch since the last rewind().
  [[nodiscard]] double replay_s() const noexcept;

 private:
  std::span<const vdx::trace::Session> sessions_;
  double duration_s_;
  SpanRecorder* spans_;
  std::size_t pos_ = 0;
  std::vector<Pull> pulls_;
};

/// Replays pre-drawn sessions as an endless arrival stream for the serving
/// daemon. Session n (0-based, arrival order) is `source(n)`, a pure
/// function over the pre-drawn buffers; ids are assigned densely in replay
/// order.
///
/// Every next_until call is timestamped: the gap between the end of one
/// call and the start of the next is the daemon's own time for that round.
class ReplayFeed final : public vdx::serve::ArrivalFeed {
 public:
  struct Call {
    double start_s = 0.0;
    double end_s = 0.0;
    std::uint64_t consumed = 0;  // sessions handed out before this call
  };
  using Source = std::function<vdx::trace::Session(std::uint64_t)>;

  ReplayFeed(Source source, double horizon_s)
      : source_(std::move(source)), horizon_s_(horizon_s) {}

  [[nodiscard]] std::vector<vdx::trace::Session> next_until(double t) override;
  [[nodiscard]] bool exhausted() const override { return false; }
  [[nodiscard]] double duration_s() const override { return horizon_s_; }
  [[nodiscard]] std::uint64_t consumed() const override { return consumed_; }
  void seek(std::uint64_t consumed) override;
  [[nodiscard]] bool seekable() const override { return false; }

  /// Restarts the replay from its first session (a fresh daemon run).
  void rewind();
  void set_spans(SpanRecorder* spans) noexcept { spans_ = spans; }
  [[nodiscard]] const std::vector<Call>& calls() const noexcept { return calls_; }

  /// Session n of the replay (the correctness gate recounts the offered
  /// population from it).
  [[nodiscard]] vdx::trace::Session at(std::uint64_t n) const;

 private:
  Source source_;
  double horizon_s_;
  SpanRecorder* spans_ = nullptr;
  std::uint64_t consumed_ = 0;
  std::vector<Call> calls_;
};

}  // namespace perfbench
