// The three benchmark workloads (see NOTES.md for why each exists).
#pragma once

#include <cstdint>
#include <span>

#include "bench.hpp"
#include "broker/grouping.hpp"
#include "sim/designs.hpp"

namespace perfbench {

/// The gate's view of one decision round: clients placed, clients of
/// demand groups no placement covers (unplaced), and a placements hash.
struct Settled {
  double placed = 0.0;
  double unplaced = 0.0;
  std::uint64_t hash = 0;
};

[[nodiscard]] Settled settle_of(std::span<const vdx::sim::Placement> placements,
                                std::span<const vdx::broker::ClientGroup> demand);

/// `stream`: sim::StreamingTimeline over ~1M broker + 3M background
/// sessions. Untraced: end-to-end metrics. Traced: a public-call replica of
/// the streaming epoch, timed span by span, checked against the engine.
[[nodiscard]] RunResult run_stream(const Options& options);

/// `serve` (light load) and `settle` (1M live sessions, 1% churn per round,
/// checkpoints): serve::ServeDaemon driven by a replayed arrival feed.
/// Traced: a public-call replica of the daemon loop, whose exchange is
/// composed from the public agents with timing decorators on the protocol
/// participant interfaces, checked against the daemon round by round.
[[nodiscard]] RunResult run_serving(const Options& options, bool settle);

}  // namespace perfbench
