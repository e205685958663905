// Shared plumbing of the VDX performance benchmark: the wall clock, the
// bench-owned span recorder used by traced runs, the per-run result that
// main() prints as JSON, and small statistics helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds since an arbitrary process-wide epoch (steady clock).
[[nodiscard]] double now_s();

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where a traced run writes its spans (one line per span).
  std::string trace_file;
  /// Scratch directory for checkpoint files (inside the checkout).
  std::string work_dir;
};

/// A benchmark failure: a correctness-gate breach or a broken input. main()
/// reports it and exits non-zero without printing a result.
struct GateError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Throws GateError with `message` unless `ok`.
void gate(bool ok, const std::string& message);

/// One metric value with its unit, as printed in the result line.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Everything one run reports: the attempted/failed counts and the metrics
/// (end-to-end ones untraced, per-layer ones traced). Per-layer times that
/// come from spans are computed by run.py from the span file, so a traced
/// run reports only the metrics the program itself counts.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
};

/// Bench-owned span recorder (traced runs only). A span is one timed call
/// into a public function or interface of the program; spans nest through
/// an explicit stack, carry the round they belong to, and are kept in
/// memory until write() dumps them at exit.
class SpanRecorder {
 public:
  struct Span {
    std::uint32_t id = 0;
    std::uint32_t parent = 0;  // 0 = root
    std::int64_t round = -1;   // -1 = outside any round
    std::uint16_t name = 0;    // index into names()
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  /// Opens a span; returns its id. `round` < 0 inherits the parent's round.
  std::uint32_t open(const char* name, std::int64_t round = -1);
  void close(std::uint32_t id);

  /// Writes "name\tid\tparent\tround\tstart_ns\tend_ns" lines.
  void write(const std::string& path) const;

 private:
  std::uint16_t intern(const char* name);

  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
  std::vector<std::string> names_;
  std::map<std::string, std::uint16_t, std::less<>> index_;
};

/// RAII span; a null recorder makes it a no-op (the untraced path).
class Scoped {
 public:
  Scoped(SpanRecorder* recorder, const char* name, std::int64_t round = -1)
      : recorder_(recorder), id_(recorder ? recorder->open(name, round) : 0) {}
  ~Scoped() {
    if (recorder_ != nullptr) recorder_->close(id_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SpanRecorder* recorder_;
  std::uint32_t id_;
};

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// Number of samples strictly above `threshold`.
[[nodiscard]] std::size_t count_above(const std::vector<double>& values,
                                      double threshold);

/// The process's peak resident set so far (VmHWM), in MiB.
[[nodiscard]] double peak_rss_mb();

/// FNV-1a over raw bytes, chained through `hash`.
[[nodiscard]] std::uint64_t fnv1a(const void* data, std::size_t size,
                                  std::uint64_t hash = 1469598103934665603ULL);

}  // namespace perfbench
