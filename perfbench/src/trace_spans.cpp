#include <algorithm>
#include <cstdio>
#include <fstream>

#include "bench.hpp"

namespace perfbench {

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

}  // namespace

double now_s() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch()).count();
}

void gate(bool ok, const std::string& message) {
  if (!ok) throw GateError{message};
}

std::uint16_t SpanRecorder::intern(const char* name) {
  const auto it = index_.find(std::string_view{name});
  if (it != index_.end()) return it->second;
  const auto id = static_cast<std::uint16_t>(names_.size());
  names_.emplace_back(name);
  index_.emplace(name, id);
  return id;
}

std::uint32_t SpanRecorder::open(const char* name, std::int64_t round) {
  Span span;
  span.id = static_cast<std::uint32_t>(spans_.size() + 1);
  span.parent = stack_.empty() ? 0 : stack_.back();
  span.round = round >= 0 || span.parent == 0 ? round : spans_[span.parent - 1].round;
  span.name = intern(name);
  span.start_ns = now_ns();
  spans_.push_back(span);
  stack_.push_back(span.id);
  return span.id;
}

void SpanRecorder::close(std::uint32_t id) {
  if (stack_.empty() || stack_.back() != id) {
    throw std::logic_error{"SpanRecorder: spans closed out of order"};
  }
  stack_.pop_back();
  spans_[id - 1].end_ns = now_ns();
}

void SpanRecorder::write(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) throw std::runtime_error{"cannot write trace file " + path};
  for (const Span& s : spans_) {
    std::fprintf(out, "%s\t%u\t%u\t%lld\t%lld\t%lld\n", names_[s.name].c_str(), s.id,
                 s.parent, static_cast<long long>(s.round),
                 static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns));
  }
  if (std::fclose(out) != 0) throw std::runtime_error{"cannot close " + path};
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

std::size_t count_above(const std::vector<double>& values, double threshold) {
  return static_cast<std::size_t>(std::count_if(
      values.begin(), values.end(), [&](double v) { return v > threshold; }));
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter survives execve, so it
  // would start at the launching process's own peak.
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  throw std::runtime_error{"VmHWM missing from /proc/self/status"};
}

std::uint64_t fnv1a(const void* data, std::size_t size, std::uint64_t hash) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ULL;
  }
  return hash;
}

}  // namespace perfbench
