#pragma once
// In-memory span recorder for the benchmark's traced runs, plus the small
// statistics helpers every workload shares.
//
// Spans are recorded only around calls the benchmark makes into maestro's
// public entry points (a campaign, an oracle call, one flow::run_* step, a
// cache call, a transmit call). They stay in memory; per-layer figures are
// computed from them at the end of each traced round, and write_chrome()
// can dump them as Chrome trace_event JSON when asked to.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct SpanRec {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::string name;
  double start_ms = 0.0;     ///< since the recorder's epoch
  double end_ms = 0.0;
  double duration_ms() const { return end_ms - start_ms; }
};

class SpanLog {
 public:
  SpanLog();
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  /// Toggled only between rounds, while no pooled work runs.
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_release); }
  bool enabled() const { return enabled_.load(std::memory_order_acquire); }

  /// RAII span. A disabled recorder makes every Scope a no-op.
  class Scope {
   public:
    Scope(SpanLog& log, const char* name, std::uint64_t parent = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    std::uint64_t id() const { return id_; }

   private:
    SpanLog* log_;  ///< null when disabled
    std::uint64_t id_ = 0;
    std::uint64_t parent_ = 0;
    const char* name_;
    Clock::time_point start_;
  };

  std::size_t size() const;
  /// Copy of the spans recorded from index `from` on.
  std::vector<SpanRec> since(std::size_t from) const;
  /// Chrome trace_event JSON ("X" events). Returns false on I/O failure.
  bool write_chrome(const std::string& path) const;

 private:
  void record(SpanRec rec);

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{1};
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<SpanRec> spans_;
};

/// Spans named `name` among `spans`.
std::vector<SpanRec> named(const std::vector<SpanRec>& spans, const std::string& name);
/// Duration minus the part of it covered by the span's direct children.
double self_ms(const SpanRec& span, const std::vector<SpanRec>& all);
/// Length of the union of the intervals of `spans`, clipped to [lo, hi].
double covered_ms(std::vector<SpanRec> spans, double lo, double hi);

/// Median and linear-interpolated percentile (p in [0, 1]); 0 for empty input.
double median(std::vector<double> v);
double percentile(std::vector<double> v, double p);
double mean(const std::vector<double>& v);

/// Peak resident set size of this process in MB (getrusage).
double peak_rss_mb();

}  // namespace e2e
