#include "spans.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <numeric>

namespace e2e {

SpanLog::SpanLog() : epoch_(Clock::now()) {}

SpanLog::Scope::Scope(SpanLog& log, const char* name, std::uint64_t parent)
    : log_(log.enabled() ? &log : nullptr), parent_(parent), name_(name) {
  if (!log_) return;
  id_ = log_->next_id_.fetch_add(1, std::memory_order_relaxed);
  start_ = Clock::now();
}

SpanLog::Scope::~Scope() {
  if (!log_) return;
  const auto end = Clock::now();
  SpanRec rec;
  rec.id = id_;
  rec.parent = parent_;
  rec.name = name_;
  rec.start_ms = ms_between(log_->epoch_, start_);
  rec.end_ms = ms_between(log_->epoch_, end);
  log_->record(std::move(rec));
}

void SpanLog::record(SpanRec rec) {
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(rec));
}

std::size_t SpanLog::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::vector<SpanRec> SpanLog::since(std::size_t from) const {
  const std::lock_guard<std::mutex> lock(mu_);
  if (from >= spans_.size()) return {};
  return {spans_.begin() + static_cast<std::ptrdiff_t>(from), spans_.end()};
}

bool SpanLog::write_chrome(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::lock_guard<std::mutex> lock(mu_);
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRec& s = spans_[i];
    char buf[320];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"id\":%llu,\"parent\":%llu}}",
                  i == 0 ? "" : ",", s.name.c_str(), s.start_ms * 1000.0,
                  s.duration_ms() * 1000.0, static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent));
    out << buf;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

std::vector<SpanRec> named(const std::vector<SpanRec>& spans, const std::string& name) {
  std::vector<SpanRec> out;
  for (const auto& s : spans) {
    if (s.name == name) out.push_back(s);
  }
  return out;
}

double covered_ms(std::vector<SpanRec> spans, double lo, double hi) {
  std::sort(spans.begin(), spans.end(),
            [](const SpanRec& a, const SpanRec& b) { return a.start_ms < b.start_ms; });
  double covered = 0.0;
  double cur_lo = 0.0;
  double cur_hi = -1.0;
  bool open = false;
  for (const auto& s : spans) {
    const double a = std::max(s.start_ms, lo);
    const double b = std::min(s.end_ms, hi);
    if (b <= a) continue;
    if (open && a <= cur_hi) {
      cur_hi = std::max(cur_hi, b);
      continue;
    }
    if (open) covered += cur_hi - cur_lo;
    cur_lo = a;
    cur_hi = b;
    open = true;
  }
  if (open) covered += cur_hi - cur_lo;
  return covered;
}

double self_ms(const SpanRec& span, const std::vector<SpanRec>& all) {
  std::vector<SpanRec> children;
  for (const auto& s : all) {
    if (s.parent == span.id) children.push_back(s);
  }
  return span.duration_ms() - covered_ms(std::move(children), span.start_ms, span.end_ms);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

}  // namespace e2e
