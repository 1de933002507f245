#include "timed_cache.hpp"

namespace e2e {

std::optional<flow::FlowResult> TimedCache::lookup(std::uint64_t fingerprint) {
  std::optional<flow::FlowResult> result;
  bool dropped = false;
  {
    const SpanLog::Scope span(*log_, "cache.lookup", parent_);
    const std::uint64_t errors_before = inner_->remote_errors();
    result = inner_->lookup(fingerprint);
    dropped = !inner_->connected() || inner_->gave_up() ||
              inner_->remote_errors() != errors_before;
  }
  const std::lock_guard<std::mutex> lock(mu_);
  if (dropped) ++local_drops_;
  if (result) served_[fingerprint] = *result;
  return result;
}

void TimedCache::insert(std::uint64_t fingerprint, const store::RunKey& key,
                        const flow::FlowResult& result) {
  {
    const SpanLog::Scope span(*log_, "cache.insert", parent_);
    inner_->insert(fingerprint, key, result);
  }
  const std::lock_guard<std::mutex> lock(mu_);
  inserted_seeds_[fingerprint] = key.seed;
}

std::uint64_t TimedCache::local_drops() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return local_drops_;
}

std::map<std::uint64_t, flow::FlowResult> TimedCache::served() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return served_;
}

std::map<std::uint64_t, std::uint64_t> TimedCache::inserted_seeds() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return inserted_seeds_;
}

}  // namespace e2e
