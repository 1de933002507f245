#pragma once
// A store::FlowCache decorator around store::RemoteRunCache: times every
// lookup and insert as a span, keeps what it served and stored (the tune
// workload re-runs a few memo-served results to check them), and counts
// lookups that could not be answered by the cache server and dropped to the
// client's local rung — each of those is a failed operation.

#include <cstdint>
#include <map>
#include <mutex>

#include "ns.hpp"
#include "spans.hpp"
#include "store/remote_cache.hpp"

namespace e2e {

class TimedCache : public store::FlowCache {
 public:
  TimedCache(store::RemoteRunCache& inner, SpanLog& log, std::uint64_t parent)
      : inner_(&inner), log_(&log), parent_(parent) {}

  std::optional<flow::FlowResult> lookup(std::uint64_t fingerprint) override;
  void insert(std::uint64_t fingerprint, const store::RunKey& key,
              const flow::FlowResult& result) override;

  /// Lookups that fell back to the local rung (server unreachable or erred).
  std::uint64_t local_drops() const;
  /// fingerprint -> result, for every lookup the cache answered.
  std::map<std::uint64_t, flow::FlowResult> served() const;
  /// fingerprint -> run seed, for every insert.
  std::map<std::uint64_t, std::uint64_t> inserted_seeds() const;

 private:
  store::RemoteRunCache* inner_;
  SpanLog* log_;
  std::uint64_t parent_;
  mutable std::mutex mu_;
  std::uint64_t local_drops_ = 0;
  std::map<std::uint64_t, flow::FlowResult> served_;
  std::map<std::uint64_t, std::uint64_t> inserted_seeds_;
};

}  // namespace e2e
