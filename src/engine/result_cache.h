#pragma once

#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/cache_stats.h"
#include "src/exec/result.h"
#include "src/gir/expr.h"
#include "src/opt/pipeline/planner_options.h"

namespace gopt {

/// One cached query answer: the materialized table plus the logical
/// rows-produced count of the execution that built it, so a cache hit can
/// restore ExecStats::rows_produced exactly (the parity the differential
/// harness asserts — rows_produced is runtime-invariant, so one cached
/// count is correct for every thread configuration that shares the entry).
struct CachedResult {
  std::shared_ptr<const ResultTable> table;
  uint64_t rows_produced = 0;
  /// Estimated heap footprint of `table` (EstimateTableBytes), charged
  /// against the cache's byte budget. Filled by Put.
  size_t bytes = 0;
};

/// Memory-bounded cache of query answers (docs/result-cache.md): a sharded
/// LRU keyed on the full plan-cache key — parameterized query text,
/// language, options fingerprint, graph identity, statistics epoch — plus
/// this execution's bound parameter values, budgeted in *bytes* rather
/// than entries (EngineOptions::result_cache_bytes; result tables vary in
/// size by orders of magnitude, so an entry budget would be meaningless).
///
/// Values are `shared_ptr<const CachedResult>`: a hit shares the stored
/// table with zero copying, stays valid across concurrent Put / eviction /
/// invalidation, and any number of ExecOutcomes may alias one table.
///
/// Like SharedPlanCache the cache is injectable across engines
/// (EngineOptions::result_cache); the scope components of the key — plus a
/// structured (graph, epoch) scope stored per entry — keep engines over
/// different graphs, options or statistics epochs from cross-serving
/// answers, and let EraseScope invalidate exactly one (graph, epoch)
/// generation without flushing peers (GOptEngine::SetGlogue's precise
/// epoch-bump eviction).
///
/// Sharding mirrors SharedPlanCache: keys hash onto independent
/// mutex-guarded shards, each owning an equal slice of the byte budget, so
/// LRU recency and the budget are per shard (approximate global LRU).
/// Counters are lock-free atomics.
class ResultCache {
 public:
  static constexpr size_t kDefaultShards = 8;

  /// `byte_budget` is the total estimated-bytes budget across all shards.
  /// 0 disables insertion (Get always misses, Put is a no-op).
  explicit ResultCache(size_t byte_budget, size_t num_shards = kDefaultShards);

  /// Returns the cached answer (refreshing its recency) or nullptr. The
  /// returned pointer shares ownership and outlives any concurrent
  /// eviction or invalidation.
  std::shared_ptr<const CachedResult> Get(const std::string& key);

  /// Inserts (or refreshes) an answer under `key`, tagged with `scope` for
  /// EraseScope. Computes entry.bytes from the table, then evicts the
  /// shard's LRU tail until the entry fits its byte slice. An answer
  /// larger than a whole shard's budget is not cached at all (it would
  /// evict everything and still not fit).
  void Put(const std::string& key, const PlanCacheScope& scope,
           CachedResult entry);

  /// Drops every entry whose scope matches `graph` (and `epoch`, unless
  /// kAnyEpoch). Returns how many were dropped. Not counted as evictions —
  /// this is invalidation, not capacity pressure. Entries of other
  /// graphs/epochs (peer engines on a shared cache) are untouched.
  static constexpr uint64_t kAnyEpoch = ~static_cast<uint64_t>(0);
  size_t EraseScope(uint64_t graph, uint64_t epoch = kAnyEpoch);

  /// Drops everything in every shard (counters are preserved). On a shared
  /// cache this drops peers' entries too — scoped invalidation is what
  /// EraseScope is for.
  void Clear();

  size_t byte_budget() const { return byte_budget_; }
  size_t num_shards() const { return num_shards_; }

  /// By-value snapshot of the counters plus current entries/bytes
  /// occupancy (see CacheStats).
  CacheStats stats() const;

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<const CachedResult> value;
    uint64_t graph = 0;
    uint64_t epoch = 0;
  };
  struct Shard {
    mutable std::mutex mu;
    std::list<Entry> lru;  ///< front = most recent
    std::unordered_map<std::string, std::list<Entry>::iterator> index;
    size_t bytes = 0;   ///< estimated bytes currently held
    size_t budget = 0;  ///< this shard's slice of the byte budget
  };

  static size_t ClampShards(size_t num_shards) {
    return num_shards < 1 ? 1 : num_shards;
  }
  Shard& ShardFor(const std::string& key) const {
    return shards_[std::hash<std::string>{}(key) % num_shards_];
  }

  size_t byte_budget_;
  size_t num_shards_;
  std::unique_ptr<Shard[]> shards_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
};

/// Estimated heap footprint of a materialized table: the row/column
/// vectors plus every Value's out-of-line payload (strings, paths, lists —
/// recursively). An estimate, not an exact allocator measure; it is what
/// the byte budget is charged in.
size_t EstimateTableBytes(const ResultTable& table);

/// Appends an injective binary encoding of `v` to `*out`: a kind byte
/// followed by a fixed-width or length-prefixed payload (recursive for
/// lists and paths), so two distinct values can never serialize equal and
/// no separator byte inside a payload can fake a key boundary.
void AppendValueFingerprint(std::string* out, const Value& v);

/// The full result-cache key: `plan_key` (the prepared-plan cache key,
/// carrying text + language + options fingerprint + graph + epoch) plus
/// the values of every parameter the plan requires, in required_params
/// order, fingerprinted injectively. Parameters bound but not required by
/// the plan are deliberately excluded — they cannot affect the answer and
/// would only fragment the cache.
std::string ResultCacheKey(const std::string& plan_key,
                           const std::vector<std::string>& required_params,
                           const ParamMap& bound);

}  // namespace gopt
