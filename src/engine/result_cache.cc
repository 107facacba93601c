#include "src/engine/result_cache.h"

#include <cstring>

namespace gopt {

ResultCache::ResultCache(size_t byte_budget, size_t num_shards)
    : byte_budget_(byte_budget),
      num_shards_(ClampShards(num_shards)),
      shards_(new Shard[ClampShards(num_shards)]) {
  for (size_t i = 0; i < num_shards_; ++i) {
    shards_[i].budget =
        byte_budget / num_shards_ + (i < byte_budget % num_shards_ ? 1 : 0);
  }
}

std::shared_ptr<const CachedResult> ResultCache::Get(const std::string& key) {
  Shard& s = ShardFor(key);
  std::lock_guard<std::mutex> lock(s.mu);
  auto it = s.index.find(key);
  if (it == s.index.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  s.lru.splice(s.lru.begin(), s.lru, it->second);
  hits_.fetch_add(1, std::memory_order_relaxed);
  return s.lru.front().value;
}

void ResultCache::Put(const std::string& key, const PlanCacheScope& scope,
                      CachedResult entry) {
  if (byte_budget_ == 0) return;
  entry.bytes = entry.table ? EstimateTableBytes(*entry.table) : 0;
  Shard& s = ShardFor(key);
  std::lock_guard<std::mutex> lock(s.mu);
  // An answer that could never fit the shard even alone is not cached:
  // admitting it would evict the whole shard and immediately be evicted
  // by the next insert — pure churn.
  if (entry.bytes > s.budget) return;
  auto it = s.index.find(key);
  if (it != s.index.end()) {
    s.bytes -= it->second->value->bytes;
    s.bytes += entry.bytes;
    it->second->value = std::make_shared<const CachedResult>(std::move(entry));
    it->second->graph = scope.graph;
    it->second->epoch = scope.glogue_epoch;
    s.lru.splice(s.lru.begin(), s.lru, it->second);
  } else {
    Entry e;
    e.key = key;
    e.graph = scope.graph;
    e.epoch = scope.glogue_epoch;
    s.bytes += entry.bytes;
    e.value = std::make_shared<const CachedResult>(std::move(entry));
    s.lru.push_front(std::move(e));
    s.index[key] = s.lru.begin();
  }
  // Evict the least recently used entries until the shard fits its byte
  // slice again. The just-inserted entry is at the front and fits alone,
  // so the loop always terminates with it retained.
  while (s.bytes > s.budget && s.lru.size() > 1) {
    const Entry& victim = s.lru.back();
    s.bytes -= victim.value->bytes;
    s.index.erase(victim.key);
    s.lru.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

size_t ResultCache::EraseScope(uint64_t graph, uint64_t epoch) {
  size_t erased = 0;
  for (size_t i = 0; i < num_shards_; ++i) {
    Shard& s = shards_[i];
    std::lock_guard<std::mutex> lock(s.mu);
    for (auto it = s.lru.begin(); it != s.lru.end();) {
      if (it->graph == graph && (epoch == kAnyEpoch || it->epoch == epoch)) {
        s.bytes -= it->value->bytes;
        s.index.erase(it->key);
        it = s.lru.erase(it);
        ++erased;
      } else {
        ++it;
      }
    }
  }
  return erased;
}

void ResultCache::Clear() {
  for (size_t i = 0; i < num_shards_; ++i) {
    Shard& s = shards_[i];
    std::lock_guard<std::mutex> lock(s.mu);
    s.lru.clear();
    s.index.clear();
    s.bytes = 0;
  }
}

CacheStats ResultCache::stats() const {
  CacheStats out;
  out.hits = hits_.load(std::memory_order_relaxed);
  out.misses = misses_.load(std::memory_order_relaxed);
  out.evictions = evictions_.load(std::memory_order_relaxed);
  for (size_t i = 0; i < num_shards_; ++i) {
    Shard& s = shards_[i];
    std::lock_guard<std::mutex> lock(s.mu);
    out.entries += s.lru.size();
    out.bytes += s.bytes;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Byte accounting
// ---------------------------------------------------------------------------

namespace {

size_t EstimateValueBytes(const Value& v) {
  size_t b = sizeof(Value);
  switch (v.kind()) {
    case Value::Kind::kString:
      b += v.AsString().size();
      break;
    case Value::Kind::kPath: {
      const PathRef& p = v.AsPath();
      b += sizeof(PathRef) + p.vertices.size() * sizeof(VertexId) +
           p.edges.size() * sizeof(EdgeId);
      break;
    }
    case Value::Kind::kList: {
      b += sizeof(std::vector<Value>);
      for (const Value& e : v.AsList()) b += EstimateValueBytes(e);
      break;
    }
    default:
      break;  // inline payloads are covered by sizeof(Value)
  }
  return b;
}

}  // namespace

size_t EstimateTableBytes(const ResultTable& table) {
  size_t b = sizeof(ResultTable);
  for (const std::string& c : table.columns) b += sizeof(std::string) + c.size();
  for (const Row& r : table.rows) {
    b += sizeof(Row);
    for (const Value& v : r) b += EstimateValueBytes(v);
  }
  return b;
}

// ---------------------------------------------------------------------------
// Keys
// ---------------------------------------------------------------------------

namespace {

template <typename T>
void AppendRaw(std::string* out, T v) {
  char buf[sizeof(T)];
  std::memcpy(buf, &v, sizeof(T));
  out->append(buf, sizeof(T));
}

void AppendSized(std::string* out, const std::string& s) {
  AppendRaw(out, static_cast<uint64_t>(s.size()));
  out->append(s);
}

}  // namespace

void AppendValueFingerprint(std::string* out, const Value& v) {
  out->push_back(static_cast<char>(v.kind()));
  switch (v.kind()) {
    case Value::Kind::kNull:
      break;
    case Value::Kind::kBool:
      out->push_back(v.AsBool() ? 1 : 0);
      break;
    case Value::Kind::kInt:
      AppendRaw(out, v.AsInt());
      break;
    case Value::Kind::kDouble:
      AppendRaw(out, v.AsDouble());
      break;
    case Value::Kind::kString:
      AppendSized(out, v.AsString());
      break;
    case Value::Kind::kVertex:
      AppendRaw(out, v.AsVertex().id);
      break;
    case Value::Kind::kEdge: {
      const EdgeRef e = v.AsEdge();
      AppendRaw(out, e.id);
      AppendRaw(out, e.src);
      AppendRaw(out, e.dst);
      AppendRaw(out, e.type);
      break;
    }
    case Value::Kind::kPath: {
      const PathRef& p = v.AsPath();
      AppendRaw(out, static_cast<uint64_t>(p.vertices.size()));
      for (VertexId u : p.vertices) AppendRaw(out, u);
      AppendRaw(out, static_cast<uint64_t>(p.edges.size()));
      for (EdgeId e : p.edges) AppendRaw(out, e);
      break;
    }
    case Value::Kind::kList: {
      const auto& elems = v.AsList();
      AppendRaw(out, static_cast<uint64_t>(elems.size()));
      for (const Value& e : elems) AppendValueFingerprint(out, e);
      break;
    }
  }
}

std::string ResultCacheKey(const std::string& plan_key,
                           const std::vector<std::string>& required_params,
                           const ParamMap& bound) {
  std::string key = plan_key;
  key.push_back('\x1e');
  // required_params is in first-occurrence order and fully bound (Execute
  // rejects unbound slots before the cache is consulted), so the encoding
  // is canonical: same plan + same effective bindings => same key.
  for (const std::string& name : required_params) {
    AppendSized(&key, name);
    AppendValueFingerprint(&key, bound.at(name));
  }
  return key;
}

}  // namespace gopt
