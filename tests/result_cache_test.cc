// Suite for the memory-bounded per-query result cache
// (docs/result-cache.md): ResultCache unit tests (byte-budget LRU
// eviction order, oversized-entry refusal, epoch-precise EraseScope, key
// injectivity over bound parameter values), engine-level behavior
// (zero-copy hits, cross-engine sharing, SetGlogue invalidation that
// spares peers, Explain surfacing), a concurrent hit/insert/evict stress
// with an epoch bump mid-stress (TSan-targeted), and — the core contract —
// a randomized differential harness: seeded random (workload x parameter
// binding) draws executed with cache {off, on, shared-across-engines}
// across exec_threads {1, 4} x partitions {0, 4} x factorization {off,
// auto}, asserting identical tables and logical rows_produced parity
// against an uncached sequential reference.
//
// The seed defaults to a fixed value for reproducible CI; the nightly job
// randomizes it via GOPT_DIFF_SEED (always printed, so any failure names
// its seed) and bounds the run with GOPT_DIFF_TIME_BUDGET_MS.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <random>
#include <thread>

#include "src/engine/engine.h"
#include "src/engine/result_cache.h"
#include "src/ldbc/ldbc.h"
#include "src/workloads/queries.h"

namespace gopt {
namespace {

// ---------------------------------------------------------------------------
// ResultCache unit tests (no engine)
// ---------------------------------------------------------------------------

std::shared_ptr<const ResultTable> MakeTable(const std::string& tag,
                                             int rows, size_t pad = 64) {
  auto t = std::make_shared<ResultTable>();
  t->columns = {"v"};
  for (int i = 0; i < rows; ++i) {
    t->rows.push_back({Value(tag + std::string(pad, 'x') +
                             std::to_string(i))});
  }
  return t;
}

CachedResult Entry(std::shared_ptr<const ResultTable> t,
                   uint64_t rows_produced = 1) {
  CachedResult e;
  e.table = std::move(t);
  e.rows_produced = rows_produced;
  return e;
}

TEST(ResultCacheUnitTest, ByteBudgetEvictsInLruOrder) {
  auto ta = MakeTable("a", 4), tb = MakeTable("b", 4), tc = MakeTable("c", 4);
  const size_t each = EstimateTableBytes(*ta);
  ASSERT_EQ(each, EstimateTableBytes(*tb));
  // Room for two same-sized entries, single shard for determinism.
  ResultCache cache(2 * each + each / 2, /*num_shards=*/1);
  cache.Put("a", {}, Entry(ta));
  cache.Put("b", {}, Entry(tb));
  EXPECT_EQ(cache.stats().entries, 2u);
  // Touch "a" so "b" becomes the LRU tail, then overflow with "c".
  EXPECT_NE(cache.Get("a"), nullptr);
  cache.Put("c", {}, Entry(tc));
  EXPECT_EQ(cache.Get("b"), nullptr) << "LRU tail should have been evicted";
  EXPECT_NE(cache.Get("a"), nullptr);
  EXPECT_NE(cache.Get("c"), nullptr);
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.entries, 2u);
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_LE(s.bytes, cache.byte_budget());
}

TEST(ResultCacheUnitTest, OversizedEntryIsRefusedNotChurned) {
  auto small = MakeTable("s", 1, 8);
  auto big = MakeTable("B", 64, 256);
  ResultCache cache(EstimateTableBytes(*small) * 2, /*num_shards=*/1);
  cache.Put("small", {}, Entry(small));
  cache.Put("big", {}, Entry(big));  // larger than the whole budget
  EXPECT_EQ(cache.Get("big"), nullptr);
  EXPECT_NE(cache.Get("small"), nullptr)
      << "an uninsertable entry must not evict resident ones";
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(ResultCacheUnitTest, EraseScopeIsEpochAndGraphPrecise) {
  ResultCache cache(1 << 20, /*num_shards=*/1);
  cache.Put("g1e10", PlanCacheScope{1, 10}, Entry(MakeTable("a", 1)));
  cache.Put("g1e11", PlanCacheScope{1, 11}, Entry(MakeTable("b", 1)));
  cache.Put("g2e10", PlanCacheScope{2, 10}, Entry(MakeTable("c", 1)));
  EXPECT_EQ(cache.EraseScope(1, 10), 1u);
  EXPECT_EQ(cache.Get("g1e10"), nullptr);
  EXPECT_NE(cache.Get("g1e11"), nullptr) << "same graph, newer epoch survives";
  EXPECT_NE(cache.Get("g2e10"), nullptr) << "other graph survives";
  // Graph-wide wildcard (ClearResultCache's path).
  EXPECT_EQ(cache.EraseScope(2), 1u);
  EXPECT_EQ(cache.Get("g2e10"), nullptr);
  EXPECT_EQ(cache.stats().entries, 1u);
  // EraseScope is invalidation, not pressure: no eviction counted.
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(ResultCacheUnitTest, ZeroBudgetDisablesInsertion) {
  ResultCache cache(0);
  cache.Put("k", {}, Entry(MakeTable("a", 1)));
  EXPECT_EQ(cache.Get("k"), nullptr);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(ResultCacheUnitTest, KeyDependsOnRequiredParamValuesOnly) {
  const std::vector<std::string> req = {"a", "b"};
  ParamMap m1, m2, m3, m4;
  m1["a"] = Value(static_cast<int64_t>(1));
  m1["b"] = Value(std::string("x"));
  m1["irrelevant"] = Value(static_cast<int64_t>(7));
  m2 = m1;
  m2["irrelevant"] = Value(static_cast<int64_t>(8));  // not in req
  m3 = m1;
  m3["b"] = Value(std::string("y"));  // required value differs
  m4 = m1;
  m4["a"] = Value(std::string("1"));  // same rendering, different kind
  EXPECT_EQ(ResultCacheKey("plan", req, m1), ResultCacheKey("plan", req, m2));
  EXPECT_NE(ResultCacheKey("plan", req, m1), ResultCacheKey("plan", req, m3));
  EXPECT_NE(ResultCacheKey("plan", req, m1), ResultCacheKey("plan", req, m4));
  EXPECT_NE(ResultCacheKey("plan", req, m1),
            ResultCacheKey("other", req, m1));
}

// ---------------------------------------------------------------------------
// Engine-level fixture (shared LDBC graph + statistics, like the other
// differential suites)
// ---------------------------------------------------------------------------

class ResultCacheTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ldbc_ = new LdbcGraph(GenerateLdbc(0.05, 123));
    peer_ = new LdbcGraph(GenerateLdbc(0.03, 7));
    glogue_ = new std::shared_ptr<const Glogue>(
        std::make_shared<Glogue>(Glogue::Build(*ldbc_->graph)));
    glogue2_ = new std::shared_ptr<const Glogue>(
        std::make_shared<Glogue>(Glogue::Build(*ldbc_->graph)));
  }
  static void TearDownTestSuite() {
    delete glogue2_;
    delete glogue_;
    delete peer_;
    delete ldbc_;
    ldbc_ = nullptr;
    peer_ = nullptr;
    glogue_ = nullptr;
    glogue2_ = nullptr;
  }

  static std::string Q(const std::string& text) {
    return SubstituteParams(text, DefaultParams());
  }

  static std::unique_ptr<GOptEngine> MakeEngine(
      int exec_threads = 1, int partitions = 0,
      FactorizationMode fact = FactorizationMode::kOff,
      size_t cache_bytes = 0, std::shared_ptr<ResultCache> shared = nullptr,
      const PropertyGraph* graph = nullptr,
      PartitionPolicy policy = PartitionPolicy::kHash) {
    EngineOptions opts;
    opts.exec_threads = exec_threads;
    opts.partitions = partitions;
    opts.partition_policy = policy;
    opts.factorization = fact;
    opts.result_cache_bytes = cache_bytes;
    opts.result_cache = std::move(shared);
    auto e = std::make_unique<GOptEngine>(
        graph ? graph : ldbc_->graph.get(), BackendSpec::Neo4jLike(), opts);
    if (!graph) e->SetGlogue(*glogue_);
    return e;
  }

  static LdbcGraph* ldbc_;
  static LdbcGraph* peer_;
  static std::shared_ptr<const Glogue>* glogue_;
  static std::shared_ptr<const Glogue>* glogue2_;
};

LdbcGraph* ResultCacheTest::ldbc_ = nullptr;
LdbcGraph* ResultCacheTest::peer_ = nullptr;
std::shared_ptr<const Glogue>* ResultCacheTest::glogue_ = nullptr;
std::shared_ptr<const Glogue>* ResultCacheTest::glogue2_ = nullptr;

TEST_F(ResultCacheTest, HitIsZeroCopyWithRowsProducedParity) {
  auto e = MakeEngine(1, 0, FactorizationMode::kOff, 4 << 20);
  const std::string q = Q(IcQueries()[2].cypher);
  ExecOutcome cold = e->Run(q);
  ExecOutcome hit = e->Run(q);
  EXPECT_FALSE(cold.stats.result_cache_hit);
  EXPECT_TRUE(hit.stats.result_cache_hit);
  // Zero-copy: the hit shares the cold run's materialization.
  EXPECT_EQ(hit.table_ptr.get(), cold.table_ptr.get());
  EXPECT_EQ(hit.stats.rows_produced, cold.stats.rows_produced);
  EXPECT_GE(hit.stats.result_cache.hits, 1u);
  EXPECT_GE(hit.stats.result_cache.entries, 1u);
  EXPECT_GT(hit.stats.result_cache.bytes, 0u);
}

TEST_F(ResultCacheTest, DifferingBindingsMiss) {
  auto e = MakeEngine(1, 0, FactorizationMode::kOff, 4 << 20);
  // Same auto-parameterized plan, different extracted literal values.
  std::map<std::string, std::string> p = DefaultParams();
  p["personId"] = "17";
  ExecOutcome a = e->Run(SubstituteParams(IcQueries()[0].cypher, p));
  p["personId"] = "18";
  ExecOutcome b = e->Run(SubstituteParams(IcQueries()[0].cypher, p));
  EXPECT_FALSE(a.stats.result_cache_hit);
  EXPECT_FALSE(b.stats.result_cache_hit)
      << "a different binding must be a result-cache miss";
  p["personId"] = "17";
  ExecOutcome c = e->Run(SubstituteParams(IcQueries()[0].cypher, p));
  EXPECT_TRUE(c.stats.result_cache_hit);
  EXPECT_TRUE(c.SameRows(a));
}

TEST_F(ResultCacheTest, SharedAcrossEnginesZeroCopy) {
  auto handle = std::make_shared<ResultCache>(4 << 20);
  auto a = MakeEngine(1, 0, FactorizationMode::kOff, 0, handle);
  auto b = MakeEngine(1, 0, FactorizationMode::kOff, 0, handle);
  const std::string q = Q(QrQueries()[0].cypher);
  ExecOutcome ra = a->Run(q);
  ExecOutcome rb = b->Run(q);
  EXPECT_FALSE(ra.stats.result_cache_hit);
  EXPECT_TRUE(rb.stats.result_cache_hit)
      << "engines sharing the handle (same graph/options/epoch) share "
         "answers";
  EXPECT_EQ(rb.table_ptr.get(), ra.table_ptr.get());
  EXPECT_EQ(b->result_cache_stats().hits, a->result_cache_stats().hits)
      << "counters aggregate on the shared handle";
}

TEST_F(ResultCacheTest, EpochBumpEvictsPreciselyAndSparesPeers) {
  auto handle = std::make_shared<ResultCache>(4 << 20);
  auto mine = MakeEngine(1, 0, FactorizationMode::kOff, 0, handle);
  auto peer = MakeEngine(1, 0, FactorizationMode::kOff, 0, handle,
                         peer_->graph.get());
  const std::string q = Q(QrQueries()[0].cypher);
  const std::string qp = Q(QrQueries()[1].cypher);
  ExecOutcome mine_cold = mine->Run(q);
  peer->Run(qp);
  ASSERT_EQ(handle->stats().entries, 2u);

  // New statistics on `mine`: its old-epoch entries are evicted precisely;
  // the peer engine (other graph, same shared cache) keeps its entry.
  mine->SetGlogue(*glogue2_);
  EXPECT_EQ(handle->stats().entries, 1u);
  EXPECT_TRUE(peer->Run(qp).stats.result_cache_hit)
      << "a peer's entries must survive another engine's epoch bump";
  ExecOutcome after = mine->Run(q);
  EXPECT_FALSE(after.stats.result_cache_hit);
  EXPECT_TRUE(after.SameRows(mine_cold))
      << "re-execution under new statistics returns the same rows";
  EXPECT_TRUE(mine->Run(q).stats.result_cache_hit)
      << "the new epoch repopulates normally";
}

TEST_F(ResultCacheTest, ClearResultCacheDropsOnlyThisGraph) {
  auto handle = std::make_shared<ResultCache>(4 << 20);
  auto mine = MakeEngine(1, 0, FactorizationMode::kOff, 0, handle);
  auto peer = MakeEngine(1, 0, FactorizationMode::kOff, 0, handle,
                         peer_->graph.get());
  mine->Run(Q(QrQueries()[0].cypher));
  peer->Run(Q(QrQueries()[1].cypher));
  ASSERT_EQ(handle->stats().entries, 2u);
  mine->ClearResultCache();
  EXPECT_EQ(handle->stats().entries, 1u);
  EXPECT_TRUE(peer->Run(Q(QrQueries()[1].cypher)).stats.result_cache_hit);
}

TEST_F(ResultCacheTest, ExplainSurfacesResultCache) {
  auto e = MakeEngine(1, 0, FactorizationMode::kOff, 4 << 20);
  const std::string q = Q(QrQueries()[0].cypher);
  Prepared prep = e->Prepare(q);
  e->Execute(prep);
  ExecOutcome hit = e->Execute(prep);
  const std::string explain = e->Explain(prep, hit);
  EXPECT_NE(explain.find("result cache (private):"), std::string::npos);
  EXPECT_NE(explain.find("result cache hit"), std::string::npos);
  auto off = MakeEngine();
  EXPECT_NE(off->Explain(off->Prepare(q)).find("result cache: disabled"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Concurrent hit / insert / evict stress with an epoch bump mid-stress.
// Runs under TSan in CI; the tiny budget keeps eviction constant.
// ---------------------------------------------------------------------------

TEST_F(ResultCacheTest, ConcurrentStressWithEpochBump) {
  auto handle = std::make_shared<ResultCache>(48 << 10);
  auto a = MakeEngine(1, 0, FactorizationMode::kOff, 0, handle);
  auto b = MakeEngine(1, 0, FactorizationMode::kOff, 0, handle);

  // Precompute references (uncached) for every query variant.
  std::vector<std::string> variants;
  std::vector<ResultTable> expected;
  auto ref = MakeEngine();
  for (int v = 0; v < 6; ++v) {
    std::map<std::string, std::string> p = DefaultParams();
    p["personId"] = std::to_string(11 + v);
    variants.push_back(SubstituteParams(IcQueries()[0].cypher, p));
    variants.push_back(SubstituteParams(QrQueries()[v % 4].cypher, p));
  }
  for (const std::string& q : variants) {
    expected.push_back(ref->Run(q).table());
  }

  std::atomic<bool> failed{false};
  const int kThreads = 4;
  const int kIters = 48;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t]() {
      GOptEngine* e = (t % 2 == 0) ? a.get() : b.get();
      for (int i = 0; i < kIters && !failed.load(); ++i) {
        const size_t v = (t * 7 + i) % variants.size();
        ExecOutcome out = e->Run(variants[v]);
        if (!out.SameRows(expected[v])) {
          failed.store(true);
          ADD_FAILURE() << "thread " << t << " iter " << i
                        << ": rows diverged on " << variants[v];
        }
      }
    });
  }
  // Epoch bumps racing the workers: SetGlogue is documented safe against
  // in-flight Prepare/Execute; eviction must never corrupt served rows.
  std::thread bumper([&]() {
    for (int i = 0; i < 6; ++i) {
      a->SetGlogue(i % 2 == 0 ? *glogue2_ : *glogue_);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  for (std::thread& w : workers) w.join();
  bumper.join();
  EXPECT_FALSE(failed.load());
  const CacheStats s = handle->stats();
  EXPECT_LE(s.bytes, handle->byte_budget());
  EXPECT_GT(s.hits + s.misses, 0u);
}

// ---------------------------------------------------------------------------
// Randomized differential harness
// ---------------------------------------------------------------------------

uint32_t DiffSeed() {
  if (const char* s = std::getenv("GOPT_DIFF_SEED")) {
    return static_cast<uint32_t>(std::strtoul(s, nullptr, 10));
  }
  return 20250808u;  // fixed default: reproducible normal CI runs
}

int64_t DiffTimeBudgetMs() {
  if (const char* s = std::getenv("GOPT_DIFF_TIME_BUDGET_MS")) {
    return std::strtoll(s, nullptr, 10);
  }
  return 0;  // unbounded
}

std::map<std::string, std::string> RandomParams(std::mt19937* rng) {
  auto pick = [&](int n) {
    return std::uniform_int_distribution<int>(0, n - 1)(*rng);
  };
  static const char* kNames[] = {"Emma", "Liam", "Olivia", "Noah", "Mia"};
  return {
      {"personId", std::to_string(pick(60))},
      {"firstName", kNames[pick(5)]},
      {"maxDate", std::to_string(20150101 + pick(70000))},
      {"minDate", std::to_string(20100101 + pick(50000))},
      {"minBirthday", std::to_string(19700101 + pick(200000))},
      {"country", "place_" + std::to_string(pick(40))},
      {"city", "place_" + std::to_string(pick(40))},
      {"city2", "place_" + std::to_string(pick(40))},
      {"tagName", "tag_" + std::to_string(pick(16))},
      {"tagName2", "tag_" + std::to_string(pick(16))},
      {"tagClass", "tagclass_" + std::to_string(pick(4))},
  };
}

TEST_F(ResultCacheTest, RandomizedDifferential) {
  const uint32_t seed = DiffSeed();
  const int64_t budget_ms = DiffTimeBudgetMs();
  // Always printed so a failing run (fixed or nightly-random seed) can be
  // reproduced with GOPT_DIFF_SEED=<seed>.
  std::printf("[ result-cache differential ] seed=%u time_budget_ms=%lld\n",
              seed, static_cast<long long>(budget_ms));
  std::mt19937 rng(seed);
  const auto t_start = std::chrono::steady_clock::now();
  auto out_of_time = [&]() {
    if (budget_ms <= 0) return false;
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now() - t_start)
               .count() > budget_ms;
  };

  std::vector<WorkloadQuery> pool;
  for (const auto& wq : IcQueries()) pool.push_back(wq);
  for (const auto& wq : QrQueries()) pool.push_back(wq);
  for (const auto& wq : QtQueries()) pool.push_back(wq);

  // Uncached sequential reference, memoized per substituted query text.
  auto baseline = MakeEngine();
  std::map<std::string, std::pair<ResultTable, uint64_t>> reference;
  auto ref = [&](const std::string& q)
      -> const std::pair<ResultTable, uint64_t>& {
    auto it = reference.find(q);
    if (it == reference.end()) {
      ExecOutcome out = baseline->Run(q);
      it = reference
               .emplace(q, std::make_pair(out.table(),
                                          out.stats.rows_produced))
               .first;
    }
    return it->second;
  };

  struct Config {
    int threads;
    int partitions;
    FactorizationMode fact;
    PartitionPolicy policy = PartitionPolicy::kHash;
  };
  const std::vector<Config> configs = {
      {1, 0, FactorizationMode::kOff}, {1, 0, FactorizationMode::kAuto},
      {4, 0, FactorizationMode::kOff}, {4, 0, FactorizationMode::kAuto},
      {1, 4, FactorizationMode::kOff}, {1, 4, FactorizationMode::kAuto},
      {4, 4, FactorizationMode::kOff}, {4, 4, FactorizationMode::kAuto},
      {1, 4, FactorizationMode::kOff, PartitionPolicy::kEdgeCut},
      {4, 4, FactorizationMode::kAuto, PartitionPolicy::kEdgeCut},
  };
  const int kTrialsPerConfig = 4;
  size_t runs = 0;
  for (const Config& c : configs) {
    SCOPED_TRACE(testing::Message()
                 << "threads=" << c.threads << " partitions=" << c.partitions
                 << " fact=" << static_cast<int>(c.fact)
                 << " policy=" << static_cast<int>(c.policy));
    auto off = MakeEngine(c.threads, c.partitions, c.fact, 0, nullptr,
                          nullptr, c.policy);
    auto on = MakeEngine(c.threads, c.partitions, c.fact, 8 << 20, nullptr,
                         nullptr, c.policy);
    auto handle = std::make_shared<ResultCache>(8 << 20);
    auto sa = MakeEngine(c.threads, c.partitions, c.fact, 0, handle, nullptr,
                         c.policy);
    auto sb = MakeEngine(c.threads, c.partitions, c.fact, 0, handle, nullptr,
                         c.policy);
    for (int t = 0; t < kTrialsPerConfig && !out_of_time(); ++t) {
      const WorkloadQuery& wq =
          pool[std::uniform_int_distribution<size_t>(0, pool.size() - 1)(
              rng)];
      auto params = RandomParams(&rng);
      const std::string q = SubstituteParams(wq.cypher, params);
      SCOPED_TRACE(wq.name + ": " + q);
      const auto& [want_rows, want_produced] = ref(q);

      // Cache off.
      ExecOutcome r0 = off->Run(q);
      EXPECT_FALSE(r0.stats.result_cache_hit);
      EXPECT_TRUE(r0.SameRows(want_rows));
      EXPECT_EQ(r0.stats.rows_produced, want_produced);
      // Cache on: cold, then a zero-copy hit.
      ExecOutcome r1 = on->Run(q);
      ExecOutcome r2 = on->Run(q);
      EXPECT_TRUE(r1.SameRows(want_rows));
      EXPECT_TRUE(r2.stats.result_cache_hit);
      EXPECT_EQ(r2.table_ptr.get(), r1.table_ptr.get());
      EXPECT_EQ(r2.stats.rows_produced, want_produced);
      // Shared across engines: the peer hits what the first one put.
      ExecOutcome r3 = sa->Run(q);
      ExecOutcome r4 = sb->Run(q);
      EXPECT_TRUE(r3.SameRows(want_rows));
      EXPECT_TRUE(r4.stats.result_cache_hit);
      EXPECT_TRUE(r4.SameRows(want_rows));
      EXPECT_EQ(r4.stats.rows_produced, want_produced);
      runs += 6;
    }
    if (out_of_time()) break;
  }
  std::printf("[ result-cache differential ] %zu runs, %zu distinct "
              "(query, binding) references\n",
              runs, reference.size());
  EXPECT_GT(runs, 0u);
}

}  // namespace
}  // namespace gopt
