// Concurrency tests for the engine core: N threads against one engine, many
// engines over one SharedPlanCache, epoch-scoped SetGlogue invalidation,
// re-entrant Execute, and the parallel per-pattern CBO. The CI
// ThreadSanitizer job runs this suite to certify the locking.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "src/engine/engine.h"
#include "src/ldbc/ldbc.h"
#include "src/opt/pipeline/shared_plan_cache.h"

namespace gopt {
namespace {

/// The same tiny paper-schema graph the engine smoke tests use.
std::shared_ptr<PropertyGraph> PaperGraph() {
  GraphSchema s = MakePaperSchema();
  auto g = std::make_shared<PropertyGraph>(s);
  TypeId person = *s.FindVertexType("Person");
  TypeId product = *s.FindVertexType("Product");
  TypeId place = *s.FindVertexType("Place");
  TypeId knows = *s.FindEdgeType("Knows");
  TypeId purchases = *s.FindEdgeType("Purchases");
  TypeId located = *s.FindEdgeType("LocatedIn");

  std::vector<VertexId> p, pr, pl;
  for (int i = 0; i < 4; ++i) {
    VertexId v = g->AddVertex(person);
    g->SetVertexProp(v, "id", Value(i));
    p.push_back(v);
  }
  for (int i = 0; i < 3; ++i) pr.push_back(g->AddVertex(product));
  for (int i = 0; i < 2; ++i) pl.push_back(g->AddVertex(place));
  g->AddEdge(p[0], p[1], knows);
  g->AddEdge(p[1], p[2], knows);
  g->AddEdge(p[0], p[2], knows);
  g->AddEdge(p[2], p[3], knows);
  g->AddEdge(p[0], pr[0], purchases);
  g->AddEdge(p[1], pr[1], purchases);
  g->AddEdge(p[0], pl[0], located);
  g->AddEdge(p[1], pl[0], located);
  g->AddEdge(p[2], pl[1], located);
  g->Finalize();
  return g;
}

/// M distinct query shapes (structurally different: each is its own cache
/// entry even after auto-parameterization).
std::vector<std::string> QueryShapes() {
  return {
      "MATCH (a:Person)-[:Knows]->(b:Person) RETURN a, b",
      "MATCH (a:Person)-[:Purchases]->(p:Product) RETURN a, p",
      "MATCH (a:Person)-[:LocatedIn]->(l:Place) RETURN a, l",
      "MATCH (a:Person)-[:Knows]->(b:Person)-[:Knows]->(c:Person) "
      "RETURN a, c",
  };
}

TEST(ConcurrencyTest, WarmCacheStressNoTornStats) {
  auto g = PaperGraph();
  auto cache = std::make_shared<SharedPreparedPlanCache>(64);
  EngineOptions opts;
  opts.plan_cache = cache;
  GOptEngine engine(g.get(), BackendSpec::Neo4jLike(), opts);

  const std::vector<std::string> shapes = QueryShapes();
  const size_t M = shapes.size();
  const size_t N = 8;  // threads

  // Warm every shape once and record reference row counts.
  std::vector<size_t> want_rows;
  for (const auto& q : shapes) want_rows.push_back(engine.Run(q).NumRows());
  ASSERT_EQ(engine.plan_cache_stats().misses, M);

  // N threads x M shapes, all lookups must hit and execute correctly.
  std::atomic<size_t> wrong{0};
  std::atomic<size_t> not_cached{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < N; ++t) {
    threads.emplace_back([&] {
      for (size_t i = 0; i < M; ++i) {
        GOptEngine::Prepared prep = engine.Prepare(shapes[i]);
        if (!prep.from_cache) not_cached.fetch_add(1);
        ExecOutcome out = engine.Execute(prep);
        if (out.NumRows() != want_rows[i]) wrong.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_EQ(not_cached.load(), 0u);
  const PlanCacheStats stats = engine.plan_cache_stats();
  // Exact counters — any torn/lost atomic update would show up here.
  EXPECT_EQ(stats.hits, N * M);
  EXPECT_EQ(stats.misses, M);
  EXPECT_EQ(stats.entries, M);
  // The ISSUE acceptance bound: hit-rate >= (M*N - M) / (M*N).
  const double hit_rate =
      static_cast<double>(stats.hits) /
      static_cast<double>(stats.hits + stats.misses);
  EXPECT_GE(hit_rate, static_cast<double>(M * N - M) /
                          static_cast<double>(M * N));
}

TEST(ConcurrencyTest, ColdCacheConcurrentPreparesConverge) {
  // No warmup: concurrent first touches of a shape may plan it more than
  // once (the Put races are benign — plans are equivalent), but the cache
  // must converge to one entry per shape and stay consistent.
  auto g = PaperGraph();
  auto cache = std::make_shared<SharedPreparedPlanCache>(64);
  EngineOptions opts;
  opts.plan_cache = cache;
  GOptEngine engine(g.get(), BackendSpec::Neo4jLike(), opts);
  engine.glogue();  // build statistics once, outside the timed region

  const std::vector<std::string> shapes = QueryShapes();
  const size_t M = shapes.size();
  const size_t N = 8;
  const size_t rounds = 4;

  std::vector<std::thread> threads;
  std::atomic<size_t> failures{0};
  for (size_t t = 0; t < N; ++t) {
    threads.emplace_back([&] {
      for (size_t r = 0; r < rounds; ++r) {
        for (size_t i = 0; i < M; ++i) {
          if (engine.Run(shapes[i]).table().columns.empty()) {
            failures.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0u);
  const PlanCacheStats stats = engine.plan_cache_stats();
  EXPECT_EQ(stats.entries, M);
  EXPECT_EQ(stats.hits + stats.misses, N * rounds * M);
  // At worst every thread cold-misses every shape in its first round.
  EXPECT_LE(stats.misses, N * M);
  EXPECT_GE(stats.hits, (rounds - 1) * N * M);
}

TEST(ConcurrencyTest, TwoEnginesShareOnePlanCache) {
  auto g = PaperGraph();
  auto cache = std::make_shared<SharedPreparedPlanCache>(64);
  EngineOptions opts;
  opts.plan_cache = cache;
  GOptEngine a(g.get(), BackendSpec::Neo4jLike(), opts);
  GOptEngine b(g.get(), BackendSpec::Neo4jLike(), opts);

  const std::string q = QueryShapes()[0];
  EXPECT_FALSE(a.Prepare(q).from_cache);  // A plans and caches
  EXPECT_TRUE(b.Prepare(q).from_cache);   // B reuses A's plan
  EXPECT_EQ(cache->stats().entries, 1u);
  // The handle is also reachable from the engine for later sharing.
  EXPECT_EQ(a.plan_cache().get(), cache.get());
}

TEST(ConcurrencyTest, EnginesOnDifferentBackendsNeverCrossServe) {
  // Planning consults the executing backend (its PhysicalSpec decides, for
  // one, whether ExpandIntersect may appear) and a distributed backend's
  // pipeline plan carries its exchanges, so the same query on another
  // backend must plan afresh — while engines on one backend still share.
  auto g = PaperGraph();
  auto cache = std::make_shared<SharedPreparedPlanCache>(64);
  EngineOptions opts;
  opts.plan_cache = cache;
  GOptEngine gs(g.get(), BackendSpec::GraphScopeLike(2), opts);
  GOptEngine neo(g.get(), BackendSpec::Neo4jLike(), opts);
  GOptEngine gs_peer(g.get(), BackendSpec::GraphScopeLike(2), opts);
  const std::string q = QueryShapes()[3];
  EXPECT_FALSE(gs.Prepare(q).from_cache);
  EXPECT_FALSE(neo.Prepare(q).from_cache);
  EXPECT_EQ(cache->stats().entries, 2u);
  EXPECT_TRUE(gs_peer.Prepare(q).from_cache);
  EXPECT_TRUE(neo.Prepare(q).from_cache);
  EXPECT_EQ(gs.Run(q).NumRows(), neo.Run(q).NumRows());
}

TEST(ConcurrencyTest, EnginesOverDifferentGraphsNeverCrossServe) {
  auto g1 = PaperGraph();
  auto g2 = PaperGraph();
  auto cache = std::make_shared<SharedPreparedPlanCache>(64);
  EngineOptions opts;
  opts.plan_cache = cache;
  GOptEngine a(g1.get(), BackendSpec::Neo4jLike(), opts);
  GOptEngine b(g2.get(), BackendSpec::Neo4jLike(), opts);
  const std::string q = QueryShapes()[0];
  EXPECT_FALSE(a.Prepare(q).from_cache);
  // Same query text + options, but a different graph: the key's graph
  // identity keeps the entries apart (plans embed graph TypeIds).
  EXPECT_FALSE(b.Prepare(q).from_cache);
  EXPECT_EQ(cache->stats().entries, 2u);
}

TEST(ConcurrencyTest, ClearPlanCacheIsScopedToTheEnginesGraph) {
  auto g1 = PaperGraph();
  auto g2 = PaperGraph();
  auto cache = std::make_shared<SharedPreparedPlanCache>(64);
  EngineOptions opts;
  opts.plan_cache = cache;
  GOptEngine a(g1.get(), BackendSpec::Neo4jLike(), opts);
  GOptEngine b(g2.get(), BackendSpec::Neo4jLike(), opts);
  const std::string q = QueryShapes()[0];
  a.Run(q);
  b.Run(q);
  ASSERT_EQ(cache->stats().entries, 2u);

  a.ClearPlanCache();
  // A's graph-scoped entry is gone; B's (a different graph) survives.
  EXPECT_EQ(cache->stats().entries, 1u);
  EXPECT_FALSE(a.Prepare(q).from_cache);
  EXPECT_TRUE(b.Prepare(q).from_cache);
}

TEST(ConcurrencyTest, SetGlogueDoesNotPoisonPeerEngine) {
  auto g = PaperGraph();
  auto cache = std::make_shared<SharedPreparedPlanCache>(64);
  EngineOptions opts;
  opts.plan_cache = cache;
  GOptEngine a(g.get(), BackendSpec::Neo4jLike(), opts);
  GOptEngine b(g.get(), BackendSpec::Neo4jLike(), opts);

  const std::string q = QueryShapes()[0];
  a.Run(q);
  ASSERT_TRUE(b.Prepare(q).from_cache);  // shared entry (same epoch 0)

  // A moves to fresh statistics: its epoch advances, so it replans...
  auto fresh = std::make_shared<Glogue>(Glogue::Build(*g));
  a.SetGlogue(fresh);
  EXPECT_FALSE(a.Prepare(q).from_cache);
  // ...and then hits its own new-epoch entry...
  EXPECT_TRUE(a.Prepare(q).from_cache);
  // ...while B keeps hitting the epoch-0 entry it shared with old-A.
  EXPECT_TRUE(b.Prepare(q).from_cache);

  // Engines given the SAME Glogue land on the same epoch and share again.
  b.SetGlogue(fresh);
  EXPECT_TRUE(b.Prepare(q).from_cache);
}

TEST(ConcurrencyTest, ConcurrentExecuteIsReentrant) {
  auto g = PaperGraph();
  GOptEngine engine(g.get(), BackendSpec::Neo4jLike());
  const GOptEngine::Prepared prep = engine.Prepare(QueryShapes()[3]);
  const size_t want = engine.Execute(prep).NumRows();

  std::atomic<size_t> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 16; ++i) {
        // One shared immutable Prepared, executed from every thread; each
        // call gets its own executor and its own ExecOutcome metrics.
        ExecOutcome out = engine.Execute(prep);
        if (out.NumRows() != want || out.ms < 0) wrong.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(wrong.load(), 0u);
}

TEST(ConcurrencyTest, ConcurrentRunOnDistributedBackend) {
  // Distributed plans run their per-partition stages on the engine's pool;
  // engine-level concurrency must compose with that nested parallelism.
  auto g = PaperGraph();
  GOptEngine engine(g.get(), BackendSpec::GraphScopeLike(2));
  const std::string q = QueryShapes()[0];
  const size_t want = engine.Run(q).NumRows();
  std::atomic<size_t> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 8; ++i) {
        if (engine.Run(q).NumRows() != want) wrong.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(wrong.load(), 0u);
}

TEST(ConcurrencyTest, ParallelCboRecordsPerPatternTimings) {
  auto g = PaperGraph();
  EngineOptions opts;
  // A pool of one thread besides the caller: the CBO plans the two
  // patterns on it.
  opts.exec_threads = 2;
  GOptEngine engine(g.get(), BackendSpec::Neo4jLike(), opts);
  // Two MATCH clauses stay two MATCH_PATTERN nodes (JoinToPattern cannot
  // merge patterns that share no vertex), so the CBO plans both.
  const std::string q =
      "MATCH (a:Person)-[:Knows]->(b:Person) "
      "MATCH (c:Person)-[:Purchases]->(p:Product) RETURN a, c";
  auto prep = engine.Prepare(q);
  ASSERT_TRUE(prep.trace != nullptr);
  ASSERT_EQ(prep.trace->cbo_patterns.size(), 2u);
  for (const auto& t : prep.trace->cbo_patterns) {
    EXPECT_GE(t.ms, 0.0);
    EXPECT_GT(t.vertices, 0u);
    EXPECT_GT(t.edges, 0u);
  }
  // The per-pattern lines surface in Explain via the planner trace.
  std::string explain = engine.Explain(prep);
  EXPECT_NE(explain.find("cbo per-pattern"), std::string::npos);
  EXPECT_NE(explain.find("pattern#0"), std::string::npos);
  EXPECT_NE(explain.find("pattern#1"), std::string::npos);

  // Same query on a default (poolless) engine plans every pattern inline:
  // identical plans, which is why exec_threads is fingerprint-excluded.
  GOptEngine sequential(g.get(), BackendSpec::Neo4jLike());
  auto sprep = sequential.Prepare(q);
  ASSERT_EQ(sprep.trace->cbo_patterns.size(), 2u);
  EXPECT_EQ(sprep.physical->ToString(g->schema()),
            prep.physical->ToString(g->schema()));
}

TEST(ConcurrencyTest, ExecOutcomeCarriesPerCallMetrics) {
  // The ExecOutcome is the only place execution metrics live (the old
  // engine-level last_* shims are gone): each call's numbers are its own.
  auto g = PaperGraph();
  GOptEngine engine(g.get(), BackendSpec::Neo4jLike());
  ExecOutcome out = engine.Run(QueryShapes()[0]);
  EXPECT_GT(out.stats.rows_produced, 0u);
  EXPECT_GE(out.ms, 0.0);
}

TEST(ConcurrencyTest, ExplainShowsCacheSection) {
  auto g = PaperGraph();
  GOptEngine engine(g.get(), BackendSpec::Neo4jLike());
  auto cold = engine.Prepare(QueryShapes()[0]);
  std::string explain = engine.Explain(cold);
  EXPECT_NE(explain.find("=== Cache ==="), std::string::npos);
  EXPECT_NE(explain.find("cold planning"), std::string::npos);
  EXPECT_NE(explain.find("private"), std::string::npos);
  EXPECT_NE(explain.find("misses"), std::string::npos);

  auto hit = engine.Prepare(QueryShapes()[0]);
  std::string explain2 = engine.Explain(hit);
  EXPECT_NE(explain2.find("plan cache hit"), std::string::npos);

  EngineOptions opts;
  opts.plan_cache = engine.plan_cache();
  GOptEngine peer(g.get(), BackendSpec::Neo4jLike(), opts);
  EXPECT_NE(peer.Explain(peer.Prepare(QueryShapes()[0]))
                .find("plan cache (shared)"),
            std::string::npos);
}

}  // namespace
}  // namespace gopt
