// The engine-owned worker pool and the runtimes built on it: WorkerPool's
// ParallelFor contract (every index once, the caller taking part, first
// exception rethrown, no deadlock under concurrent callers), kernel
// exceptions inside pool-dispatched distributed stages reaching Execute
// and ServingEngine futures without taking the process down, the absence
// of per-query thread starts (Linux: /proc/self/task), and concurrent
// Execute on one distributed engine matching the single-threaded run.
// CI runs this suite under ThreadSanitizer and ASan/UBSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#ifdef __linux__
#include <dirent.h>
#endif

#include "src/common/worker_pool.h"
#include "src/engine/engine.h"
#include "src/ldbc/ldbc.h"
#include "src/serve/serving.h"
#include "src/workloads/queries.h"

namespace gopt {
namespace {

// ---------------------------------------------------------------------------
// WorkerPool
// ---------------------------------------------------------------------------

TEST(WorkerPoolTest, RunsEveryIndexExactlyOnce) {
  for (int threads : {0, 1, 3}) {
    WorkerPool pool(threads);
    EXPECT_EQ(pool.threads(), threads);
    for (size_t n : {0, 1, 2, 7, 1000}) {
      std::vector<std::atomic<int>> hits(n);
      pool.ParallelFor(n, [&](size_t i) { hits[i]++; });
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "threads=" << threads << " n=" << n;
      }
    }
  }
}

TEST(WorkerPoolTest, NullPoolRunsInline) {
  const std::thread::id self = std::this_thread::get_id();
  int calls = 0;
  ParallelFor(nullptr, 5, [&](size_t) {
    EXPECT_EQ(std::this_thread::get_id(), self);
    ++calls;
  });
  EXPECT_EQ(calls, 5);
}

TEST(WorkerPoolTest, FirstExceptionReachesCallerAndPoolStaysUsable) {
  WorkerPool pool(3);
  std::atomic<int> ran{0};
  EXPECT_THROW(pool.ParallelFor(64,
                                [&](size_t i) {
                                  ran++;
                                  if (i % 8 == 3) {
                                    throw std::runtime_error("task failed");
                                  }
                                }),
               std::runtime_error);
  EXPECT_GE(ran.load(), 1);
  std::atomic<int> after{0};
  pool.ParallelFor(100, [&](size_t) { after++; });
  EXPECT_EQ(after.load(), 100);
}

TEST(WorkerPoolTest, ConcurrentCallersShareThePoolWithoutDeadlock) {
  // More callers than pool threads, each fanning out wider than the pool:
  // every caller must finish even when no worker is ever free for it.
  WorkerPool pool(2);
  std::atomic<uint64_t> sum{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < 4; ++c) {
    callers.emplace_back([&] {
      for (int round = 0; round < 200; ++round) {
        pool.ParallelFor(8, [&](size_t i) { sum += i; });
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(sum.load(), 4u * 200u * 28u);
}

// ---------------------------------------------------------------------------
// Runtimes on the engine's pool
// ---------------------------------------------------------------------------

class EnginePoolTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Large enough that the stages below exceed the inline threshold.
    ldbc_ = new LdbcGraph(GenerateLdbc(0.5, 123));
    glogue_ = new std::shared_ptr<const Glogue>(
        std::make_shared<Glogue>(Glogue::Build(*ldbc_->graph)));
  }
  static void TearDownTestSuite() {
    delete glogue_;
    delete ldbc_;
    ldbc_ = nullptr;
    glogue_ = nullptr;
  }

  static std::unique_ptr<GOptEngine> MakeDistEngine(int partitions) {
    EngineOptions opts;
    opts.partitions = partitions;
    auto e = std::make_unique<GOptEngine>(
        ldbc_->graph.get(), BackendSpec::GraphScopeLike(partitions), opts);
    e->SetGlogue(*glogue_);
    return e;
  }

  static std::unique_ptr<GOptEngine> MakeMorselEngine(int threads) {
    EngineOptions opts;
    opts.exec_threads = threads;
    auto e = std::make_unique<GOptEngine>(ldbc_->graph.get(),
                                          BackendSpec::Neo4jLike(), opts);
    e->SetGlogue(*glogue_);
    return e;
  }

  static std::string Q(const std::string& text) {
    return SubstituteParams(text, DefaultParams());
  }

  /// Two hops over KNOWS: both expansions run over more than
  /// DistributedExecutor::kInlineStageRows rows, so they are dispatched to
  /// the pool.
  static constexpr const char* kTwoHop =
      "MATCH (a:Person)-[:KNOWS]->(b:Person)-[:KNOWS]->(c:Person) "
      "RETURN a, c";

  static LdbcGraph* ldbc_;
  static std::shared_ptr<const Glogue>* glogue_;
};

LdbcGraph* EnginePoolTest::ldbc_ = nullptr;
std::shared_ptr<const Glogue>* EnginePoolTest::glogue_ = nullptr;

/// A physical plan whose hash join throws inside its per-partition build
/// (an output column the right input lacks), over inputs far larger than
/// the inline threshold.
Prepared FailingJoinPlan(const GOptEngine& engine) {
  auto scan = [] {
    auto op = std::make_shared<PhysOp>(PhysOpKind::kScanVertices);
    op->alias = "a";
    op->out_cols = {"a"};
    return op;
  };
  auto join = std::make_shared<PhysOp>(PhysOpKind::kHashJoin);
  join->children = {scan(), scan()};
  join->join_keys = {"a"};
  join->out_cols = {"a", "missing"};
  Prepared prep = engine.Prepare("MATCH (a:Person) RETURN a");
  prep.physical = join;
  prep.output_columns = join->out_cols;
  return prep;
}

TEST_F(EnginePoolTest, KernelThrowInPartitionTaskReachesExecuteCaller) {
  ASSERT_GE(ldbc_->graph->NumVertices(),
            DistributedExecutor::kInlineStageRows);
  for (int P : {2, 4}) {
    auto engine = MakeDistEngine(P);
    const ExecOutcome before = engine->Run(kTwoHop);
    const Prepared bad = FailingJoinPlan(*engine);
    for (int i = 0; i < 20; ++i) {
      try {
        engine->Execute(bad);
        FAIL() << "the join must throw";
      } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("missing"), std::string::npos);
      }
    }
    // The same engine (and its pool) still answers correctly.
    const ExecOutcome after = engine->Run(kTwoHop);
    EXPECT_EQ(after.table().rows, before.table().rows) << "P=" << P;
    EXPECT_EQ(after.stats.comm_rows, before.stats.comm_rows);
  }
}

TEST_F(EnginePoolTest, KernelThrowReachesServingFuture) {
  auto engine = MakeDistEngine(2);
  // Arithmetic on a string property throws in the projection stage, which
  // runs over every HAS_CREATOR edge.
  const std::string bad =
      "MATCH (m)-[:HAS_CREATOR]->(p:Person) RETURN p.firstName * 2 AS x";
  const std::string good =
      "MATCH (m)-[:HAS_CREATOR]->(p:Person) RETURN p.firstName AS x";
  const ExecOutcome expected = engine->Run(good);
  ASSERT_GE(expected.NumRows(), DistributedExecutor::kInlineStageRows);
  ServingOptions sopts;
  sopts.worker_threads = 2;
  ServingEngine serve(engine.get(), sopts);
  std::vector<std::future<ExecOutcome>> bad_futs;
  for (int i = 0; i < 8; ++i) bad_futs.push_back(serve.RunAsync(bad));
  for (auto& f : bad_futs) EXPECT_THROW(f.get(), std::runtime_error);
  const ExecOutcome after = serve.RunAsync(good).get();
  EXPECT_EQ(after.table().rows, expected.table().rows);
}

TEST_F(EnginePoolTest, ConcurrentExecuteMatchesSingleThreadedRun) {
  auto engine = MakeDistEngine(4);
  std::vector<std::string> queries = {kTwoHop};
  for (const auto* set : {&QcQueries(), &QrQueries()}) {
    for (const auto& wq : *set) queries.push_back(Q(wq.cypher));
  }
  queries.push_back(Q(IcQueries()[0].cypher));
  queries.push_back(Q(IcQueries()[5].cypher));
  std::vector<Prepared> preps;
  std::vector<ExecOutcome> reference;
  for (const auto& q : queries) {
    preps.push_back(engine->Prepare(q));
    reference.push_back(engine->Execute(preps.back()));
  }
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 3; ++round) {
        for (size_t i = 0; i < preps.size(); ++i) {
          // Each thread walks the queries from a different offset so
          // different plans overlap on the pool.
          const size_t qi = (i + static_cast<size_t>(t) * 3) % preps.size();
          const ExecOutcome got = engine->Execute(preps[qi]);
          const ExecOutcome& want = reference[qi];
          if (got.table().rows != want.table().rows ||
              got.stats.rows_produced != want.stats.rows_produced ||
              got.stats.comm_rows != want.stats.comm_rows ||
              got.stats.exchanges != want.stats.exchanges ||
              got.stats.partition_rows != want.stats.partition_rows) {
            mismatches++;
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

#ifdef __linux__
/// Entries of /proc/self/task: the process's live threads.
int CountThreads() {
  DIR* d = opendir("/proc/self/task");
  if (d == nullptr) return -1;
  int n = 0;
  while (dirent* e = readdir(d)) {
    if (e->d_name[0] != '.') ++n;
  }
  closedir(d);
  return n;
}

TEST_F(EnginePoolTest, QueriesStartNoThreads) {
  auto dist2 = MakeDistEngine(2);
  auto dist4 = MakeDistEngine(4);
  auto morsel = MakeMorselEngine(4);
  const Prepared p2 = dist2->Prepare(kTwoHop);
  const Prepared p4 = dist4->Prepare(kTwoHop);
  const Prepared pm = morsel->Prepare(kTwoHop);
  // Warm every path once (lazy statics, allocator arenas).
  ASSERT_GE(dist2->Execute(p2).NumRows(), DistributedExecutor::kInlineStageRows);
  dist4->Execute(p4);
  morsel->Execute(pm);

  // A sampler watches the count while the queries run, so a thread that is
  // started and joined within one query is caught too, not only a leak.
  std::atomic<bool> stop{false};
  std::atomic<int> peak{0};
  std::thread sampler([&] {
    while (!stop.load()) {
      const int n = CountThreads();
      int seen = peak.load();
      while (n > seen && !peak.compare_exchange_weak(seen, n)) {
      }
      std::this_thread::yield();
    }
  });
  const int base = CountThreads();
  ASSERT_GT(base, 0);
  for (int i = 0; i < 200; ++i) {
    dist2->Execute(p2);
    dist4->Execute(p4);
  }
  EXPECT_EQ(CountThreads(), base);
  for (int i = 0; i < 200; ++i) morsel->Execute(pm);
  EXPECT_EQ(CountThreads(), base);
  stop = true;
  sampler.join();
  EXPECT_EQ(peak.load(), base);
}
#endif  // __linux__

}  // namespace
}  // namespace gopt
