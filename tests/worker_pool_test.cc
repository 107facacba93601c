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
#include <chrono>
#include <new>
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

  // An allocation failure on a pool thread reaches the caller with its
  // type intact. The caller's own index waits until a pool thread has
  // thrown, so the throw is certain to happen off the calling thread.
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> thrown{false};
  EXPECT_THROW(
      pool.ParallelFor(64,
                       [&](size_t) {
                         if (std::this_thread::get_id() != caller) {
                           if (!thrown.exchange(true)) throw std::bad_alloc();
                           return;
                         }
                         const auto deadline = std::chrono::steady_clock::now() +
                                               std::chrono::seconds(30);
                         while (!thrown.load() &&
                                std::chrono::steady_clock::now() < deadline) {
                           std::this_thread::yield();
                         }
                       }),
      std::bad_alloc);
  EXPECT_TRUE(thrown.load());
  after = 0;
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

  /// Two hops over KNOWS, with an exchange between them on the
  /// distributed backend; its result holds more than
  /// MorselExecutor::kInlineStageRows rows.
  static constexpr const char* kTwoHop =
      "MATCH (a:Person)-[:KNOWS]->(b:Person)-[:KNOWS]->(c:Person) "
      "RETURN a, c";

  /// Every message, projected: a pipeline whose scan source holds more
  /// than MorselExecutor::kInlineStageRows rows, so it runs on the pool.
  static constexpr const char* kMessages =
      "MATCH (m:Post|Comment) RETURN m.browserUsed AS x";

  /// Some pipeline of the run had more than one worker slot.
  static bool RanOnPool(const ExecOutcome& out) {
    for (const PipelineStat& p : out.stats.pipelines) {
      if (p.threads > 1) return true;
    }
    return false;
  }

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
  // The replaced plan's pipeline decomposition no longer applies: Execute
  // decomposes the new root itself.
  prep.exec_pipelines.reset();
  return prep;
}

TEST_F(EnginePoolTest, KernelThrowInPartitionTaskReachesExecuteCaller) {
  ASSERT_GE(ldbc_->graph->NumVertices(),
            MorselExecutor::kInlineStageRows);
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
  // Arithmetic on a string property throws in the projection, which runs
  // in the pool-dispatched pipeline over every message.
  const std::string bad = "MATCH (m:Post|Comment) RETURN m.browserUsed * 2 AS x";
  const std::string good = kMessages;
  const ExecOutcome expected = engine->Run(good);
  ASSERT_GE(expected.NumRows(), MorselExecutor::kInlineStageRows);
  ASSERT_TRUE(RanOnPool(expected));
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

/// The thread count once it equals `want`, or after 5 s, whichever comes
/// first: a joined thread can stay listed for a moment after its join
/// returns.
int ThreadCountSettledAt(int want) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  int n = CountThreads();
  while (n != want && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    n = CountThreads();
  }
  return n;
}

/// Watches the process's thread count from its own thread, so a thread
/// that is started and joined between two reads of the count is caught
/// too, not only a leak. The sampler thread itself is part of the count.
class ThreadPeakSampler {
 public:
  ThreadPeakSampler()
      : sampler_([this] {
          while (!stop_.load()) {
            const int n = CountThreads();
            int seen = peak_.load();
            while (n > seen && !peak_.compare_exchange_weak(seen, n)) {
            }
            std::this_thread::yield();
          }
        }) {}
  /// Stops sampling and returns the highest count seen.
  int Peak() {
    stop_ = true;
    if (sampler_.joinable()) sampler_.join();
    return peak_.load();
  }
  ~ThreadPeakSampler() { Peak(); }

 private:
  std::atomic<bool> stop_{false};
  std::atomic<int> peak_{0};
  std::thread sampler_;
};

TEST_F(EnginePoolTest, QueriesStartNoThreads) {
  auto dist2 = MakeDistEngine(2);
  auto dist4 = MakeDistEngine(4);
  auto morsel = MakeMorselEngine(4);
  const Prepared p2 = dist2->Prepare(kTwoHop);
  const Prepared p4 = dist4->Prepare(kTwoHop);
  const Prepared pm = morsel->Prepare(kTwoHop);
  const Prepared s2 = dist2->Prepare(kMessages);
  const Prepared s4 = dist4->Prepare(kMessages);
  // Warm every path once (lazy statics, allocator arenas).
  ASSERT_GE(dist2->Execute(p2).NumRows(), MorselExecutor::kInlineStageRows);
  dist4->Execute(p4);
  morsel->Execute(pm);
  ASSERT_TRUE(RanOnPool(dist2->Execute(s2)));
  ASSERT_TRUE(RanOnPool(dist4->Execute(s4)));

  ThreadPeakSampler sampler;
  const int base = CountThreads();
  ASSERT_GT(base, 0);
  for (int i = 0; i < 200; ++i) {
    dist2->Execute(p2);
    dist4->Execute(p4);
    dist2->Execute(s2);
    dist4->Execute(s4);
  }
  EXPECT_EQ(CountThreads(), base);
  for (int i = 0; i < 200; ++i) morsel->Execute(pm);
  EXPECT_EQ(CountThreads(), base);
  EXPECT_EQ(sampler.Peak(), base);
}

TEST_F(EnginePoolTest, PlanningStartsNoThreads) {
  // Two triangles that share no vertex stay two MATCH_PATTERN nodes, so
  // the CBO plans two 3-edge patterns per Prepare. The plan cache is off:
  // every Prepare plans cold.
  const std::string q =
      "MATCH (a:Person)-[:KNOWS]->(b:Person)-[:KNOWS]->(c:Person), "
      "(a)-[:KNOWS]->(c) "
      "MATCH (x:Person)-[:KNOWS]->(y:Person)-[:KNOWS]->(z:Person), "
      "(x)-[:KNOWS]->(z) RETURN COUNT(*) AS n";
  EngineOptions opts;
  opts.enable_plan_cache = false;
  GOptEngine seq(ldbc_->graph.get(), BackendSpec::Neo4jLike(), opts);
  opts.exec_threads = 4;
  GOptEngine par(ldbc_->graph.get(), BackendSpec::Neo4jLike(), opts);
  for (GOptEngine* e : {&seq, &par}) e->SetGlogue(*glogue_);
  const Prepared ps = seq.Prepare(q);
  const Prepared pp = par.Prepare(q);
  ASSERT_EQ(ps.trace->cbo_patterns.size(), 2u);
  ASSERT_EQ(pp.trace->cbo_patterns.size(), 2u);
  for (const auto& t : pp.trace->cbo_patterns) EXPECT_EQ(t.edges, 3u);
  EXPECT_EQ(ps.physical->ToString(ldbc_->graph->schema()),
            pp.physical->ToString(ldbc_->graph->schema()));

  ThreadPeakSampler sampler;
  const int base = CountThreads();
  ASSERT_GT(base, 0);
  for (int i = 0; i < 200; ++i) {
    EXPECT_FALSE(seq.Prepare(q).from_cache);
    EXPECT_FALSE(par.Prepare(q).from_cache);
  }
  EXPECT_EQ(CountThreads(), base);
  EXPECT_EQ(sampler.Peak(), base);
}

TEST_F(EnginePoolTest, AutoExecThreadsSizePoolToHardware) {
  // exec_threads = 0 sizes the engine's pool to the hardware: one thread
  // per hardware thread beyond the caller's own, started at construction.
  const int hw = static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()));
  const int base = CountThreads();
  ASSERT_GT(base, 0);
  EngineOptions opts;
  opts.exec_threads = 0;
  auto engine = std::make_unique<GOptEngine>(ldbc_->graph.get(),
                                             BackendSpec::Neo4jLike(), opts);
  EXPECT_EQ(ThreadCountSettledAt(base + hw - 1), base + hw - 1);
  engine.reset();
  EXPECT_EQ(ThreadCountSettledAt(base), base);
}
#endif  // __linux__

}  // namespace
}  // namespace gopt
