// Differential suite for the morsel-driven batch runtime: every bundled
// workload query runs through the batch runtime at exec_threads 1 and 4
// and must produce the same rows, and the one-worker runtime is held
// against the distributed executor's independent operator walker on the
// same plans; plus unit coverage for Batch row round-trips,
// selection-vector edge cases, pipeline decomposition, the work-stealing
// morsel queue, and ExecStats::rows_produced parity across runtimes.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "src/engine/engine.h"
#include "src/exec/morsel.h"
#include "src/exec/pipeline.h"
#include "src/ldbc/ldbc.h"
#include "src/workloads/queries.h"

namespace gopt {
namespace {

class BatchExecTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ldbc_ = new LdbcGraph(GenerateLdbc(0.05, 123));
    glogue_ = new std::shared_ptr<const Glogue>(
        std::make_shared<Glogue>(Glogue::Build(*ldbc_->graph)));
  }
  static void TearDownTestSuite() {
    delete glogue_;
    delete ldbc_;
    ldbc_ = nullptr;
    glogue_ = nullptr;
  }

  static std::string Q(const std::string& text) {
    return SubstituteParams(text, DefaultParams());
  }

  // GOptEngine is neither movable nor copyable (it owns mutexes), so the
  // factory hands back a unique_ptr.
  static std::unique_ptr<GOptEngine> MakeEngine(int exec_threads) {
    EngineOptions opts;
    opts.exec_threads = exec_threads;
    auto e = std::make_unique<GOptEngine>(ldbc_->graph.get(),
                                          BackendSpec::Neo4jLike(), opts);
    e->SetGlogue(*glogue_);
    return e;
  }

  static LdbcGraph* ldbc_;
  static std::shared_ptr<const Glogue>* glogue_;
};

LdbcGraph* BatchExecTest::ldbc_ = nullptr;
std::shared_ptr<const Glogue>* BatchExecTest::glogue_ = nullptr;

// ---------------------------------------------------------------------------
// Batch unit tests
// ---------------------------------------------------------------------------

Row MixedRow(int64_t i) {
  return Row{Value(VertexRef{static_cast<VertexId>(i)}), Value(i),
             Value(static_cast<double>(i) * 0.5), Value("s" + std::to_string(i)),
             Value::List({Value(i), Value(i + 1)})};
}

TEST(BatchTest, RowRoundTripIsLossless) {
  std::vector<Row> rows;
  for (int64_t i = 0; i < 10; ++i) rows.push_back(MixedRow(i));
  Batch b = Batch::FromRows(rows, 5);
  EXPECT_EQ(b.size(), 10u);
  EXPECT_EQ(b.num_cols(), 5u);
  std::vector<Row> back = b.ToRows();
  ASSERT_EQ(back.size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) EXPECT_EQ(back[i], rows[i]);
}

TEST(BatchTest, EmptyBatchRoundTrip) {
  Batch b = Batch::FromRows({}, 3);
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.size(), 0u);
  EXPECT_FALSE(b.has_selection());
  EXPECT_TRUE(b.ToRows().empty());
  b.Flatten();  // no-op without a selection
  EXPECT_EQ(b.num_cols(), 3u);
}

TEST(BatchTest, SelectionVectorFiltersAndReorders) {
  std::vector<Row> rows;
  for (int64_t i = 0; i < 6; ++i) rows.push_back(MixedRow(i));
  Batch b = Batch::FromRows(rows, 5);
  b.SetSelection({4, 1, 3});
  EXPECT_TRUE(b.has_selection());
  EXPECT_EQ(b.size(), 3u);
  EXPECT_EQ(b.num_phys_rows(), 6u);
  EXPECT_EQ(b.At(0, 1), Value(static_cast<int64_t>(4)));
  std::vector<Row> out = b.ToRows();
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], rows[4]);
  EXPECT_EQ(out[1], rows[1]);
  EXPECT_EQ(out[2], rows[3]);
  // Flatten compacts to the selected rows, same order, selection gone.
  b.Flatten();
  EXPECT_FALSE(b.has_selection());
  EXPECT_EQ(b.size(), 3u);
  EXPECT_EQ(b.num_phys_rows(), 3u);
  EXPECT_EQ(b.ToRows(), out);
}

TEST(BatchTest, AllFilteredBatchIsActiveEmptySelection) {
  std::vector<Row> rows = {MixedRow(0), MixedRow(1)};
  Batch b = Batch::FromRows(rows, 5);
  b.SetSelection({});  // every row filtered out
  EXPECT_TRUE(b.has_selection());
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.num_phys_rows(), 2u);  // physical rows still there...
  EXPECT_TRUE(b.ToRows().empty());   // ...but none active
  b.Flatten();
  EXPECT_EQ(b.num_phys_rows(), 0u);
}

TEST(BatchTest, BatchesFromRowsSplitsAtGranularity) {
  std::vector<Row> rows;
  for (int64_t i = 0; i < 10; ++i) rows.push_back(Row{Value(i)});
  std::vector<Batch> bs = BatchesFromRows(rows, 1, 4);
  ASSERT_EQ(bs.size(), 3u);
  EXPECT_EQ(bs[0].size(), 4u);
  EXPECT_EQ(bs[1].size(), 4u);
  EXPECT_EQ(bs[2].size(), 2u);
  EXPECT_EQ(TotalBatchRows(bs), 10u);
  EXPECT_EQ(RowsFromBatches(bs), rows);
}

// ---------------------------------------------------------------------------
// Morsel queue
// ---------------------------------------------------------------------------

TEST(MorselQueueTest, EveryMorselClaimedExactlyOnce) {
  constexpr size_t kTotal = 1000;
  constexpr int kWorkers = 4;
  MorselQueue q(kTotal, kWorkers);
  std::vector<std::atomic<int>> claimed(kTotal);
  for (auto& c : claimed) c.store(0);
  std::vector<std::thread> pool;
  for (int w = 0; w < kWorkers; ++w) {
    pool.emplace_back([&, w] {
      size_t idx;
      while (q.Next(w, &idx)) claimed[idx].fetch_add(1);
    });
  }
  for (auto& t : pool) t.join();
  for (size_t i = 0; i < kTotal; ++i) EXPECT_EQ(claimed[i].load(), 1) << i;
}

TEST(MorselQueueTest, EmptyQueueReturnsFalse) {
  MorselQueue q(0, 3);
  size_t idx;
  EXPECT_FALSE(q.Next(0, &idx));
  EXPECT_FALSE(q.Next(2, &idx));
}

// ---------------------------------------------------------------------------
// Pipeline decomposition
// ---------------------------------------------------------------------------

TEST_F(BatchExecTest, BreakersSplitPipelines) {
  auto engine = MakeEngine(4);
  auto prep = engine->Prepare(
      "MATCH (p:Person)-[:KNOWS]->(q:Person) "
      "RETURN p.id AS i, COUNT(q) AS c ORDER BY c DESC, i ASC");
  PipelinePlan plan = BuildPipelinePlan(prep.physical);
  ASSERT_GE(plan.pipelines.size(), 2u);
  // The root pipeline is last and materializes the plan root.
  EXPECT_EQ(plan.ProducerOf(prep.physical.get()),
            static_cast<int>(plan.pipelines.size()) - 1);
  // Some pipeline ends in the aggregate, a later one in the sort.
  bool saw_group = false, saw_order = false;
  for (const Pipeline& p : plan.pipelines) {
    if (p.sink->kind == PhysOpKind::kAggregate) saw_group = true;
    if (p.sink->kind == PhysOpKind::kOrder) {
      EXPECT_TRUE(saw_group) << "sort pipeline must follow the aggregate";
      saw_order = true;
    }
    for (int d : p.deps) EXPECT_LT(d, p.id) << "deps precede the pipeline";
  }
  EXPECT_TRUE(saw_group);
  EXPECT_TRUE(saw_order);
  EXPECT_NE(plan.ToString().find("=> Group"), std::string::npos)
      << plan.ToString();
}

TEST_F(BatchExecTest, JoinBuildSideIsADependencyPipeline) {
  auto engine = MakeEngine(4);
  auto prep = engine->Prepare(
      "MATCH (a:Person)-[:KNOWS]->(b:Person) WITH a, b "
      "MATCH (b)-[:HAS_INTEREST]->(t:Tag) RETURN a, t");
  PipelinePlan plan = BuildPipelinePlan(prep.physical);
  // Find a pipeline with a HashJoin probe stage; its build side must be
  // produced by an earlier pipeline it depends on.
  bool saw_probe = false;
  for (const Pipeline& p : plan.pipelines) {
    for (const PhysOp* op : p.ops) {
      if (op->kind != PhysOpKind::kHashJoin) continue;
      saw_probe = true;
      const int build = plan.ProducerOf(op->children[1].get());
      ASSERT_GE(build, 0);
      EXPECT_LT(build, p.id);
      bool dep_listed = false;
      for (int d : p.deps) dep_listed |= (d == build);
      EXPECT_TRUE(dep_listed);
    }
  }
  // The CBO may or may not pick a hash join for this shape; if it did,
  // the build-side contract above was checked. Either way the plan must
  // decompose and the Explain section must render.
  EXPECT_FALSE(plan.pipelines.empty());
  std::string explain = engine->Explain(prep);
  EXPECT_NE(explain.find("=== Pipelines (morsel runtime) ==="),
            std::string::npos);
  (void)saw_probe;
}

// ---------------------------------------------------------------------------
// Differential: every bundled workload at one and at four workers
// ---------------------------------------------------------------------------

void ExpectRuntimesAgree(GOptEngine& seq, GOptEngine& par,
                         const std::string& query, const std::string& name) {
  ExecOutcome a, b;
  ASSERT_NO_THROW(a = seq.Run(query)) << name << ": " << query;
  ASSERT_NO_THROW(b = par.Run(query)) << name << ": " << query;
  // The morsel runtime reassembles morsel outputs in source order, so
  // results are thread-count-invariant — including sort tie-breaks,
  // which makes SameRows safe even under ORDER/LIMIT.
  EXPECT_TRUE(a.SameRows(b)) << name << ": seq=" << a.NumRows()
                             << " morsel=" << b.NumRows();
  EXPECT_EQ(a.stats.rows_produced, b.stats.rows_produced)
      << name << ": rows_produced parity";
}

TEST_F(BatchExecTest, DifferentialAllWorkloadsFourThreads) {
  auto seq = MakeEngine(1);
  auto par = MakeEngine(4);
  for (const auto* set : {&IcQueries(), &BiQueries(), &QrQueries(),
                          &QtQueries(), &QcQueries()}) {
    for (const auto& wq : *set) {
      ExpectRuntimesAgree(*seq, *par, Q(wq.cypher), wq.name);
    }
  }
}

TEST_F(BatchExecTest, DifferentialMorselSingleThread) {
  // The engine's default path is the morsel runtime at one worker. Hold
  // it against an independent operator walker — the distributed executor
  // on a one-partition store, which visits rows in the same source order,
  // so ORDER / LIMIT tie-breaks agree too — on the very plans the engine
  // runs.
  auto seq = MakeEngine(1);
  const auto one = PartitionedGraph::Build(ldbc_->graph.get(),
                                           PartitionPolicy::kHash, 1);
  for (const auto* set : {&QcQueries(), &QrQueries()}) {
    for (const auto& wq : *set) {
      auto prep = seq->Prepare(Q(wq.cypher));
      ASSERT_FALSE(prep.invalid) << wq.name;
      ParamMap bound = prep.params;

      DistributedExecutor dist(ldbc_->graph.get(), *one);
      dist.set_params(&bound);
      ResultTable want = dist.Execute(prep.physical);

      MorselOptions mopts;
      mopts.threads = 1;
      MorselExecutor batch_ex(ldbc_->graph.get(), mopts);
      batch_ex.set_params(&bound);
      ResultTable got = batch_ex.Execute(prep.physical);

      EXPECT_TRUE(want.SameRows(got))
          << wq.name << ": dist=" << want.NumRows()
          << " batch=" << got.NumRows();
      EXPECT_EQ(dist.stats().rows_produced, batch_ex.stats().rows_produced)
          << wq.name << ": rows_produced parity (dist vs batch)";
    }
  }
}

TEST_F(BatchExecTest, DifferentialStPathQuery) {
  auto fraud = GenerateFraud(2000, 4.0, 9);
  EngineOptions seq_opts;
  GOptEngine seq(fraud.graph.get(), BackendSpec::Neo4jLike(), seq_opts);
  EngineOptions par_opts;
  par_opts.exec_threads = 4;
  GOptEngine par(fraud.graph.get(), BackendSpec::Neo4jLike(), par_opts);
  std::string q = StQuery(4, {1, 2, 3}, {10, 11});
  ExecOutcome a = seq.Run(q);
  ExecOutcome b = par.Run(q);
  EXPECT_TRUE(a.SameRows(b));
  EXPECT_EQ(a.stats.rows_produced, b.stats.rows_produced);
}

TEST_F(BatchExecTest, MorselRuntimeRunsExpandIntersectPlans) {
  // Plans lowered for the GraphScope-like backend may contain WCOJ
  // ExpandIntersect steps (the Neo4j-like backend never gets them: its
  // physical conversion only emits ExpandInto). The morsel runtime
  // implements the full repertoire — compare it against the distributed
  // executor on those very plans.
  GOptEngine gs(ldbc_->graph.get(), BackendSpec::GraphScopeLike(4));
  gs.SetGlogue(*glogue_);
  const auto store = gs.partitioned_store();
  WorkerPool pool(3);
  for (const auto& wq : QcQueries()) {
    auto prep = gs.Prepare(Q(wq.cypher));
    ASSERT_FALSE(prep.invalid) << wq.name;
    ParamMap bound = prep.params;

    DistributedExecutor dist(ldbc_->graph.get(), *store, &pool);
    dist.set_params(&bound);
    ResultTable want = dist.Execute(prep.physical);

    MorselOptions mopts;
    mopts.threads = 4;
    MorselExecutor batch_ex(ldbc_->graph.get(), mopts, nullptr, &pool);
    batch_ex.set_params(&bound);
    ResultTable got = batch_ex.Execute(prep.physical);

    EXPECT_TRUE(want.SameRows(got))
        << wq.name << ": dist=" << want.NumRows()
        << " batch=" << got.NumRows();
    EXPECT_EQ(dist.stats().rows_produced, batch_ex.stats().rows_produced)
        << wq.name << ": rows_produced parity (dist vs batch)";
  }
}

// ---------------------------------------------------------------------------
// Edge cases and execution metrics
// ---------------------------------------------------------------------------

TEST_F(BatchExecTest, AllFilteredQueryIsEmptyOnBothRuntimes) {
  auto seq = MakeEngine(1);
  auto par = MakeEngine(4);
  const std::string q = "MATCH (p:Person) WHERE p.id < 0 RETURN p";
  ExecOutcome a = seq->Run(q);
  ExecOutcome b = par->Run(q);
  EXPECT_EQ(a.NumRows(), 0u);
  EXPECT_EQ(b.NumRows(), 0u);
  EXPECT_TRUE(a.SameRows(b));
}

TEST_F(BatchExecTest, KeylessAggregateOverEmptyInputYieldsOneRow) {
  auto seq = MakeEngine(1);
  auto par = MakeEngine(4);
  const std::string q =
      "MATCH (p:Person) WHERE p.id < 0 RETURN COUNT(p) AS c";
  ExecOutcome a = seq->Run(q);
  ExecOutcome b = par->Run(q);
  ASSERT_EQ(a.NumRows(), 1u);
  ASSERT_EQ(b.NumRows(), 1u);
  EXPECT_TRUE(a.SameRows(b));
}

TEST_F(BatchExecTest, OutcomeCarriesPipelineStats) {
  auto par = MakeEngine(4);
  auto prep = par->Prepare("MATCH (p:Person)-[:KNOWS]->(q:Person) RETURN q");
  ExecOutcome out = par->Execute(prep);
  ASSERT_FALSE(out.stats.pipelines.empty());
  uint64_t morsels = 0;
  for (const auto& p : out.stats.pipelines) morsels += p.morsels;
  EXPECT_GT(morsels, 0u);
  EXPECT_EQ(out.stats.pipelines.back().rows_out, out.NumRows());
  std::string explain = par->Explain(prep, out);
  EXPECT_NE(explain.find("=== Execution ==="), std::string::npos);
  EXPECT_NE(explain.find("morsels"), std::string::npos);

  // The default one-worker engine runs the same runtime and reports its
  // pipelines too, each run by the one worker.
  auto seq = MakeEngine(1);
  ExecOutcome seq_out = seq->Run("MATCH (p:Person) RETURN p");
  ASSERT_FALSE(seq_out.stats.pipelines.empty());
  for (const auto& p : seq_out.stats.pipelines) EXPECT_EQ(p.threads, 1);
  EXPECT_EQ(seq_out.stats.pipelines.back().rows_out, seq_out.NumRows());
}

TEST_F(BatchExecTest, AutoThreadCountIsHardwareSized) {
  MorselOptions mopts;
  mopts.threads = 0;
  MorselExecutor ex(ldbc_->graph.get(), mopts);
  EXPECT_GE(ex.threads(), 1);
}

}  // namespace
}  // namespace gopt
