// Differential and unit suite for factorized intermediate batches
// (docs/factorization.md): the factorized Batch representation (group
// columns, run-length mapping, lazy multiplicity-only groups, flatten),
// the group-aware kernels (filter on group columns, run-at-a-time
// aggregation), the per-pipeline chooser, and — the core contract —
// identical ResultTables for every bundled workload across
// factorization {off, on, auto} x exec_threads {1, 4} x partitions
// {0, 4}, with rows_produced parity (logical bindings, not group
// entries) held across single-machine and distributed pipeline plans.
#include <gtest/gtest.h>

#include "src/engine/engine.h"
#include "src/exec/kernels.h"
#include "src/exec/morsel.h"
#include "src/exec/pipeline.h"
#include "src/ldbc/ldbc.h"
#include "src/opt/factorization.h"
#include "src/workloads/queries.h"
#include "tests/batch_rows.h"

namespace gopt {
namespace {

class FactorizedExecTest : public ::testing::Test {
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

  static std::unique_ptr<GOptEngine> MakeEngine(FactorizationMode mode,
                                                int exec_threads = 1,
                                                int partitions = 0) {
    EngineOptions opts;
    opts.factorization = mode;
    opts.exec_threads = exec_threads;
    opts.partitions = partitions;
    auto e = std::make_unique<GOptEngine>(ldbc_->graph.get(),
                                          BackendSpec::Neo4jLike(), opts);
    e->SetGlogue(*glogue_);
    return e;
  }

  static LdbcGraph* ldbc_;
  static std::shared_ptr<const Glogue>* glogue_;
};

LdbcGraph* FactorizedExecTest::ldbc_ = nullptr;
std::shared_ptr<const Glogue>* FactorizedExecTest::glogue_ = nullptr;

// ---------------------------------------------------------------------------
// Factorized Batch unit tests
// ---------------------------------------------------------------------------

/// Two groups sharing column 0 (the prefix) with per-row column 1:
/// logical rows (10,1) (10,2) (10,3) (20,4) (20,5).
Batch MakeFactorized() {
  Batch b(2);
  b.InitFactorized({1, 0});
  b.gcol(0).push_back(Value(static_cast<int64_t>(10)));
  for (int64_t v : {1, 2, 3}) b.col(1).push_back(Value(v));
  b.CloseGroup(3);
  b.gcol(0).push_back(Value(static_cast<int64_t>(20)));
  for (int64_t v : {4, 5}) b.col(1).push_back(Value(v));
  b.CloseGroup(2);
  return b;
}

std::vector<Row> ExpectedFlat() {
  return {{Value(static_cast<int64_t>(10)), Value(static_cast<int64_t>(1))},
          {Value(static_cast<int64_t>(10)), Value(static_cast<int64_t>(2))},
          {Value(static_cast<int64_t>(10)), Value(static_cast<int64_t>(3))},
          {Value(static_cast<int64_t>(20)), Value(static_cast<int64_t>(4))},
          {Value(static_cast<int64_t>(20)), Value(static_cast<int64_t>(5))}};
}

TEST(FactorizedBatchTest, GroupColumnsResolveTransparently) {
  Batch b = MakeFactorized();
  EXPECT_TRUE(b.factorized());
  EXPECT_EQ(b.num_groups(), 2u);
  EXPECT_EQ(b.size(), 5u);
  EXPECT_EQ(b.num_phys_rows(), 5u);
  EXPECT_TRUE(b.col_is_group(0));
  EXPECT_FALSE(b.col_is_group(1));
  EXPECT_EQ(b.GroupOf(0), 0u);
  EXPECT_EQ(b.GroupOf(2), 0u);
  EXPECT_EQ(b.GroupOf(3), 1u);
  EXPECT_EQ(b.GroupOf(4), 1u);
  // At/GatherRow/ToRows see logical rows, groups expanded on the fly.
  EXPECT_EQ(b.At(1, 0), Value(static_cast<int64_t>(10)));
  EXPECT_EQ(b.At(4, 0), Value(static_cast<int64_t>(20)));
  EXPECT_EQ(b.At(4, 1), Value(static_cast<int64_t>(5)));
  EXPECT_EQ(b.ToRows(), ExpectedFlat());
  // Stored: 2 group entries + 5 flat entries, representing 5 logical rows.
  EXPECT_EQ(b.materialized_tuples(), 7u);
  EXPECT_EQ(b.materialized_cells(), 7u);
}

TEST(FactorizedBatchTest, FlattenGroupsExpandsInPlace) {
  Batch b = MakeFactorized();
  b.FlattenGroups();
  EXPECT_FALSE(b.factorized());
  EXPECT_EQ(b.num_groups(), 0u);
  EXPECT_EQ(b.ToRows(), ExpectedFlat());
  EXPECT_EQ(b.materialized_tuples(), 5u);
  b.FlattenGroups();  // idempotent no-op on flat batches
  EXPECT_EQ(b.ToRows(), ExpectedFlat());
}

TEST(FactorizedBatchTest, SelectionOverGroupsAndFlatten) {
  Batch b = MakeFactorized();
  b.SetSelection({1, 3, 4});
  EXPECT_EQ(b.size(), 3u);
  std::vector<Row> expect = {ExpectedFlat()[1], ExpectedFlat()[3],
                             ExpectedFlat()[4]};
  EXPECT_EQ(b.ToRows(), expect);
  // Flatten compacts selection and groups in one pass.
  b.Flatten();
  EXPECT_FALSE(b.factorized());
  EXPECT_FALSE(b.has_selection());
  EXPECT_EQ(b.ToRows(), expect);
}

TEST(FactorizedBatchTest, EmptyFactorizedBatch) {
  Batch b(2);
  b.InitFactorized({1, 0});
  EXPECT_TRUE(b.factorized());
  EXPECT_EQ(b.size(), 0u);
  EXPECT_EQ(b.num_groups(), 0u);
  EXPECT_TRUE(b.ToRows().empty());
  EXPECT_EQ(b.materialized_tuples(), 0u);
  b.Flatten();
  EXPECT_FALSE(b.factorized());
  EXPECT_EQ(b.size(), 0u);
}

TEST(FactorizedBatchTest, AllFilteredFactorizedBatch) {
  Batch b = MakeFactorized();
  b.SetSelection({});
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.num_phys_rows(), 5u);
  EXPECT_TRUE(b.ToRows().empty());
  b.Flatten();
  EXPECT_EQ(b.num_phys_rows(), 0u);
  EXPECT_FALSE(b.factorized());
}

TEST(FactorizedBatchTest, LazyGroupsCarryMultiplicityOnly) {
  // Every column group-backed: runs encode pure multiplicity (the shape a
  // lazy expansion under a COUNT sink emits).
  Batch b(2);
  b.InitFactorized({1, 1});
  b.gcol(0).push_back(Value(static_cast<int64_t>(7)));
  b.gcol(1).push_back(Value());  // elided (dead downstream)
  b.CloseGroup(4);
  EXPECT_EQ(b.size(), 4u);
  EXPECT_EQ(b.num_groups(), 1u);
  EXPECT_EQ(b.materialized_tuples(), 1u);
  Row r;
  b.GatherRow(3, &r);
  EXPECT_EQ(r[0], Value(static_cast<int64_t>(7)));
  EXPECT_TRUE(r[1].is_null());
}

TEST(FactorizedBatchTest, GatherPhysExpandsGroups) {
  Batch b = MakeFactorized();
  Batch dense = b.GatherPhys({0, 2, 4});
  EXPECT_FALSE(dense.factorized());
  std::vector<Row> expect = {ExpectedFlat()[0], ExpectedFlat()[2],
                             ExpectedFlat()[4]};
  EXPECT_EQ(dense.ToRows(), expect);
}

// Satellite fix: Flatten without a selection (or with the identity
// selection) must not rewrite columns.
TEST(FactorizedBatchTest, FlattenIsNoOpWithoutSelection) {
  std::vector<Row> rows = ExpectedFlat();
  Batch b = BatchFromRows(rows, 2);
  const Value* before = b.col(0).data();
  b.Flatten();
  EXPECT_EQ(b.col(0).data(), before) << "no selection: columns untouched";

  b.SetSelection({0, 1, 2, 3, 4});  // identity permutation
  b.Flatten();
  EXPECT_EQ(b.col(0).data(), before) << "identity selection: only dropped";
  EXPECT_FALSE(b.has_selection());
  EXPECT_EQ(b.ToRows(), rows);

  b.SetSelection({4, 0});  // genuine reorder still compacts
  b.Flatten();
  EXPECT_EQ(b.size(), 2u);
  EXPECT_EQ(b.ToRows(), (std::vector<Row>{rows[4], rows[0]}));
}

// ---------------------------------------------------------------------------
// Group-aware kernels
// ---------------------------------------------------------------------------

PhysOpPtr MakeLayout(std::vector<std::string> cols) {
  auto op = std::make_shared<PhysOp>(PhysOpKind::kScanVertices);
  op->out_cols = std::move(cols);
  return op;
}

TEST_F(FactorizedExecTest, FilterOnGroupColumnMatchesFlat) {
  Kernels k(ldbc_->graph.get());
  PhysOp sel(PhysOpKind::kSelect);
  sel.children = {MakeLayout({"a", "b"})};
  sel.out_cols = sel.children[0]->out_cols;
  // a != 10 touches only the group column: evaluated once per group.
  sel.predicate = Expr::MakeBinary(BinOp::kNe, Expr::MakeVar("a"),
                                   Expr::MakeLiteral(Value(static_cast<int64_t>(10))));

  Batch fact = MakeFactorized();
  Batch flat = MakeFactorized();
  flat.FlattenGroups();
  EXPECT_EQ(k.FilterSelection(sel, fact), k.FilterSelection(sel, flat));
  EXPECT_EQ(k.FilterSelection(sel, fact),
            (std::vector<uint32_t>{3, 4}));

  // A predicate over the per-row column falls back to the row loop and
  // still agrees.
  sel.predicate = Expr::MakeBinary(BinOp::kLt, Expr::MakeVar("b"),
                                   Expr::MakeLiteral(Value(static_cast<int64_t>(3))));
  EXPECT_EQ(k.FilterSelection(sel, fact), k.FilterSelection(sel, flat));
}

TEST_F(FactorizedExecTest, AggregateRunwiseMatchesFlattenedInput) {
  Kernels k(ldbc_->graph.get());
  PhysOp agg(PhysOpKind::kAggregate);
  agg.children = {MakeLayout({"a", "b"})};
  agg.group_keys.push_back({Expr::MakeVar("a"), "a"});
  agg.aggs.push_back({AggFunc::kCount, nullptr, "n"});
  agg.aggs.push_back({AggFunc::kSum, Expr::MakeVar("a"), "s"});
  agg.out_cols = {"a", "n", "s"};

  std::vector<Batch> fact;
  fact.push_back(MakeFactorized());
  // The same batches flattened first: Aggregate sees no groups and takes
  // the per-row path.
  std::vector<Batch> flat = fact;
  for (Batch& b : flat) b.FlattenGroups();
  ASSERT_FALSE(flat[0].factorized());
  // Keys and args read only the group column: consumed run-at-a-time
  // without expansion; result must still match the flat row loop exactly,
  // including group order.
  const std::vector<Row> viaRows = k.Aggregate(agg, flat).ToRows();
  EXPECT_EQ(k.Aggregate(agg, fact).ToRows(), viaRows);
  EXPECT_EQ(viaRows,
            (std::vector<Row>{{Value(static_cast<int64_t>(10)),
                               Value(static_cast<int64_t>(3)),
                               Value(static_cast<int64_t>(30))},
                              {Value(static_cast<int64_t>(20)),
                               Value(static_cast<int64_t>(2)),
                               Value(static_cast<int64_t>(40))}}));

  // A per-row argument forces the row-at-a-time fallback — same result.
  agg.aggs.push_back({AggFunc::kMax, Expr::MakeVar("b"), "m"});
  agg.out_cols = {"a", "n", "s", "m"};
  EXPECT_EQ(k.Aggregate(agg, fact).ToRows(), k.Aggregate(agg, flat).ToRows());

  // Keyless aggregate over an empty factorized batch still yields one row.
  PhysOp global(PhysOpKind::kAggregate);
  global.children = {MakeLayout({"a", "b"})};
  global.aggs.push_back({AggFunc::kCount, nullptr, "n"});
  global.out_cols = {"n"};
  std::vector<Batch> empty;
  empty.emplace_back(2);
  empty.back().InitFactorized({1, 1});
  const std::vector<Row> out = k.Aggregate(global, empty).ToRows();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0][0], Value(static_cast<int64_t>(0)));
}

// ---------------------------------------------------------------------------
// Per-pipeline chooser
// ---------------------------------------------------------------------------

TEST_F(FactorizedExecTest, ChooserModesAndLazyLiveness) {
  auto engine = MakeEngine(FactorizationMode::kAuto);
  auto prep = engine->Prepare(
      "MATCH (a:Person)-[:KNOWS]->(b:Person)-[:KNOWS]->(c:Person) "
      "RETURN COUNT(*) AS n");
  ASSERT_TRUE(prep.physical);

  PipelinePlan off = BuildPipelinePlan(prep.physical);
  ChooseFactorization(&off, FactorizationMode::kOff);
  for (const Pipeline& p : off.pipelines) {
    EXPECT_FALSE(p.factorized);
    EXPECT_TRUE(p.lazy_ops.empty());
  }

  PipelinePlan on = BuildPipelinePlan(prep.physical);
  ChooseFactorization(&on, FactorizationMode::kOn);
  bool saw_factorized = false, saw_lazy = false;
  for (const Pipeline& p : on.pipelines) {
    if (!p.factorized) continue;
    saw_factorized = true;
    for (uint8_t l : p.lazy_ops) saw_lazy = saw_lazy || l != 0;
  }
  EXPECT_TRUE(saw_factorized) << on.ToString();
  // Under a COUNT(*) sink the liveness walk proves some expansion's
  // columns dead, so at least one op runs multiplicity-only.
  EXPECT_TRUE(saw_lazy) << on.ToString();

  // Auto picks the multi-hop chain up as well (fan-out or lazy gain).
  PipelinePlan aut = BuildPipelinePlan(prep.physical);
  ChooseFactorization(&aut, FactorizationMode::kAuto);
  bool auto_factorized = false;
  for (const Pipeline& p : aut.pipelines) auto_factorized |= p.factorized;
  EXPECT_TRUE(auto_factorized) << aut.ToString();

  // A row-needing breaker (ORDER) marks a forced flatten point.
  auto prep2 = engine->Prepare(Q(
      "MATCH (a:Person)-[:KNOWS]->(b:Person)-[:KNOWS]->(c:Person) "
      "RETURN a.id AS i, c.id AS j ORDER BY i ASC, j ASC LIMIT 20"));
  ASSERT_TRUE(prep2.physical);
  PipelinePlan plan2 = BuildPipelinePlan(prep2.physical);
  ChooseFactorization(&plan2, FactorizationMode::kOn);
  bool saw_flatten = false;
  for (const Pipeline& p : plan2.pipelines) {
    saw_flatten = saw_flatten || (p.factorized && p.flatten_points > 0);
    // No aggregate sink anywhere: nothing is provably dead, so no lazy op.
    for (uint8_t l : p.lazy_ops) EXPECT_EQ(l, 0);
  }
  EXPECT_TRUE(saw_flatten) << plan2.ToString();
}

TEST_F(FactorizedExecTest, AutoKeepsAggregateOverExpandedColumnFlat) {
  // A pipeline whose lone expansion feeds an aggregate: groups pay only
  // when the aggregate reads none of the columns the expansion produces.
  // COUNT(m) reads the expanded m, so kAuto keeps the pipeline flat rather
  // than gather every group back into rows; COUNT(*) leaves m dead, so the
  // expansion goes lazy and the pipeline factorizes.
  auto aut = MakeEngine(FactorizationMode::kAuto);
  auto off = MakeEngine(FactorizationMode::kOff);
  for (const bool count_star : {false, true}) {
    const std::string q =
        std::string("MATCH (t:Tag)<-[:HAS_TAG]-(m:Post|Comment) "
                    "RETURN t.name AS tag, ") +
        (count_star ? "COUNT(*)" : "COUNT(m)") + " AS n";
    const Prepared prep = aut->Prepare(q);
    ASSERT_TRUE(prep.exec_pipelines != nullptr);
    const Pipeline* agg = nullptr;
    for (const Pipeline& p : prep.exec_pipelines->pipelines) {
      if (p.sink_is_breaker() && p.sink->kind == PhysOpKind::kAggregate) {
        agg = &p;
      }
    }
    ASSERT_NE(agg, nullptr) << prep.exec_pipelines->ToString();
    ASSERT_FALSE(agg->ops.empty());
    ASSERT_EQ(agg->ops.front()->kind, PhysOpKind::kExpandEdge);
    ASSERT_EQ(agg->ops.front()->alias, "m");
    if (!count_star) {
      // The shape under test: Scan(t) -> Expand(m) => Aggregate.
      ASSERT_EQ(agg->ops.size(), 1u) << prep.exec_pipelines->ToString();
    }
    EXPECT_EQ(agg->factorized, count_star) << prep.exec_pipelines->ToString();
    const ExecOutcome got = aut->Execute(prep);
    const ExecOutcome want = off->Run(q);
    EXPECT_TRUE(got.SameRows(want)) << q;
    EXPECT_EQ(got.stats.rows_produced, want.stats.rows_produced) << q;
  }
}

// ---------------------------------------------------------------------------
// Lazy-flatten correctness at every breaker kind
// ---------------------------------------------------------------------------

void ExpectModesAgree(GOptEngine& off, GOptEngine& on,
                      const std::string& query, const std::string& name) {
  ExecOutcome a, b;
  ASSERT_NO_THROW(a = off.Run(query)) << name << ": " << query;
  ASSERT_NO_THROW(b = on.Run(query)) << name << ": " << query;
  EXPECT_TRUE(a.SameRows(b)) << name << ": off=" << a.NumRows()
                             << " on=" << b.NumRows();
  EXPECT_EQ(a.stats.rows_produced, b.stats.rows_produced)
      << name << ": rows_produced must count logical bindings";
}

TEST_F(FactorizedExecTest, EveryBreakerKindFlattensCorrectly) {
  auto off = MakeEngine(FactorizationMode::kOff, 2);
  auto on = MakeEngine(FactorizationMode::kOn, 2);
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"agg-count",
       "MATCH (a:Person)-[:KNOWS]->(b:Person)-[:KNOWS]->(c:Person) "
       "RETURN COUNT(*) AS n"},
      {"agg-keyed",
       "MATCH (a:Person)-[:KNOWS]->(b:Person)-[:HAS_INTEREST]->(t:Tag) "
       "RETURN a.id AS i, COUNT(t) AS n ORDER BY n DESC, i ASC LIMIT 10"},
      {"order",
       "MATCH (a:Person)-[:KNOWS]->(b:Person)-[:KNOWS]->(c:Person) "
       "RETURN a.id AS i, b.id AS j, c.id AS k ORDER BY i ASC, j ASC, k ASC "
       "LIMIT 50"},
      {"limit",
       "MATCH (a:Person)-[:KNOWS]->(b:Person)-[:KNOWS]->(c:Person) "
       "RETURN a.id AS i, c.id AS j LIMIT 25"},
      {"dedup",
       "MATCH (a:Person)-[:KNOWS]->(b:Person)-[:KNOWS]->(c:Person) "
       "RETURN DISTINCT a.id AS i ORDER BY i ASC"},
      {"join-build",
       "MATCH (a:Person)-[:KNOWS]->(b:Person) WITH a, b "
       "MATCH (b)-[:HAS_INTEREST]->(t:Tag) "
       "RETURN a.id AS i, t.id AS j ORDER BY i ASC, j ASC LIMIT 50"},
      {"collect-output",
       "MATCH (a:Person)-[:KNOWS]->(b:Person)-[:KNOWS]->(c:Person) "
       "RETURN a.id AS i, c.id AS j"},
      {"all-filtered",
       "MATCH (a:Person)-[:KNOWS]->(b:Person)-[:KNOWS]->(c:Person) "
       "WHERE c.id > 900000000 RETURN a.id AS i, c.id AS j"},
  };
  for (const auto& [name, q] : cases) ExpectModesAgree(*off, *on, Q(q), name);
}

// ---------------------------------------------------------------------------
// Differential: all workloads x modes x threads x partitions
// ---------------------------------------------------------------------------

TEST_F(FactorizedExecTest, DifferentialAllWorkloadsModesThreadsPartitions) {
  auto reference = MakeEngine(FactorizationMode::kOff, 1, 0);
  struct Config {
    FactorizationMode mode;
    int threads;
    int partitions;
  };
  std::vector<Config> configs;
  for (FactorizationMode m : {FactorizationMode::kOff, FactorizationMode::kOn,
                              FactorizationMode::kAuto}) {
    for (int t : {1, 4}) {
      for (int p : {0, 4}) {
        if (m == FactorizationMode::kOff && t == 1 && p == 0) continue;
        configs.push_back({m, t, p});
      }
    }
  }
  std::vector<std::unique_ptr<GOptEngine>> engines;
  for (const Config& c : configs) {
    engines.push_back(MakeEngine(c.mode, c.threads, c.partitions));
  }
  for (const auto* set : {&IcQueries(), &BiQueries(), &QrQueries(),
                          &QtQueries(), &QcQueries()}) {
    for (const auto& wq : *set) {
      const std::string q = Q(wq.cypher);
      ExecOutcome ref;
      ASSERT_NO_THROW(ref = reference->Run(q)) << wq.name;
      for (size_t i = 0; i < configs.size(); ++i) {
        ExecOutcome got;
        ASSERT_NO_THROW(got = engines[i]->Run(q)) << wq.name;
        const char* mode =
            configs[i].mode == FactorizationMode::kOff
                ? "off"
                : configs[i].mode == FactorizationMode::kOn ? "on" : "auto";
        EXPECT_TRUE(ref.SameRows(got))
            << wq.name << " mode=" << mode << " threads=" << configs[i].threads
            << " partitions=" << configs[i].partitions
            << ": ref=" << ref.NumRows() << " got=" << got.NumRows();
        EXPECT_EQ(ref.stats.rows_produced, got.stats.rows_produced)
            << wq.name << " mode=" << mode << " threads=" << configs[i].threads
            << " partitions=" << configs[i].partitions;
      }
    }
  }
}

TEST_F(FactorizedExecTest, DistributedPlansFactorize) {
  // Distribution is a property of the pipeline plan, so the distributed
  // backend factorizes like the single-machine one: at kAuto some
  // pipeline runs factorized, with the rows, rows_produced and exchanges
  // of kOff.
  auto make = [&](FactorizationMode mode) {
    EngineOptions opts;
    opts.factorization = mode;
    auto e = std::make_unique<GOptEngine>(
        ldbc_->graph.get(), BackendSpec::GraphScopeLike(4), opts);
    e->SetGlogue(*glogue_);
    return e;
  };
  auto off = make(FactorizationMode::kOff);
  auto aut = make(FactorizationMode::kAuto);
  std::vector<std::pair<std::string, std::string>> cases = {
      {"2hop-count",
       "MATCH (p:Person)-[:KNOWS]->(q:Person)-[:KNOWS]->(r:Person) "
       "RETURN p.id AS id, COUNT(*) AS n"}};
  for (const auto& wq : BiQueries()) cases.emplace_back(wq.name, wq.cypher);
  size_t factorized = 0;
  for (const auto& [name, cypher] : cases) {
    const std::string q = Q(cypher);
    ExecOutcome a = off->Run(q);
    ExecOutcome b = aut->Run(q);
    EXPECT_TRUE(a.SameRows(b)) << name;
    EXPECT_EQ(a.stats.rows_produced, b.stats.rows_produced) << name;
    EXPECT_EQ(a.stats.comm_rows, b.stats.comm_rows) << name;
    EXPECT_EQ(a.stats.exchanges, b.stats.exchanges) << name;
    for (const PipelineStat& p : b.stats.pipelines) factorized += p.factorized;
    for (const PipelineStat& p : a.stats.pipelines) EXPECT_FALSE(p.factorized);
  }
  EXPECT_GT(factorized, 0u);
  const auto prep = aut->Prepare(Q(cases[0].second));
  EXPECT_NE(aut->Explain(prep).find("[factorized]"), std::string::npos)
      << aut->Explain(prep);
}

// rows_produced parity for factorized operators across both pipeline
// decompositions (distributed over a 4-partition store, single-machine
// unpartitioned), flat and factorized, on the SAME physical plan
// (different backends plan differently, so the comparison must hold the
// plan fixed): the factorized runtime must report logical bindings
// represented — one count per row an operator stands for, never per group
// entry — matching the flat runs operator for operator.
TEST_F(FactorizedExecTest, RowsProducedParityAcrossRuntimes) {
  GOptEngine gs(ldbc_->graph.get(), BackendSpec::GraphScopeLike(4));
  gs.SetGlogue(*glogue_);
  const auto store = gs.partitioned_store();
  for (const auto& wq : QcQueries()) {
    auto prep = gs.Prepare(Q(wq.cypher));
    ASSERT_FALSE(prep.invalid) << wq.name;
    ParamMap bound = prep.params;

    PipelinePlan dist = BuildPipelinePlan(prep.physical, true);
    ChooseFactorization(&dist, FactorizationMode::kOff);
    MorselExecutor dist_ex(ldbc_->graph.get(), MorselOptions{}, store.get());
    dist_ex.set_params(&bound);
    ResultTable want = dist_ex.Execute(prep.physical, &dist);

    PipelinePlan dist_fact = BuildPipelinePlan(prep.physical, true);
    ChooseFactorization(&dist_fact, FactorizationMode::kOn);
    MorselExecutor dist_fact_ex(ldbc_->graph.get(), MorselOptions{},
                                store.get());
    dist_fact_ex.set_params(&bound);
    ResultTable dist_fact_got = dist_fact_ex.Execute(prep.physical, &dist_fact);

    PipelinePlan flat = BuildPipelinePlan(prep.physical);
    ChooseFactorization(&flat, FactorizationMode::kOff);
    MorselExecutor flat_ex(ldbc_->graph.get());
    flat_ex.set_params(&bound);
    ResultTable flat_got = flat_ex.Execute(prep.physical, &flat);

    PipelinePlan fact = BuildPipelinePlan(prep.physical);
    ChooseFactorization(&fact, FactorizationMode::kOn);
    MorselExecutor fact_ex(ldbc_->graph.get());
    fact_ex.set_params(&bound);
    ResultTable fact_got = fact_ex.Execute(prep.physical, &fact);

    EXPECT_TRUE(want.SameRows(flat_got)) << wq.name;
    EXPECT_TRUE(want.SameRows(fact_got)) << wq.name;
    EXPECT_TRUE(want.SameRows(dist_fact_got)) << wq.name;
    EXPECT_EQ(dist_ex.stats().rows_produced, flat_ex.stats().rows_produced)
        << wq.name << ": rows_produced parity (dist vs flat morsel)";
    EXPECT_EQ(dist_ex.stats().rows_produced, fact_ex.stats().rows_produced)
        << wq.name << ": rows_produced parity (dist vs factorized morsel)";
    EXPECT_EQ(dist_ex.stats().rows_produced,
              dist_fact_ex.stats().rows_produced)
        << wq.name << ": rows_produced parity (dist vs factorized dist)";
    EXPECT_EQ(dist_ex.stats().comm_rows, dist_fact_ex.stats().comm_rows)
        << wq.name << ": factorization moves the same rows";
  }
}

// ---------------------------------------------------------------------------
// Observability
// ---------------------------------------------------------------------------

TEST_F(FactorizedExecTest, StatsAndExplainSurfaceCompression) {
  const std::string q =
      "MATCH (a:Person)-[:KNOWS]->(b:Person)-[:KNOWS]->(c:Person) "
      "RETURN COUNT(*) AS n";
  auto off = MakeEngine(FactorizationMode::kOff, 2);
  auto on = MakeEngine(FactorizationMode::kOn, 1);
  ExecOutcome flat = off->Run(q);
  auto prep = on->Prepare(q);
  ExecOutcome fact = on->Execute(prep);
  ASSERT_TRUE(flat.SameRows(fact));

  // Factorization must materialize strictly fewer intermediate tuples for
  // the same logical rows.
  EXPECT_EQ(flat.stats.rows_produced, fact.stats.rows_produced);
  EXPECT_EQ(flat.stats.tuples_materialized, flat.stats.rows_produced)
      << "flat mode: every logical row is a stored tuple";
  EXPECT_LT(fact.stats.tuples_materialized, fact.stats.rows_produced);

  // Per-pipeline flags, groups-vs-rows counts and flatten points.
  bool saw = false;
  for (const PipelineStat& p : fact.stats.pipelines) {
    if (!p.factorized) continue;
    saw = true;
    EXPECT_GT(p.groups, 0u);
    EXPECT_LT(p.chain_tuples, p.chain_rows);
  }
  EXPECT_TRUE(saw);
  for (const PipelineStat& p : flat.stats.pipelines) {
    EXPECT_FALSE(p.factorized);
    EXPECT_EQ(p.groups, 0u);
  }

  // Explain: the pipeline is tagged and the compression ratio printed.
  const std::string explain = on->Explain(prep, fact);
  EXPECT_NE(explain.find("[factorized]"), std::string::npos) << explain;
  EXPECT_NE(explain.find("[lazy]"), std::string::npos) << explain;
  EXPECT_NE(explain.find("x compression"), std::string::npos) << explain;
  EXPECT_NE(explain.find("flatten point"), std::string::npos) << explain;
}

}  // namespace
}  // namespace gopt
