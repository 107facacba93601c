// Differential suite for the morsel-driven batch runtime: every bundled
// workload query runs through the batch runtime at exec_threads 1 and 4
// and must produce the same rows, and the one-worker runtime is held
// against the distributed executor's independent operator walker on the
// same plans; plus unit coverage for Batch row round-trips,
// selection-vector edge cases, the breaker kernels against row
// references, pipeline decomposition, the work-stealing morsel queue, and
// ExecStats::rows_produced parity across runtimes.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
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

TEST(BatchTest, SplitBatchSplitsAtGranularity) {
  std::vector<Row> rows;
  for (int64_t i = 0; i < 10; ++i) rows.push_back(Row{Value(i)});
  std::vector<Batch> bs = SplitBatch(Batch::FromRows(rows, 1), 4);
  ASSERT_EQ(bs.size(), 3u);
  EXPECT_EQ(bs[0].size(), 4u);
  EXPECT_EQ(bs[1].size(), 4u);
  EXPECT_EQ(bs[2].size(), 2u);
  EXPECT_EQ(TotalBatchRows(bs), 10u);
  EXPECT_EQ(RowsFromBatches(bs), rows);
  // A selection is compacted first: only the active rows are split.
  Batch sel = Batch::FromRows(rows, 1);
  sel.SetSelection({9, 0, 5});
  bs = SplitBatch(std::move(sel), 2);
  ASSERT_EQ(bs.size(), 2u);
  EXPECT_EQ(RowsFromBatches(bs), (std::vector<Row>{rows[9], rows[0], rows[5]}));
  EXPECT_TRUE(SplitBatch(Batch(1), 4).empty());
}

// ---------------------------------------------------------------------------
// Breaker kernels: batch in, batch out, held against row references
// ---------------------------------------------------------------------------

Value I(int64_t v) { return Value(v); }

/// Inputs over the layout (a, b): a selection that drops and reorders
/// rows, a factorized batch (a group-backed), the same with a selection,
/// multiplicity-only lazy groups (b never stored, reads null), an empty
/// batch and an all-filtered one. `a` repeats across and within batches
/// so every breaker sees duplicate keys and sort ties.
std::vector<Batch> BreakerInputs() {
  std::vector<Batch> in;
  in.push_back(Batch::FromRows({{I(3), I(1)}, {I(1), I(2)}, {I(3), I(1)},
                                {I(2), I(5)}, {I(1), I(7)}, {I(2), I(2)}},
                               2));
  in.back().SetSelection({5, 0, 2, 3, 1});
  in.emplace_back(2);  // empty
  auto factorized = [] {
    Batch b(2);
    b.InitFactorized({1, 0});
    const std::vector<std::pair<int64_t, std::vector<int64_t>>> groups = {
        {2, {9, 1, 5}}, {1, {2}}, {3, {1, 1}}};
    for (const auto& [a, bs] : groups) {
      b.gcol(0).push_back(I(a));
      for (int64_t v : bs) b.col(1).push_back(I(v));
      b.CloseGroup(static_cast<uint32_t>(bs.size()));
    }
    return b;
  };
  in.push_back(factorized());
  in.push_back(factorized());
  in.back().SetSelection({5, 0, 3, 2});
  Batch lazy(2);
  lazy.InitFactorized({1, 1});
  for (auto [a, run] : {std::pair<int64_t, uint32_t>{1, 2}, {4, 3}, {2, 1}}) {
    lazy.gcol(0).push_back(I(a));
    lazy.gcol(1).push_back(Value());
    lazy.CloseGroup(run);
  }
  in.push_back(std::move(lazy));
  in.push_back(Batch::FromRows({{I(7), I(7)}}, 2));
  in.back().SetSelection({});  // all filtered
  return in;
}

PhysOpPtr Layout(std::vector<std::string> cols) {
  auto op = std::make_shared<PhysOp>(PhysOpKind::kScanVertices);
  op->out_cols = std::move(cols);
  return op;
}

PhysOp Breaker(PhysOpKind kind) {
  PhysOp op(kind);
  op.children = {Layout({"a", "b"})};
  op.out_cols = {"a", "b"};
  return op;
}

/// Row aggregate over (a, b): [a if keyed], COUNT(*), SUM(a), COUNT(b),
/// MIN(b), MAX(b); groups in first-occurrence order.
std::vector<Row> RefAggregate(const std::vector<Row>& rows, bool keyed) {
  std::vector<Row> out;
  for (const Row& r : rows) {
    auto it = std::find_if(out.begin(), out.end(), [&](const Row& o) {
      return !keyed || o[0] == r[0];
    });
    if (it == out.end()) {
      Row fresh = {I(0), I(0), I(0), Value(), Value()};
      if (keyed) fresh.insert(fresh.begin(), r[0]);
      out.push_back(std::move(fresh));
      it = out.end() - 1;
    }
    Value* s = &(*it)[keyed ? 1 : 0];
    s[0] = I(s[0].AsInt() + 1);
    s[1] = I(s[1].AsInt() + r[0].AsInt());
    if (r[1].is_null()) continue;
    s[2] = I(s[2].AsInt() + 1);
    if (s[3].is_null() || r[1].Compare(s[3]) < 0) s[3] = r[1];
    if (s[4].is_null() || r[1].Compare(s[4]) > 0) s[4] = r[1];
  }
  if (out.empty() && !keyed) {
    out.push_back({I(0), I(0), I(0), Value(), Value()});
  }
  return out;
}

std::vector<Row> RefSort(std::vector<Row> rows, const PhysOp& op) {
  // A sort item names column a or b, or is the computed key -a.
  auto key = [](const SortItem& it, const Row& r) {
    if (it.expr->kind != Expr::Kind::kVar) return I(-r[0].AsInt());
    return r[it.expr->tag == "a" ? 0 : 1];
  };
  std::stable_sort(rows.begin(), rows.end(), [&](const Row& x, const Row& y) {
    for (const SortItem& it : op.sort_items) {
      const int cmp = key(it, x).Compare(key(it, y));
      if (cmp != 0) return it.asc ? cmp < 0 : cmp > 0;
    }
    return false;
  });
  if (op.limit >= 0 && rows.size() > static_cast<size_t>(op.limit)) {
    rows.resize(static_cast<size_t>(op.limit));
  }
  return rows;
}

std::vector<Row> RefDedup(const std::vector<Row>& rows, bool by_a) {
  std::vector<Row> out;
  for (const Row& r : rows) {
    if (std::none_of(out.begin(), out.end(), [&](const Row& o) {
          return by_a ? o[0] == r[0] : o == r;
        })) {
      out.push_back(r);
    }
  }
  return out;
}

/// Self-join on `a` of the (a, b) input with itself as (a, c).
std::vector<Row> RefJoin(const std::vector<Row>& rows, JoinKind kind) {
  std::vector<Row> out;
  for (const Row& l : rows) {
    bool matched = false;
    for (const Row& r : rows) {
      if (!(l[0] == r[0])) continue;
      matched = true;
      if (kind == JoinKind::kInner || kind == JoinKind::kLeftOuter) {
        out.push_back({l[0], l[1], r[1]});
      }
    }
    if (matched ? kind == JoinKind::kSemi
                : kind == JoinKind::kAnti || kind == JoinKind::kLeftOuter) {
      Row o = l;
      if (kind == JoinKind::kLeftOuter) o.push_back(Value());
      out.push_back(std::move(o));
    }
  }
  return out;
}

TEST_F(BatchExecTest, BreakerKernelsMatchRowReference) {
  Kernels k(ldbc_->graph.get());
  using Run = std::function<std::vector<Row>(const std::vector<Batch>&)>;
  using Ref = std::function<std::vector<Row>(const std::vector<Row>&)>;
  struct Case {
    std::string name;
    Run run;
    Ref ref;
  };
  std::vector<Case> cases;

  // Dedup: every column, one tag, and UNION DISTINCT (all output columns).
  for (bool by_a : {false, true}) {
    PhysOp op = Breaker(PhysOpKind::kDedup);
    if (by_a) op.dedup_tags = {"a"};
    cases.push_back({by_a ? "dedup(a)" : "dedup",
                     [&k, op](const std::vector<Batch>& in) {
                       return k.Dedup(op, in).ToRows();
                     },
                     [by_a](const std::vector<Row>& r) {
                       return RefDedup(r, by_a);
                     }});
  }
  PhysOp uni(PhysOpKind::kUnion);
  uni.children = {Layout({"a", "b"}), Layout({"a", "b"})};
  uni.out_cols = {"a", "b"};
  uni.union_distinct = true;
  cases.push_back({"union distinct",
                   [&k, uni](const std::vector<Batch>& in) {
                     return k.Dedup(uni, in).ToRows();
                   },
                   [](const std::vector<Row>& r) {
                     return RefDedup(r, false);
                   }});

  // SortLimit and the k-way merge of per-batch ("per-worker") top-k lists,
  // with ties on a alone, on (a desc, b asc) and on (-a, b asc), whose
  // computed first key is evaluated over the row while b is read from its
  // column; no limit, a cut, zero.
  const ExprPtr neg_a = Expr::MakeUnary(UnOp::kNeg, Expr::MakeVar("a"));
  const std::vector<std::pair<std::vector<SortItem>, std::string>> orders = {
      {{{Expr::MakeVar("a"), true}}, "(a)"},
      {{{Expr::MakeVar("a"), false}, {Expr::MakeVar("b"), true}},
       "(a desc, b)"},
      {{{neg_a, true}, {Expr::MakeVar("b"), true}}, "(-a, b)"}};
  for (int64_t limit : {-1, 4, 0}) {
    for (const auto& [items, label] : orders) {
      PhysOp op = Breaker(PhysOpKind::kOrder);
      op.limit = limit;
      op.sort_items = items;
      const std::string tag = label + " limit " + std::to_string(limit);
      Ref ref = [op](const std::vector<Row>& r) { return RefSort(r, op); };
      cases.push_back({"sort" + tag,
                       [&k, op](const std::vector<Batch>& in) {
                         return k.SortLimit(op, in).ToRows();
                       },
                       ref});
      cases.push_back({"merge" + tag,
                       [&k, op](const std::vector<Batch>& in) {
                         std::vector<Batch> parts;
                         for (const Batch& b : in) {
                           parts.push_back(k.SortLimit(op, {b}));
                         }
                         return k.MergeSortedLimit(op, parts).ToRows();
                       },
                       ref});
    }
  }

  // Aggregate: keyed on a with group-only arguments (consumed run-at-a-time
  // on the factorized inputs), keyed and keyless with per-row arguments,
  // and the two-phase path — a local aggregate per batch, merged with
  // combine = true.
  for (bool keyed : {true, false}) {
    for (bool runwise : {true, false}) {
      if (!keyed && runwise) continue;
      PhysOp op = Breaker(PhysOpKind::kAggregate);
      op.out_cols.clear();
      if (keyed) {
        op.group_keys.push_back({Expr::MakeVar("a"), "a"});
        op.out_cols.push_back("a");
      }
      op.aggs.push_back({AggFunc::kCount, nullptr, "n"});
      op.aggs.push_back({AggFunc::kSum, Expr::MakeVar("a"), "s"});
      if (!runwise) {
        op.aggs.push_back({AggFunc::kCount, Expr::MakeVar("b"), "nb"});
        op.aggs.push_back({AggFunc::kMin, Expr::MakeVar("b"), "lo"});
        op.aggs.push_back({AggFunc::kMax, Expr::MakeVar("b"), "hi"});
      }
      for (const auto& a : op.aggs) op.out_cols.push_back(a.alias);
      const size_t width = op.out_cols.size();
      Ref ref = [keyed, width](const std::vector<Row>& r) {
        std::vector<Row> out = RefAggregate(r, keyed);
        for (Row& o : out) o.resize(width);
        return out;
      };
      const std::string tag = std::string(keyed ? "keyed" : "keyless") +
                              (runwise ? " group-only args" : "");
      cases.push_back({"aggregate " + tag,
                       [&k, op](const std::vector<Batch>& in) {
                         return k.Aggregate(op, in).ToRows();
                       },
                       ref});
      cases.push_back({"aggregate combine " + tag,
                       [&k, op](const std::vector<Batch>& in) {
                         std::vector<Batch> partials;
                         for (const Batch& b : in) {
                           partials.push_back(k.Aggregate(op, {b}));
                         }
                         return k.Aggregate(op, partials, /*combine=*/true)
                             .ToRows();
                       },
                       ref});
    }
  }

  // Join build plus probe: every kind, the input joined with itself.
  const std::pair<JoinKind, const char*> kinds[] = {
      {JoinKind::kInner, "inner"},
      {JoinKind::kLeftOuter, "left outer"},
      {JoinKind::kSemi, "semi"},
      {JoinKind::kAnti, "anti"}};
  for (const auto& named : kinds) {
    const JoinKind kind = named.first;
    PhysOp op(PhysOpKind::kHashJoin);
    op.children = {Layout({"a", "b"}), Layout({"a", "c"})};
    op.join_keys = {"a"};
    op.join_kind = kind;
    op.out_cols = {"a", "b"};
    if (kind == JoinKind::kInner || kind == JoinKind::kLeftOuter) {
      op.out_cols.push_back("c");
    }
    cases.push_back({std::string("join ") + named.second,
                     [&k, op](const std::vector<Batch>& in) {
                       const JoinHashTable ht = k.BuildJoinTable(op, in);
                       std::vector<Batch> out;
                       for (const Batch& b : in) {
                         out.push_back(k.JoinProbeBatch(op, b, ht));
                       }
                       return RowsFromBatches(out);
                     },
                     [kind](const std::vector<Row>& r) {
                       return RefJoin(r, kind);
                     }});
  }

  // Every case over the whole input, over no batches, and over each
  // batch alone.
  const std::vector<Batch> all = BreakerInputs();
  std::vector<std::vector<Batch>> inputs = {all, {}};
  for (const Batch& b : all) inputs.push_back({b});
  for (const Case& c : cases) {
    for (size_t i = 0; i < inputs.size(); ++i) {
      EXPECT_EQ(c.run(inputs[i]), c.ref(RowsFromBatches(inputs[i])))
          << c.name << " on input set " << i;
    }
  }
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

TEST_F(BatchExecTest, UnionCopiesOnlySharedChildren) {
  // A union sink moves a child's batches out when it is their only
  // consumer. Here `x` feeds both sides of the inner union and the outer
  // union, so each of those reads must still see all of its rows; the
  // inner union feeds only the outer one and is moved.
  auto engine = MakeEngine(1);
  Prepared prep = engine->Prepare(
      "MATCH (p:Person) WHERE p.id < 20 RETURN p.id AS x");
  const PhysOpPtr x = prep.physical;
  auto union_all = [&](PhysOpPtr l, PhysOpPtr r) {
    auto u = std::make_shared<PhysOp>(PhysOpKind::kUnion);
    u->children = {std::move(l), std::move(r)};
    u->out_cols = x->out_cols;
    return u;
  };
  const PhysOpPtr inner = union_all(x, x);
  const PhysOpPtr root = union_all(inner, x);
  const PipelinePlan plan = BuildPipelinePlan(root);
  EXPECT_EQ(plan.ConsumersOf(x.get()), 3);
  EXPECT_EQ(plan.ConsumersOf(inner.get()), 1);

  ResultTable want = engine->Execute(prep).table();
  ASSERT_GT(want.NumRows(), 0u);
  const std::vector<Row> once = want.rows;
  for (int copy = 0; copy < 2; ++copy) {
    want.rows.insert(want.rows.end(), once.begin(), once.end());
  }
  for (int threads : {1, 4}) {
    MorselOptions mopts;
    mopts.threads = threads;
    MorselExecutor ex(ldbc_->graph.get(), mopts);
    ex.set_params(&prep.params);
    EXPECT_TRUE(ex.Execute(root, &plan).SameRows(want)) << threads;
  }
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
