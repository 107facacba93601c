// Integration tests: every experiment query parses, plans and executes, and
// the two backends agree; the optimized plan agrees with the unoptimized
// plan (same results, different cost).
#include <gtest/gtest.h>

#include <functional>
#include <set>

#include "src/engine/engine.h"
#include "src/ldbc/ldbc.h"
#include "src/workloads/queries.h"

namespace gopt {
namespace {

class WorkloadTest : public ::testing::Test {
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

  static LdbcGraph* ldbc_;
  static std::shared_ptr<const Glogue>* glogue_;
};

LdbcGraph* WorkloadTest::ldbc_ = nullptr;
std::shared_ptr<const Glogue>* WorkloadTest::glogue_ = nullptr;

void ExpectBackendsAgree(const PropertyGraph* g,
                         std::shared_ptr<const Glogue> gl,
                         const std::string& query, const std::string& name) {
  GOptEngine neo(g, BackendSpec::Neo4jLike());
  neo.SetGlogue(gl);
  GOptEngine gs(g, BackendSpec::GraphScopeLike(4));
  gs.SetGlogue(gl);
  ExecOutcome r1, r2;
  ASSERT_NO_THROW(r1 = neo.Run(query)) << name << ": " << query;
  ASSERT_NO_THROW(r2 = gs.Run(query)) << name << ": " << query;
  // Top-k queries may break ties differently; compare row counts for
  // ORDER+LIMIT queries and exact multisets otherwise.
  if (query.find("LIMIT") != std::string::npos) {
    EXPECT_EQ(r1.NumRows(), r2.NumRows()) << name;
  } else {
    EXPECT_TRUE(r1.SameRows(r2))
        << name << ": single=" << r1.NumRows() << " dist=" << r2.NumRows();
  }
}

void ExpectOptMatchesNoOpt(const PropertyGraph* g,
                           std::shared_ptr<const Glogue> gl,
                           const std::string& query, const std::string& name) {
  EngineOptions opt;
  GOptEngine with_opt(g, BackendSpec::Neo4jLike(), opt);
  with_opt.SetGlogue(gl);
  EngineOptions noopt;
  noopt.mode = PlannerMode::kNoOpt;
  GOptEngine without(g, BackendSpec::Neo4jLike(), noopt);
  without.SetGlogue(gl);
  ExecOutcome r1 = with_opt.Run(query);
  ExecOutcome r2 = without.Run(query);
  if (query.find("LIMIT") != std::string::npos) {
    EXPECT_EQ(r1.NumRows(), r2.NumRows()) << name;
  } else {
    EXPECT_TRUE(r1.SameRows(r2))
        << name << ": opt=" << r1.NumRows() << " noopt=" << r2.NumRows();
  }
}

TEST_F(WorkloadTest, IcQueriesRunOnBothBackends) {
  for (const auto& wq : IcQueries()) {
    ExpectBackendsAgree(ldbc_->graph.get(), *glogue_, Q(wq.cypher), wq.name);
  }
}

TEST_F(WorkloadTest, BiQueriesRunOnBothBackends) {
  for (const auto& wq : BiQueries()) {
    ExpectBackendsAgree(ldbc_->graph.get(), *glogue_, Q(wq.cypher), wq.name);
  }
}

TEST_F(WorkloadTest, QrQueriesOptimizedPlansAreEquivalent) {
  for (const auto& wq : QrQueries()) {
    ExpectOptMatchesNoOpt(ldbc_->graph.get(), *glogue_, Q(wq.cypher), wq.name);
  }
}

TEST_F(WorkloadTest, QtQueriesTypeInferencePreservesResults) {
  for (const auto& wq : QtQueries()) {
    EngineOptions with;
    GOptEngine a(ldbc_->graph.get(), BackendSpec::Neo4jLike(), with);
    a.SetGlogue(*glogue_);
    EngineOptions without;
    without.enable_type_inference = false;
    GOptEngine b(ldbc_->graph.get(), BackendSpec::Neo4jLike(), without);
    b.SetGlogue(*glogue_);
    auto q = Q(wq.cypher);
    ExecOutcome r1 = a.Run(q);
    ExecOutcome r2 = b.Run(q);
    EXPECT_TRUE(r1.SameRows(r2)) << wq.name << " infer=" << r1.NumRows()
                                 << " noinfer=" << r2.NumRows();
  }
}

TEST_F(WorkloadTest, QcQueriesCboPlansAreEquivalent) {
  for (const auto& wq : QcQueries()) {
    ExpectOptMatchesNoOpt(ldbc_->graph.get(), *glogue_, Q(wq.cypher), wq.name);
    ExpectBackendsAgree(ldbc_->graph.get(), *glogue_, Q(wq.cypher), wq.name);
  }
}

TEST_F(WorkloadTest, QcGremlinMatchesCypher) {
  for (const auto& wq : QcQueries()) {
    GOptEngine engine(ldbc_->graph.get(), BackendSpec::GraphScopeLike(2));
    engine.SetGlogue(*glogue_);
    ExecOutcome cy = engine.Run(Q(wq.cypher), Language::kCypher);
    ExecOutcome gr = engine.Run(Q(wq.gremlin), Language::kGremlin);
    ASSERT_EQ(cy.NumRows(), 1u) << wq.name;
    ASSERT_EQ(gr.NumRows(), 1u) << wq.name;
    EXPECT_EQ(cy.table().rows[0][0].AsInt(), gr.table().rows[0][0].AsInt()) << wq.name;
  }
}

TEST_F(WorkloadTest, QrGremlinRuns) {
  for (const auto& wq : QrQueries()) {
    if (wq.gremlin.empty()) continue;
    GOptEngine engine(ldbc_->graph.get(), BackendSpec::GraphScopeLike(2));
    engine.SetGlogue(*glogue_);
    ExecOutcome r;
    ASSERT_NO_THROW(r = engine.Run(Q(wq.gremlin), Language::kGremlin))
        << wq.name << ": " << Q(wq.gremlin);
  }
}

// Counts kExpandIntersect nodes of a physical plan (DAG nodes once).
size_t CountIntersects(const PhysOpPtr& root) {
  std::set<const PhysOp*> seen;
  size_t n = 0;
  std::function<void(const PhysOpPtr&)> walk = [&](const PhysOpPtr& op) {
    if (!op || !seen.insert(op.get()).second) return;
    if (op->kind == PhysOpKind::kExpandIntersect) ++n;
    for (const PhysOpPtr& c : op->children) walk(c);
  };
  walk(root);
  return n;
}

TEST_F(WorkloadTest, Neo4jLikePlansNeverContainExpandIntersect) {
  // The backend's operator repertoire is a plan-time registration
  // (PhysicalSpec, paper Section 6.3.2): the Neo4j-like backend registers
  // ExpandInto only, so physical conversion must never emit the WCOJ
  // intersect for it — with or without a sharded store. The GraphScope-like
  // backend registers it, which keeps the check from passing vacuously.
  size_t gs_intersects = 0;
  for (int partitions : {0, 4}) {
    EngineOptions opts;
    opts.partitions = partitions;
    GOptEngine neo(ldbc_->graph.get(), BackendSpec::Neo4jLike(), opts);
    neo.SetGlogue(*glogue_);
    GOptEngine gs(ldbc_->graph.get(), BackendSpec::GraphScopeLike(4), opts);
    gs.SetGlogue(*glogue_);
    for (const auto* set : {&IcQueries(), &BiQueries(), &QrQueries(),
                            &QtQueries(), &QcQueries()}) {
      for (const auto& wq : *set) {
        Prepared prep = neo.Prepare(Q(wq.cypher));
        ASSERT_FALSE(prep.invalid) << wq.name;
        EXPECT_EQ(CountIntersects(prep.physical), 0u)
            << wq.name << " (partitions " << partitions << ")";
        gs_intersects += CountIntersects(gs.Prepare(Q(wq.cypher)).physical);
      }
    }
  }
  EXPECT_GT(gs_intersects, 0u);
}

TEST_F(WorkloadTest, ExplainShowsExpansionPredicates) {
  // FilterIntoPattern pushes IC5's `m.joinDate > $minDate` onto the
  // HAS_MEMBER expansion; the physical plan must show it there.
  GOptEngine engine(ldbc_->graph.get(), BackendSpec::Neo4jLike());
  engine.SetGlogue(*glogue_);
  const WorkloadQuery* ic5 = nullptr;
  for (const auto& wq : IcQueries()) {
    if (wq.name == "IC5") ic5 = &wq;
  }
  ASSERT_NE(ic5, nullptr);
  const std::string explain = engine.Explain(engine.Prepare(Q(ic5->cypher)));
  const size_t begin = explain.find("=== Physical plan");
  ASSERT_NE(begin, std::string::npos);
  const std::string physical =
      explain.substr(begin, explain.find("\n===", begin) - begin);
  EXPECT_NE(physical.find("joinDate"), std::string::npos) << physical;
}

TEST_F(WorkloadTest, StQueryFindsPaths) {
  auto fraud = GenerateFraud(2000, 4.0, 9);
  GOptEngine engine(fraud.graph.get(), BackendSpec::GraphScopeLike(4));
  std::string q = StQuery(4, {1, 2, 3}, {10, 11});
  ExecOutcome r = engine.Run(q);
  ASSERT_EQ(r.NumRows(), 1u);
  EXPECT_GE(r.table().rows[0][0].AsInt(), 0);
}

}  // namespace
}  // namespace gopt
