// Differential and unit suite for the sharded graph store (src/store/):
// partitioner policies (ownership totality, determinism, balance),
// PartitionedGraph construction (coverage, local CSR parity with the
// global store, columnar property slices, edge-cut accounting), the
// partition-aware executors (identical ResultTables for every bundled
// workload across partitions {0, 1, 4} x exec_threads {1, 4}, both
// backends), lazy exchange placement, the ORDER k-way merge, and the
// partition metrics surfaced in ExecOutcome/Explain.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>

#include "src/engine/engine.h"
#include "src/exec/morsel.h"
#include "src/ldbc/ldbc.h"
#include "src/store/partitioned_graph.h"
#include "src/store/partitioner.h"
#include "src/workloads/queries.h"
#include "tests/batch_rows.h"

namespace gopt {
namespace {

class PartitionTest : public ::testing::Test {
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

  static std::unique_ptr<GOptEngine> MakeEngine(int partitions,
                                                int exec_threads,
                                                PartitionPolicy policy =
                                                    PartitionPolicy::kHash) {
    EngineOptions opts;
    opts.partitions = partitions;
    opts.partition_policy = policy;
    opts.exec_threads = exec_threads;
    auto e = std::make_unique<GOptEngine>(ldbc_->graph.get(),
                                          BackendSpec::Neo4jLike(), opts);
    e->SetGlogue(*glogue_);
    return e;
  }

  static std::unique_ptr<GOptEngine> MakeDistEngine(int partitions,
                                                    int workers = 4,
                                                    PartitionPolicy policy =
                                                        PartitionPolicy::kHash) {
    EngineOptions opts;
    opts.partitions = partitions;
    opts.partition_policy = policy;
    auto e = std::make_unique<GOptEngine>(
        ldbc_->graph.get(), BackendSpec::GraphScopeLike(workers), opts);
    e->SetGlogue(*glogue_);
    return e;
  }

  static LdbcGraph* ldbc_;
  static std::shared_ptr<const Glogue>* glogue_;
};

LdbcGraph* PartitionTest::ldbc_ = nullptr;
std::shared_ptr<const Glogue>* PartitionTest::glogue_ = nullptr;

// ---------------------------------------------------------------------------
// Partitioner policies
// ---------------------------------------------------------------------------

TEST_F(PartitionTest, OwnershipIsTotalAndDeterministic) {
  const PropertyGraph& g = *ldbc_->graph;
  for (PartitionPolicy policy :
       {PartitionPolicy::kHash, PartitionPolicy::kRange,
        PartitionPolicy::kEdgeCut}) {
    for (int P : {1, 3, 4}) {
      auto a = MakePartitioner(policy, P, g);
      auto b = MakePartitioner(policy, P, g);
      ASSERT_EQ(a->num_partitions(), P);
      for (VertexId v = 0; v < g.NumVertices(); ++v) {
        const int owner = a->OwnerOf(v);
        ASSERT_GE(owner, 0) << a->Name() << " v=" << v;
        ASSERT_LT(owner, P) << a->Name() << " v=" << v;
        // Determinism: an independently built partitioner agrees.
        ASSERT_EQ(owner, b->OwnerOf(v)) << a->Name() << " v=" << v;
      }
    }
  }
}

TEST_F(PartitionTest, RangePolicyIsContiguousAndMonotone) {
  const PropertyGraph& g = *ldbc_->graph;
  RangePartitioner part(4, g.NumVertices());
  int prev = 0;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    const int owner = part.OwnerOf(v);
    ASSERT_GE(owner, prev) << "range ownership must be non-decreasing";
    prev = owner;
  }
  EXPECT_EQ(part.OwnerOf(0), 0);
  EXPECT_EQ(part.OwnerOf(g.NumVertices() - 1), 3);
}

TEST_F(PartitionTest, HashPolicyBalances) {
  const PropertyGraph& g = *ldbc_->graph;
  auto pg = PartitionedGraph::Build(ldbc_->graph.get(),
                                    PartitionPolicy::kHash, 4);
  const double expect = static_cast<double>(g.NumVertices()) / 4.0;
  for (int p = 0; p < 4; ++p) {
    const double n = static_cast<double>(pg->stats(p).num_vertices);
    EXPECT_GT(n, expect * 0.8) << "partition " << p << " underfull";
    EXPECT_LT(n, expect * 1.2) << "partition " << p << " overfull";
  }
}

// ---------------------------------------------------------------------------
// Edge-cut policy (greedy label propagation)
// ---------------------------------------------------------------------------

TEST_F(PartitionTest, EdgeCutNeverWorseThanHashAndRespectsBalanceCap) {
  // Property pair of the refinement: (a) every applied move strictly
  // decreases the cut, so the refined cut can never exceed the hash seed's;
  // (b) no partition ever exceeds balance_cap * ceil(n/P) owned vertices.
  // Checked on the structured LDBC graph and the random fraud graph.
  FraudGraph fraud = GenerateFraud(2000, 8.0, 7);
  const PropertyGraph* graphs[] = {ldbc_->graph.get(), fraud.graph.get()};
  for (const PropertyGraph* g : graphs) {
    for (int P : {2, 4, 8}) {
      auto hash = PartitionedGraph::Build(g, PartitionPolicy::kHash, P);
      for (double cap : {1.05, 1.1, 1.5}) {
        PartitionerOptions popts;
        popts.balance_cap = cap;
        auto ec =
            PartitionedGraph::Build(g, PartitionPolicy::kEdgeCut, P, popts);
        EXPECT_LE(ec->total_cut_edges(), hash->total_cut_edges())
            << "P=" << P << " cap=" << cap;
        const size_t even = (g->NumVertices() + P - 1) / P;
        const size_t max_owned = std::max(
            even, static_cast<size_t>(
                      std::ceil(cap * static_cast<double>(even))));
        for (int p = 0; p < P; ++p) {
          EXPECT_LE(ec->stats(p).num_vertices, max_owned)
              << "P=" << P << " cap=" << cap << " p=" << p;
        }
      }
    }
  }
}

TEST_F(PartitionTest, EdgeCutRefinementActuallyReducesCutOnLdbc) {
  // The acceptance bar of the policy: on the structured LDBC graph (reply
  // trees, forum membership) label propagation must find a strictly
  // smaller cut than hash at P=4, and it must have moved vertices to get
  // there.
  const PropertyGraph* g = ldbc_->graph.get();
  auto hash = PartitionedGraph::Build(g, PartitionPolicy::kHash, 4);
  auto ec = PartitionedGraph::Build(g, PartitionPolicy::kEdgeCut, 4);
  EXPECT_LT(ec->total_cut_edges(), hash->total_cut_edges());
  EdgeCutPartitioner part(4, *g);
  EXPECT_GT(part.moves(), 0u);
  EXPECT_GE(part.sweeps_run(), 1);
}

TEST_F(PartitionTest, EdgeCutZeroSweepsReproducesHashSeed) {
  const PropertyGraph& g = *ldbc_->graph;
  PartitionerOptions popts;
  popts.refine_sweeps = 0;
  EdgeCutPartitioner ec(4, g, popts);
  HashPartitioner hash(4);
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    ASSERT_EQ(ec.OwnerOf(v), hash.OwnerOf(v)) << "v=" << v;
  }
  EXPECT_EQ(ec.moves(), 0u);
}

TEST_F(PartitionTest, EdgeCutRequiresFinalizedGraph) {
  PropertyGraph g(ldbc_->graph->schema());  // never finalized
  EXPECT_THROW(EdgeCutPartitioner(2, g), std::logic_error);
}

// ---------------------------------------------------------------------------
// PartitionedGraph construction
// ---------------------------------------------------------------------------

TEST_F(PartitionTest, PartitionsCoverEveryVertexExactlyOnce) {
  const PropertyGraph& g = *ldbc_->graph;
  for (PartitionPolicy policy :
       {PartitionPolicy::kHash, PartitionPolicy::kRange,
        PartitionPolicy::kEdgeCut}) {
    auto pg = PartitionedGraph::Build(ldbc_->graph.get(), policy, 4);
    std::set<VertexId> seen;
    size_t total = 0;
    for (int p = 0; p < pg->num_partitions(); ++p) {
      VertexId prev = 0;
      bool first = true;
      for (VertexId v : pg->Vertices(p)) {
        ASSERT_TRUE(seen.insert(v).second) << "vertex owned twice";
        ASSERT_EQ(pg->OwnerOf(v), p);
        ASSERT_EQ(pg->Vertices(p)[pg->LocalIndexOf(v)], v);
        if (!first) {
          ASSERT_GT(v, prev) << "owned list must ascend";
        }
        prev = v;
        first = false;
      }
      total += pg->Vertices(p).size();
      ASSERT_EQ(pg->stats(p).num_vertices, pg->Vertices(p).size());
    }
    EXPECT_EQ(total, g.NumVertices());
    // Per-type lists partition the global per-type lists.
    for (TypeId t = 0; t < g.schema().NumVertexTypes(); ++t) {
      size_t type_total = 0;
      for (int p = 0; p < pg->num_partitions(); ++p) {
        for (VertexId v : pg->VerticesOfType(p, t)) {
          ASSERT_EQ(g.VertexType(v), t);
        }
        type_total += pg->VerticesOfType(p, t).size();
      }
      EXPECT_EQ(type_total, g.NumVerticesOfType(t));
    }
  }
}

TEST_F(PartitionTest, LocalCsrAndPropertySlicesMatchGlobalStore) {
  const PropertyGraph& g = *ldbc_->graph;
  auto pg = PartitionedGraph::Build(ldbc_->graph.get(),
                                    PartitionPolicy::kHash, 4);
  const std::vector<std::string> props = g.VertexPropNames();
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    const int p = pg->OwnerOf(v);
    // Out-adjacency (source-owner placement) is byte-identical.
    auto global_out = g.OutEdges(v);
    auto local_out = pg->OutEdges(p, v);
    ASSERT_EQ(local_out.size(), global_out.size()) << "v=" << v;
    for (size_t i = 0; i < global_out.size(); ++i) {
      ASSERT_EQ(local_out[i].nbr, global_out[i].nbr);
      ASSERT_EQ(local_out[i].eid, global_out[i].eid);
      ASSERT_EQ(local_out[i].etype, global_out[i].etype);
    }
    // In-adjacency (destination-owner placement).
    auto global_in = g.InEdges(v);
    auto local_in = pg->InEdges(p, v);
    ASSERT_EQ(local_in.size(), global_in.size()) << "v=" << v;
    for (size_t i = 0; i < global_in.size(); ++i) {
      ASSERT_EQ(local_in[i].eid, global_in[i].eid);
    }
    // Columnar property slices.
    for (const std::string& name : props) {
      ASSERT_EQ(pg->GetVertexProp(p, v, name), g.GetVertexProp(v, name))
          << "v=" << v << " prop=" << name;
    }
  }
  // Typed adjacency ranges come out of the local CSR too.
  for (TypeId t = 0; t < g.schema().NumEdgeTypes(); ++t) {
    for (VertexId v = 0; v < std::min<VertexId>(g.NumVertices(), 256); ++v) {
      ASSERT_EQ(pg->OutEdges(pg->OwnerOf(v), v, t).size(),
                g.OutEdges(v, t).size());
    }
  }
}

TEST_F(PartitionTest, EdgeCutAccountingMatchesBruteForce) {
  const PropertyGraph& g = *ldbc_->graph;
  for (PartitionPolicy policy :
       {PartitionPolicy::kHash, PartitionPolicy::kRange,
        PartitionPolicy::kEdgeCut}) {
    auto pg = PartitionedGraph::Build(ldbc_->graph.get(), policy, 4);
    size_t want_cut = 0;
    std::vector<size_t> want_by_type(g.schema().NumEdgeTypes(), 0);
    for (EdgeId e = 0; e < g.NumEdges(); ++e) {
      if (pg->OwnerOf(g.EdgeSrc(e)) != pg->OwnerOf(g.EdgeDst(e))) {
        want_cut++;
        want_by_type[g.EdgeType(e)]++;
      }
    }
    EXPECT_EQ(pg->total_cut_edges(), want_cut) << PartitionPolicyName(policy);
    size_t part_sum = 0, edge_sum = 0;
    for (int p = 0; p < pg->num_partitions(); ++p) {
      part_sum += pg->stats(p).cut_edges;
      edge_sum += pg->stats(p).num_edges;
    }
    EXPECT_EQ(part_sum, want_cut);
    EXPECT_EQ(edge_sum, g.NumEdges()) << "source-owner placement is total";
    for (TypeId t = 0; t < g.schema().NumEdgeTypes(); ++t) {
      const double want =
          g.NumEdgesOfType(t) == 0
              ? 0.0
              : static_cast<double>(want_by_type[t]) /
                    static_cast<double>(g.NumEdgesOfType(t));
      EXPECT_DOUBLE_EQ(pg->CutFraction(t), want);
    }
    EXPECT_DOUBLE_EQ(pg->CutFraction(),
                     g.NumEdges() == 0 ? 0.0
                                       : static_cast<double>(want_cut) /
                                             static_cast<double>(g.NumEdges()));
  }
}

TEST_F(PartitionTest, SinglePartitionOwnsEverythingWithZeroCut) {
  for (PartitionPolicy policy :
       {PartitionPolicy::kHash, PartitionPolicy::kRange}) {
    auto pg = PartitionedGraph::Build(ldbc_->graph.get(), policy, 1);
    EXPECT_EQ(pg->num_partitions(), 1);
    EXPECT_EQ(pg->Vertices(0).size(), ldbc_->graph->NumVertices());
    EXPECT_EQ(pg->total_cut_edges(), 0u);
    EXPECT_DOUBLE_EQ(pg->CutFraction(), 0.0);
  }
}

// ---------------------------------------------------------------------------
// Differential: bundled workloads across partition counts and runtimes
// ---------------------------------------------------------------------------

void ExpectSameResults(GOptEngine& baseline, GOptEngine& cand,
                       const std::string& query, const std::string& name) {
  ExecOutcome a, b;
  ASSERT_NO_THROW(a = baseline.Run(query)) << name << ": " << query;
  ASSERT_NO_THROW(b = cand.Run(query)) << name << ": " << query;
  EXPECT_TRUE(a.SameRows(b)) << name << ": baseline=" << a.NumRows()
                             << " candidate=" << b.NumRows();
}

TEST_F(PartitionTest, DifferentialAllWorkloadsAcrossPartitionCounts) {
  auto baseline = MakeEngine(/*partitions=*/0, /*exec_threads=*/1);
  // partitions x threads grid of the acceptance criteria; partitions == 0
  // at 4 threads is already covered by batch_exec_test.
  struct Config {
    int partitions;
    int threads;
    PartitionPolicy policy;
  };
  const Config configs[] = {
      {1, 1, PartitionPolicy::kHash},    {4, 1, PartitionPolicy::kHash},
      {1, 4, PartitionPolicy::kHash},    {4, 4, PartitionPolicy::kHash},
      {4, 4, PartitionPolicy::kRange},   {4, 1, PartitionPolicy::kEdgeCut},
      {4, 4, PartitionPolicy::kEdgeCut}};
  for (const Config& cfg : configs) {
    auto cand = MakeEngine(cfg.partitions, cfg.threads, cfg.policy);
    for (const auto* set : {&IcQueries(), &BiQueries(), &QrQueries(),
                            &QtQueries(), &QcQueries()}) {
      for (const auto& wq : *set) {
        ExpectSameResults(
            *baseline, *cand, Q(wq.cypher),
            wq.name + " [P=" + std::to_string(cfg.partitions) +
                " T=" + std::to_string(cfg.threads) + " " +
                PartitionPolicyName(cfg.policy) + "]");
      }
    }
  }
}

TEST_F(PartitionTest, DifferentialDistributedAcrossPartitionCounts) {
  // The baseline runs the user-specified pattern order on the
  // single-machine runtime: independent of both the CBO and the
  // distributed runtime under test.
  EngineOptions noopt;
  noopt.mode = PlannerMode::kNoOpt;
  GOptEngine baseline(ldbc_->graph.get(), BackendSpec::Neo4jLike(), noopt);
  baseline.SetGlogue(*glogue_);
  for (int P : {1, 4}) {
    auto sharded = MakeDistEngine(P);
    for (const auto* set : {&QcQueries(), &QrQueries()}) {
      for (const auto& wq : *set) {
        ExpectSameResults(baseline, *sharded, Q(wq.cypher),
                          wq.name + " [dist P=" + std::to_string(P) + "]");
      }
    }
    // A couple of ORDER-heavy IC workloads through the merge path.
    ExpectSameResults(baseline, *sharded, Q(IcQueries()[0].cypher), "IC1");
    ExpectSameResults(baseline, *sharded, Q(IcQueries()[5].cypher), "IC6");
  }
  // The edge-cut policy changes ownership, never answers.
  auto edgecut = MakeDistEngine(4, 4, PartitionPolicy::kEdgeCut);
  for (const auto& wq : QcQueries()) {
    ExpectSameResults(baseline, *edgecut, Q(wq.cypher),
                      wq.name + " [dist P=4 edgecut]");
  }
}

TEST_F(PartitionTest, LazyPlacementShipsOnlyReExpandedRows) {
  // Exchange placement is lazy: rows move only when a later expansion
  // reads adjacency of a differently-owned column. A single hop therefore
  // ships nothing (its bound target is never expanded from), and a 2-hop
  // chain ships at most the first hop's bindings, to the owners of their
  // middle vertex.
  auto dist = MakeDistEngine(/*partitions=*/4);
  ExecOutcome one =
      dist->Run(Q("MATCH (p:Person)-[:KNOWS]->(q:Person) RETURN p, q"));
  ExecOutcome two = dist->Run(Q(
      "MATCH (p:Person)-[:KNOWS]->(q:Person)-[:KNOWS]->(r:Person) "
      "WHERE r.id <> p.id RETURN COUNT(r) AS c"));
  ASSERT_GT(one.NumRows(), 0u);
  EXPECT_EQ(one.stats.comm_rows, 0u);
  EXPECT_GT(two.stats.comm_rows, 0u);
  EXPECT_LE(two.stats.comm_rows, one.NumRows())
      << "a 2-hop chain re-distributes each first-hop binding at most once";
}

TEST_F(PartitionTest, ExchangesArePlacedInThePipelinePlan) {
  // The lazy-placement rule runs at plan time: a 2-hop chain's pipeline
  // plan ends the first hop's pipeline with one exchange to the owners of
  // the middle vertex, and nothing after the last hop re-partitions. The
  // exchange is frozen into the (cacheable) Prepared and printed by
  // Explain.
  auto dist = MakeDistEngine(/*partitions=*/4);
  auto prep = dist->Prepare(
      "MATCH (p:Person)-[:KNOWS]->(q:Person)-[:KNOWS]->(r:Person) "
      "WHERE p.id < 40 RETURN p, q, r");
  const PipelinePlan& plan = *prep.exec_pipelines;
  ASSERT_TRUE(plan.distributed);
  auto expansions = [](const Pipeline& p) {
    int n = 0;
    for (const PhysOp* op : p.ops) n += op->kind == PhysOpKind::kExpandEdge;
    return n;
  };
  int exchanges = 0;
  for (const Pipeline& p : plan.pipelines) {
    if (p.exchange.kind == ExchangeSpec::Kind::kNone) continue;
    ++exchanges;
    EXPECT_EQ(p.exchange.kind, ExchangeSpec::Kind::kOwner);
    EXPECT_EQ(p.sink->out_cols[p.exchange.cols[0]], "q");
    EXPECT_EQ(expansions(p), 1) << "the exchange follows the first hop";
  }
  EXPECT_EQ(exchanges, 1) << plan.ToString();
  const Pipeline& last = plan.pipelines.back();
  EXPECT_EQ(last.exchange.kind, ExchangeSpec::Kind::kNone);
  EXPECT_EQ(expansions(last), 1) << "the second hop runs after the exchange";

  const std::string explain = dist->Explain(prep);
  const size_t at = explain.find("=== Pipelines (morsel runtime) ===");
  ASSERT_NE(at, std::string::npos);
  const std::string pipelines = explain.substr(at);
  EXPECT_NE(pipelines.find("exchange(owner q)"), std::string::npos)
      << pipelines;
  EXPECT_EQ(pipelines.find("exchange("), pipelines.rfind("exchange("))
      << pipelines;

  const ExecOutcome out = dist->Execute(prep);
  EXPECT_EQ(out.stats.exchanges, 1u);
  EXPECT_TRUE(out.SameRows(MakeEngine(0, 1)->Run(
      "MATCH (p:Person)-[:KNOWS]->(q:Person)-[:KNOWS]->(r:Person) "
      "WHERE p.id < 40 RETURN p, q, r")));
}

TEST_F(PartitionTest, EdgeCutPolicyReducesCommRowsVersusHash) {
  // Exchanged rows on the sharded store are exactly the bindings whose
  // next expansion crosses an ownership boundary, so a smaller edge-cut
  // must show up as fewer comm_rows on the same plan (the tentpole's
  // acceptance metric; BENCH_9.json records the same comparison).
  const std::string q = Q(
      "MATCH (p:Person)-[:KNOWS]->(q:Person)-[:KNOWS]->(r:Person) "
      "WHERE r.id <> p.id RETURN COUNT(r) AS c");
  auto hash = MakeDistEngine(/*partitions=*/4);
  auto edgecut = MakeDistEngine(4, 4, PartitionPolicy::kEdgeCut);
  ExecOutcome a = hash->Run(q);
  ExecOutcome b = edgecut->Run(q);
  EXPECT_TRUE(a.SameRows(b));
  EXPECT_GT(a.stats.comm_rows, 0u);
  EXPECT_LT(b.stats.comm_rows, a.stats.comm_rows)
      << "hash=" << a.stats.comm_rows << " edgecut=" << b.stats.comm_rows;
  EXPECT_LT(b.stats.store_cut_edges, a.stats.store_cut_edges);
}

// ---------------------------------------------------------------------------
// ORDER k-way merge
// ---------------------------------------------------------------------------

TEST_F(PartitionTest, MergeSortedLimitMatchesFullSort) {
  Kernels k(ldbc_->graph.get());
  auto child = std::make_shared<PhysOp>(PhysOpKind::kProject);
  child->out_cols = {"x", "y"};
  auto op = std::make_shared<PhysOp>(PhysOpKind::kOrder);
  op->children = {child};
  op->out_cols = child->out_cols;
  op->sort_items = {{Expr::MakeVar("x"), /*asc=*/true},
                    {Expr::MakeVar("y"), /*asc=*/false}};
  op->limit = 7;
  // Three worker lists with overlapping keys and cross-list ties on x.
  auto row = [](int64_t x, int64_t y) { return Row{Value(x), Value(y)}; };
  const std::vector<std::vector<Row>> lists = {
      {row(1, 9), row(2, 5), row(5, 1)},
      {row(1, 9), row(1, 2), row(3, 3), row(9, 0)},
      {row(0, 4), row(2, 5), row(2, 4)}};
  // Each list must be locally sorted by the op's keys first.
  std::vector<Batch> parts;
  for (const auto& l : lists) {
    parts.push_back(k.SortLimit(*op, {BatchFromRows(l, 2)}));
  }
  // The merge must equal a stable re-sort of the worker-order
  // concatenation — including tie-breaks and the limit cutoff.
  std::vector<Row> want = k.SortLimit(*op, parts).ToRows();
  std::vector<Row> got = k.MergeSortedLimit(*op, parts).ToRows();
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "row " << i;
  }

  // Worker-order tie-break: rows whose sort keys tie are told apart by a
  // column outside the keys, and the lower worker's row must come first.
  auto by_x = std::make_shared<PhysOp>(PhysOpKind::kOrder);
  by_x->children = {child};
  by_x->out_cols = child->out_cols;
  by_x->sort_items = {{Expr::MakeVar("x"), /*asc=*/true}};
  std::vector<Batch> tied = {BatchFromRows({row(1, 20), row(2, 21)}, 2),
                             BatchFromRows({row(1, 10), row(2, 11)}, 2)};
  EXPECT_EQ(k.MergeSortedLimit(*by_x, tied).ToRows(),
            (std::vector<Row>{row(1, 20), row(1, 10), row(2, 21), row(2, 11)}));
}

TEST_F(PartitionTest, DistributedOrderMatchesSequentialTopK) {
  const std::string q = Q(
      "MATCH (p:Person)-[:KNOWS]->(f:Person) "
      "RETURN f.id AS id, COUNT(p) AS c ORDER BY c DESC, id ASC LIMIT 20");
  auto seq = MakeEngine(0, 1);
  for (int P : {0, 4}) {
    auto dist = MakeDistEngine(P);
    ExecOutcome a = seq->Run(q);
    ExecOutcome b = dist->Run(q);
    EXPECT_TRUE(a.SameRows(b)) << "P=" << P;
  }
}

// ---------------------------------------------------------------------------
// Morsel-runtime integration and metrics
// ---------------------------------------------------------------------------

TEST_F(PartitionTest, PartitionedScanMorselsArePartitionMajor) {
  auto pg = PartitionedGraph::Build(ldbc_->graph.get(),
                                    PartitionPolicy::kHash, 4);
  Kernels k(ldbc_->graph.get(), pg.get());
  PhysOp scan(PhysOpKind::kScanVertices);
  scan.alias = "v";  // vtc defaults to All
  std::vector<ScanMorsel> morsels = k.ScanMorsels(scan, 512);
  ASSERT_FALSE(morsels.empty());
  size_t covered = 0;
  int prev_partition = -1;
  for (const ScanMorsel& m : morsels) {
    ASSERT_GE(m.partition, 0);
    ASSERT_GE(m.partition, prev_partition)
        << "morsels must be partition-major";
    prev_partition = m.partition;
    covered += m.end - m.begin;
  }
  EXPECT_EQ(covered, ldbc_->graph->NumVertices());
}

TEST_F(PartitionTest, MorselQueueExplicitRangesClaimEachIndexOnce) {
  MorselQueue q({{0, 3}, {3, 3}, {3, 10}});  // middle worker starts empty
  std::vector<int> claimed(10, 0);
  for (int w = 0; w < 3; ++w) {
    size_t idx;
    while (q.Next(w, &idx)) claimed[idx]++;
  }
  for (int c : claimed) EXPECT_EQ(c, 1);
}

TEST_F(PartitionTest, OutcomeCarriesPartitionStats) {
  auto eng = MakeEngine(/*partitions=*/4, /*exec_threads=*/4);
  ASSERT_NE(eng->partitioned_store(), nullptr);
  auto prep = eng->Prepare(Q(
      "MATCH (p:Person)-[:KNOWS]->(f:Person) RETURN COUNT(f) AS c"));
  ExecOutcome out = eng->Execute(prep);
  EXPECT_EQ(out.stats.partitions, 4);
  EXPECT_EQ(out.stats.store_cut_edges,
            eng->partitioned_store()->total_cut_edges());
  ASSERT_EQ(out.stats.partition_rows.size(), 4u);
  uint64_t scanned = 0;
  for (uint64_t r : out.stats.partition_rows) scanned += r;
  EXPECT_GT(scanned, 0u);

  std::string explain = eng->Explain(prep);
  EXPECT_NE(explain.find("=== Partitions ==="), std::string::npos);
  EXPECT_NE(explain.find("edge-cut"), std::string::npos);
  std::string exec_explain = eng->Explain(prep, out);
  EXPECT_NE(exec_explain.find("partitions"), std::string::npos);

  // The distributed runtime reports them too.
  auto dist = MakeDistEngine(4);
  ExecOutcome dout = dist->Run(Q(QcQueries()[0].cypher));
  EXPECT_EQ(dout.stats.partitions, 4);
  ASSERT_EQ(dout.stats.partition_rows.size(), 4u);

  // At partitions = 0 a distributed engine still shards, into num_workers
  // partitions.
  auto dist_default = MakeDistEngine(/*partitions=*/0, /*workers=*/4);
  ASSERT_NE(dist_default->partitioned_store(), nullptr);
  ExecOutcome ddout = dist_default->Run(Q(QcQueries()[0].cypher));
  EXPECT_EQ(ddout.stats.partitions, 4);
  EXPECT_EQ(ddout.stats.partition_rows.size(), 4u);

  // Unpartitioned engines report none.
  auto plain = MakeEngine(0, 1);
  ExecOutcome pout = plain->Run(Q("MATCH (p:Person) RETURN p"));
  EXPECT_EQ(pout.stats.partitions, 0);
  EXPECT_TRUE(pout.stats.partition_rows.empty());
}

TEST_F(PartitionTest, PartitionKnobsAreCacheKeyed) {
  EngineOptions a, b, c, d, e;
  b.partitions = 4;
  c.partitions = 4;
  c.partition_policy = PartitionPolicy::kRange;
  d.partitions = 4;
  d.partition_policy = PartitionPolicy::kEdgeCut;
  e = d;
  e.partition_refine_sweeps = 1;
  EXPECT_NE(OptionsFingerprint(a), OptionsFingerprint(b));
  EXPECT_NE(OptionsFingerprint(b), OptionsFingerprint(c));
  EXPECT_NE(OptionsFingerprint(c), OptionsFingerprint(d));
  EXPECT_NE(OptionsFingerprint(d), OptionsFingerprint(e));
}

TEST_F(PartitionTest, OutcomeCarriesBalanceMetrics) {
  auto eng = MakeEngine(/*partitions=*/4, /*exec_threads=*/1,
                        PartitionPolicy::kEdgeCut);
  auto prep = eng->Prepare(Q(
      "MATCH (p:Person)-[:KNOWS]->(f:Person) RETURN COUNT(f) AS c"));
  ExecOutcome out = eng->Execute(prep);
  ASSERT_NE(eng->partitioned_store(), nullptr);
  EXPECT_DOUBLE_EQ(out.stats.store_vertex_balance,
                   eng->partitioned_store()->VertexBalance());
  EXPECT_GE(out.stats.store_vertex_balance, 1.0);
  std::string explain = eng->Explain(prep);
  EXPECT_NE(explain.find("vertex balance"), std::string::npos);
  std::string exec_explain = eng->Explain(prep, out);
  EXPECT_NE(exec_explain.find("vertex balance"), std::string::npos);
  EXPECT_NE(exec_explain.find("rows balance"), std::string::npos);
}

}  // namespace
}  // namespace gopt
