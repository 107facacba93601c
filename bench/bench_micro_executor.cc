// Micro benchmarks (google-benchmark): executor kernel throughput — scans,
// flattened expansion vs. WCOJ intersection, hash join, two-phase
// aggregation — across worker counts. These ground the backend cost models
// registered through PhysicalSpec.
#include <benchmark/benchmark.h>

#include "src/engine/engine.h"
#include "src/exec/kernels.h"
#include "src/ldbc/ldbc.h"
#include "src/opt/factorization.h"
#include "src/workloads/queries.h"

namespace {

using namespace gopt;

const LdbcGraph& SharedGraph() {
  static LdbcGraph g = GenerateLdbc(0.3, 42);
  return g;
}

std::shared_ptr<const Glogue> SharedGlogue() {
  static auto gl = std::make_shared<Glogue>(Glogue::Build(*SharedGraph().graph));
  return gl;
}

void RunQuery(benchmark::State& state, const char* query, bool distributed,
              int workers = 4) {
  const auto& g = *SharedGraph().graph;
  GOptEngine engine(&g, distributed ? BackendSpec::GraphScopeLike(workers)
                                    : BackendSpec::Neo4jLike());
  engine.SetGlogue(SharedGlogue());
  auto prep =
      engine.Prepare(SubstituteParams(query, DefaultParams()));
  for (auto _ : state) {
    auto r = engine.Execute(prep);
    benchmark::DoNotOptimize(r.NumRows());
  }
  state.counters["rows"] = static_cast<double>(engine.Execute(prep).NumRows());
}

void BM_Scan(benchmark::State& state) {
  RunQuery(state, "MATCH (p:Person) RETURN p", false);
}
BENCHMARK(BM_Scan)->Unit(benchmark::kMicrosecond);

void BM_OneHopExpand(benchmark::State& state) {
  RunQuery(state, "MATCH (p:Person)-[:KNOWS]->(q:Person) RETURN p, q", false);
}
BENCHMARK(BM_OneHopExpand)->Unit(benchmark::kMicrosecond);

void BM_TriangleSingleMachine(benchmark::State& state) {
  RunQuery(state, QcQueries()[0].cypher.c_str(), false);
}
BENCHMARK(BM_TriangleSingleMachine)->Unit(benchmark::kMillisecond);

void BM_TriangleDistributed(benchmark::State& state) {
  RunQuery(state, QcQueries()[0].cypher.c_str(), true,
           static_cast<int>(state.range(0)));
}
BENCHMARK(BM_TriangleDistributed)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_PathExpand(benchmark::State& state) {
  RunQuery(state,
           "MATCH (p:Person)-[:KNOWS*1..2]->(f:Person) WHERE p.id = 17 "
           "RETURN f",
           false);
}
BENCHMARK(BM_PathExpand)->Unit(benchmark::kMicrosecond);

void BM_AggregateDistributed(benchmark::State& state) {
  RunQuery(state,
           "MATCH (t:Tag)<-[:HAS_TAG]-(m:Post) "
           "RETURN t.name AS n, COUNT(m) AS c",
           true);
}
BENCHMARK(BM_AggregateDistributed)->Unit(benchmark::kMillisecond);

void BM_HashJoinHeavy(benchmark::State& state) {
  RunQuery(state,
           "MATCH (a:Person)-[:KNOWS]->(b:Person) "
           "WITH a, b MATCH (b)-[:HAS_INTEREST]->(t:Tag) RETURN a, t",
           true);
}
BENCHMARK(BM_HashJoinHeavy)->Unit(benchmark::kMillisecond);

// Morsel-runtime scaling on a multi-hop pattern workload (expansion
// dominated, the shape the work-stealing scheduler parallelizes best).
// The same MorselExecutor runs at every thread count, so the curve is a
// pure scaling measurement of the batch runtime.
//
// Recorded baseline (dev container, 1 CPU visible — flat by construction,
// since no parallel speedup is physically possible on one core; the
// scaling claim is asserted on multi-core hosts, where the scan-morsel
// fan-out drives the 4-thread point to >= 2x the 1-thread throughput):
//   BM_ExecMorsel/threads:1/process_time/real_time   2.03 ms
//   BM_ExecMorsel/threads:2/process_time/real_time   2.08 ms
//   BM_ExecMorsel/threads:4/process_time/real_time   1.92 ms
//   BM_ExecMorsel/threads:8/process_time/real_time   1.87 ms
void BM_ExecMorsel(benchmark::State& state) {
  const auto& g = *SharedGraph().graph;
  GOptEngine engine(&g, BackendSpec::Neo4jLike());
  engine.SetGlogue(SharedGlogue());
  auto prep = engine.Prepare(SubstituteParams(
      "MATCH (p:Person)-[:KNOWS]->(q:Person)-[:KNOWS]->(r:Person) "
      "WHERE r.id <> p.id RETURN COUNT(r) AS c",
      DefaultParams()));
  ParamMap bound = prep.params;
  // The worker threads beyond the caller, started once like an engine's;
  // the executor gets one worker slot per pool thread plus the caller.
  WorkerPool pool(static_cast<int>(state.range(0)) - 1);
  // Pass the pipeline plan cached in the Prepared so the loop measures
  // only the runtime, not the (Prepare-time) decomposition.
  const PipelinePlan* pplan = prep.exec_pipelines.get();
  for (auto _ : state) {
    MorselExecutor ex(&g, MorselOptions{}, nullptr, &pool);
    ex.set_params(&bound);
    auto r = ex.Execute(prep.physical, pplan);
    benchmark::DoNotOptimize(r.NumRows());
  }
  MorselExecutor ex(&g, MorselOptions{}, nullptr, &pool);
  ex.set_params(&bound);
  state.counters["rows"] =
      static_cast<double>(ex.Execute(prep.physical, pplan).NumRows());
}
BENCHMARK(BM_ExecMorsel)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

std::shared_ptr<const PartitionedGraph> SharedStore(
    int partitions, PartitionPolicy policy = PartitionPolicy::kHash) {
  static auto p4 = PartitionedGraph::Build(SharedGraph().graph.get(),
                                           PartitionPolicy::kHash, 4);
  static auto p8 = PartitionedGraph::Build(SharedGraph().graph.get(),
                                           PartitionPolicy::kHash, 8);
  static auto ec4 = PartitionedGraph::Build(SharedGraph().graph.get(),
                                            PartitionPolicy::kEdgeCut, 4);
  if (policy == PartitionPolicy::kEdgeCut) return ec4;
  return partitions == 8 ? p8 : p4;
}

// Raw scan-kernel throughput of the sharded store vs. the global store:
// the same whole-graph scan read either as global-domain morsels
// (partitions:0) or as partition-local vertex lists (partitions:4/8).
// Confirms the partition indirection adds no measurable cost to the
// hottest storage loop.
//
// Recorded baseline (dev container, 1 CPU visible):
//   BM_PartitionedScan/partitions:0   0.034 ms
//   BM_PartitionedScan/partitions:4   0.039 ms
//   BM_PartitionedScan/partitions:8   0.041 ms
void BM_PartitionedScan(benchmark::State& state) {
  const auto& g = *SharedGraph().graph;
  const int P = static_cast<int>(state.range(0));
  std::shared_ptr<const PartitionedGraph> store =
      P > 0 ? SharedStore(P) : nullptr;
  Kernels k(&g, store.get());
  PhysOp scan(PhysOpKind::kScanVertices);
  scan.alias = "v";  // AllType: the whole vertex domain
  for (auto _ : state) {
    size_t rows = 0;
    for (const ScanMorsel& m : k.ScanMorsels(scan, 2048)) {
      rows += k.ScanBatch(scan, m).size();
    }
    benchmark::DoNotOptimize(rows);
  }
}
BENCHMARK(BM_PartitionedScan)
    ->ArgName("partitions")
    ->Arg(0)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

// End-to-end morsel-runtime execution over the sharded store, alongside
// BM_ExecMorsel (the same multi-hop workload on the global store at
// threads:4). partitions:0 is the unpartitioned baseline at 4 threads.
//
// Recorded baseline (dev container, 1 CPU visible — flat across thread
// counts by construction; the partitioned points track the unpartitioned
// one within noise, showing the sharded read path — partition-local CSR
// expansions, owner-routed property slices, partitioned scan morsels —
// costs nothing):
//   BM_ExecPartitioned/partitions:0/threads:4/process_time/real_time   2.36 ms
//   BM_ExecPartitioned/partitions:1/threads:4/process_time/real_time   2.38 ms
//   BM_ExecPartitioned/partitions:4/threads:1/process_time/real_time   1.98 ms
//   BM_ExecPartitioned/partitions:4/threads:4/process_time/real_time   2.57 ms
void BM_ExecPartitioned(benchmark::State& state) {
  const auto& g = *SharedGraph().graph;
  const int P = static_cast<int>(state.range(0));
  const PartitionPolicy policy = state.range(2) == 1
                                     ? PartitionPolicy::kEdgeCut
                                     : PartitionPolicy::kHash;
  std::shared_ptr<const PartitionedGraph> store;
  if (P == 1) {
    store = PartitionedGraph::Build(&g, policy, 1);
  } else if (P > 1) {
    store = SharedStore(P, policy);
  }
  GOptEngine engine(&g, BackendSpec::Neo4jLike());
  engine.SetGlogue(SharedGlogue());
  auto prep = engine.Prepare(SubstituteParams(
      "MATCH (p:Person)-[:KNOWS]->(q:Person)-[:KNOWS]->(r:Person) "
      "WHERE r.id <> p.id RETURN COUNT(r) AS c",
      DefaultParams()));
  ParamMap bound = prep.params;
  WorkerPool pool(static_cast<int>(state.range(1)) - 1);
  const PipelinePlan* pplan = prep.exec_pipelines.get();
  for (auto _ : state) {
    MorselExecutor ex(&g, MorselOptions{}, store.get(), &pool);
    ex.set_params(&bound);
    auto r = ex.Execute(prep.physical, pplan);
    benchmark::DoNotOptimize(r.NumRows());
  }
  MorselExecutor ex(&g, MorselOptions{}, store.get(), &pool);
  ex.set_params(&bound);
  state.counters["rows"] =
      static_cast<double>(ex.Execute(prep.physical, pplan).NumRows());
}
BENCHMARK(BM_ExecPartitioned)
    ->ArgNames({"partitions", "threads", "policy"})  // policy: 0=hash 1=edgecut
    ->Args({0, 4, 0})
    ->Args({1, 4, 0})
    ->Args({4, 1, 0})
    ->Args({4, 4, 0})
    ->Args({4, 1, 1})
    ->Args({4, 4, 1})
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

// Factorized intermediate batches (docs/factorization.md) on the two
// shapes factorization targets: a 2-hop chain (the last expansion's
// adjacency shared per prefix, lazy under the COUNT sink) and a 2-branch
// star (the second branch's fan-out multiplying an already-expanded
// prefix). Both run on the dense power-law transfer graph, where per-hub
// fan-out is what flat execution pays for. The same physical plan executes
// with factorization off and on — only the pipeline annotations differ —
// so the delta is purely the representation.
//
// `tuples` is ExecStats::tuples_materialized: physical tuples actually
// stored for the run's logical rows. It is the acceptance metric — the
// off/on tuples ratio is the intermediate-result compression, and must be
// >= 5x on both shapes.
//
// Recorded baseline (dev container, 1 CPU visible; rows_logical is
// identical off/on by construction):
//   BM_ExecFactorizedChain/factorized:0   352 ms  tuples=1.790M  (rows 1.790M)
//   BM_ExecFactorizedChain/factorized:1   102 ms  tuples=296k    ->  6.1x
//   BM_ExecFactorizedStar/factorized:0    388 ms  tuples=2.323M  (rows 2.323M)
//   BM_ExecFactorizedStar/factorized:1   80.6 ms  tuples=204k    -> 11.4x
void RunFactorizedBench(benchmark::State& state, const char* query) {
  static FraudGraph fraud = GenerateFraud(10000, 12.0, 7);
  const auto& g = *fraud.graph;
  // RBO-only planning pins the left-deep linear expansion plan in pattern
  // order. (The CBO prefers a hash-join plan for these patterns on the
  // single-label transfer graph; join build sides force flattening, which
  // is a different experiment — this one measures the representation on a
  // fixed chain shape, off vs. on.)
  EngineOptions popts;
  popts.mode = PlannerMode::kRboOnly;
  GOptEngine engine(&g, BackendSpec::Neo4jLike(), popts);
  auto prep = engine.Prepare(query);
  ParamMap bound = prep.params;
  PipelinePlan plan = BuildPipelinePlan(prep.physical);
  ChooseFactorization(&plan, state.range(0) != 0 ? FactorizationMode::kOn
                                                 : FactorizationMode::kOff);
  for (auto _ : state) {
    MorselExecutor ex(&g);
    ex.set_params(&bound);
    auto r = ex.Execute(prep.physical, &plan);
    benchmark::DoNotOptimize(r.NumRows());
  }
  MorselExecutor ex(&g);
  ex.set_params(&bound);
  ex.Execute(prep.physical, &plan);
  state.counters["rows_logical"] =
      static_cast<double>(ex.stats().rows_produced);
  state.counters["tuples"] =
      static_cast<double>(ex.stats().tuples_materialized);
}

void BM_ExecFactorizedChain(benchmark::State& state) {
  RunFactorizedBench(state,
                     "MATCH (a:Account)-[:TRANSFER]->(b:Account)"
                     "-[:TRANSFER]->(c:Account) RETURN COUNT(*) AS n");
}
BENCHMARK(BM_ExecFactorizedChain)
    ->ArgName("factorized")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

void BM_ExecFactorizedStar(benchmark::State& state) {
  RunFactorizedBench(state,
                     "MATCH (x:Account)-[:TRANSFER]->(a:Account), "
                     "(x)-[:TRANSFER]->(b:Account) RETURN COUNT(*) AS n");
}
BENCHMARK(BM_ExecFactorizedStar)
    ->ArgName("factorized")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

// Vectorized kernel fast paths (docs/vectorization.md). Both benches run
// the same kernel with set_vectorize on vs. off, so the delta is purely
// the fast path.
//
// BM_ExpandIntersect: triangle-closing intersection over the dense
// power-law transfer graph — input is the full TRANSFER edge list, both
// arms kBoth (out/in sub-spans interleave, the shape that forces the
// generic path to sort every arm of every row). The vectorized path merges
// the presorted CSR sub-spans sort-free and gallops on hub/leaf skew.
//
// Recorded baseline (dev container, 1 CPU visible):
//   BM_ExpandIntersect/vectorized:0   548 ms
//   BM_ExpandIntersect/vectorized:1   206 ms   -> 2.66x
void BM_ExpandIntersect(benchmark::State& state) {
  // Denser than the planner-level fraud benches on purpose: the fast path
  // pays off where adjacency lists are long enough that the generic path's
  // per-row sorts dominate (hub accounts reach several hundred transfers).
  static FraudGraph fraud = GenerateFraud(20000, 192.0, 7);
  const auto& g = *fraud.graph;
  const TypeId acct = *g.schema().FindVertexType("Account");
  const TypeId xfer = *g.schema().FindEdgeType("TRANSFER");
  auto child = std::make_shared<PhysOp>(PhysOpKind::kScanVertices);
  child->out_cols = {"a", "b"};
  auto op = std::make_shared<PhysOp>(PhysOpKind::kExpandIntersect);
  op->children = {child};
  op->out_cols = {"a", "b", "c"};
  op->alias = "c";
  op->vtc = TypeConstraint::Basic(acct);
  op->arms.push_back({"a", Direction::kBoth, TypeConstraint::Basic(xfer), {}});
  op->arms.push_back({"b", Direction::kBoth, TypeConstraint::Basic(xfer), {}});
  // Input rows: a stride sample of the TRANSFER edges (a, b) — the prefix
  // a triangle plan closes with the intersection c ~ N(a) & N(b).
  Batch in(2);
  size_t tick = 0;
  for (VertexId u = 0; u < g.NumVertices(); ++u) {
    for (const AdjEntry& e : g.OutEdges(u, xfer)) {
      if (tick++ % 64 != 0) continue;
      in.col(0).push_back(Value(VertexRef{u}));
      in.col(1).push_back(Value(VertexRef{e.nbr}));
    }
  }
  Kernels k(&g);
  k.set_vectorize(state.range(0) != 0);
  size_t rows = 0;
  for (auto _ : state) {
    Batch out = k.ExpandIntersectBatch(*op, in);
    rows = out.size();
    benchmark::DoNotOptimize(rows);
  }
  state.counters["rows_in"] = static_cast<double>(in.size());
  state.counters["rows_out"] = static_cast<double>(rows);
}
BENCHMARK(BM_ExpandIntersect)
    ->ArgName("vectorized")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

// BM_FilterVectorized: a two-term integer range conjunction over 64k rows
// — compiled branch-free mask loops vs. the generic per-row gather +
// expression walk.
//
// Recorded baseline (dev container, 1 CPU visible):
//   BM_FilterVectorized/vectorized:0   4.85 ms
//   BM_FilterVectorized/vectorized:1   1.13 ms   -> 4.3x
void BM_FilterVectorized(benchmark::State& state) {
  static FraudGraph fraud = GenerateFraud(100, 2.0, 7);  // Kernels needs a graph
  const auto& g = *fraud.graph;
  auto child = std::make_shared<PhysOp>(PhysOpKind::kScanVertices);
  child->out_cols = {"x"};
  auto sel = std::make_shared<PhysOp>(PhysOpKind::kSelect);
  sel->children = {child};
  sel->out_cols = child->out_cols;
  sel->predicate = Expr::MakeBinary(
      BinOp::kAnd,
      Expr::MakeBinary(BinOp::kGt, Expr::MakeVar("x"),
                       Expr::MakeLiteral(Value(static_cast<int64_t>(25000)))),
      Expr::MakeBinary(BinOp::kLt, Expr::MakeVar("x"),
                       Expr::MakeLiteral(Value(static_cast<int64_t>(75000)))));
  Batch in(1);
  uint64_t h = 7;
  for (size_t i = 0; i < (1u << 16); ++i) {
    h = h * 6364136223846793005ull + 1442695040888963407ull;
    in.col(0).push_back(Value(static_cast<int64_t>(h % 100000)));
  }
  Kernels k(&g);
  k.set_vectorize(state.range(0) != 0);
  size_t kept = 0;
  for (auto _ : state) {
    auto s = k.FilterSelection(*sel, in);
    kept = s.size();
    benchmark::DoNotOptimize(kept);
  }
  state.counters["rows_in"] = static_cast<double>(in.size());
  state.counters["kept"] = static_cast<double>(kept);
}
BENCHMARK(BM_FilterVectorized)
    ->ArgName("vectorized")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
