// Micro benchmarks (google-benchmark): the async serving layer
// (docs/serving.md).
//
// BM_ServeThroughput measures end-to-end serve throughput over worker
// pool sizes {1, 2, 4, 8}: each iteration pushes a burst of plan-cached
// queries through RunAsync and drains the futures, so the measured cost
// is admission + dispatch + execution + delivery. On a 1-CPU container
// extra workers buy overlap of queue handoff with execution, not real
// parallel speedup — the interesting number is that the serving layer's
// per-query overhead stays small against the blocking baseline
// (RunAsync/workers:1 vs. a direct engine.Execute loop).
//
// BM_ServeCancel measures the cancellation path: a heavy cartesian query
// submitted and immediately cancelled. The time per iteration is the
// latency from Cancel() to the future resolving with the typed
// kCancelled outcome — the cooperative check cadence, not the query's
// full runtime (the uncancelled query is ~1000x the per-iteration time).
#include <benchmark/benchmark.h>

#include "src/engine/engine.h"
#include "src/ldbc/ldbc.h"
#include "src/serve/serving.h"

namespace {

using namespace gopt;

const LdbcGraph& SharedGraph() {
  static LdbcGraph g = GenerateLdbc(0.1, 42);
  return g;
}

// Recorded baseline (dev container, 1 CPU visible; BENCH_10.json):
//   BM_ServeThroughput/workers:{1,2,4,8}  1.8-2.2 ms / 16-query burst
//   BM_ServeCancel                        0.22 ms cancel-to-resolution
// Throughput is flat across pool sizes on 1 CPU (expected: execution is
// CPU-bound); the per-query serving overhead vs. the blocking loop is
// the admission queue handoff, ~tens of microseconds.
void BM_ServeThroughput(benchmark::State& state) {
  const auto& g = *SharedGraph().graph;
  GOptEngine engine(&g, BackendSpec::Neo4jLike());
  ServingOptions sopts;
  sopts.worker_threads = static_cast<int>(state.range(0));
  sopts.max_queue = 256;
  ServingEngine serve(&engine, sopts);
  const std::string q =
      "MATCH (p:Person)-[:KNOWS]->(q:Person) RETURN p, q";
  engine.Prepare(q);  // prime the plan cache: measure serving, not planning
  constexpr int kBurst = 16;
  uint64_t rows = 0;
  for (auto _ : state) {
    std::vector<std::future<ExecOutcome>> futs;
    futs.reserve(kBurst);
    for (int i = 0; i < kBurst; ++i) futs.push_back(serve.RunAsync(q));
    for (auto& f : futs) rows = f.get().NumRows();
    benchmark::DoNotOptimize(rows);
  }
  state.counters["rows"] = static_cast<double>(rows);
  state.counters["qps"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * kBurst,
      benchmark::Counter::kIsRate);
}
// The work runs on the serving workers, not the submitting thread, so the
// iteration time and the kIsRate `qps` counter must be wall-clock: with the
// default CPU-time clock the rate divides by the submitter's (mostly idle)
// CPU time and reads many times too high.
BENCHMARK(BM_ServeThroughput)
    ->ArgName("workers")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_ServeCancel(benchmark::State& state) {
  const auto& g = *SharedGraph().graph;
  GOptEngine engine(&g, BackendSpec::Neo4jLike());
  ServingOptions sopts;
  sopts.worker_threads = 1;
  ServingEngine serve(&engine, sopts);
  // Cartesian triple: far too heavy to finish, cheap per produced row —
  // the iteration time is dominated by cancel-to-resolution latency.
  const std::string heavy =
      "MATCH (a:Person), (b:Person), (c:Person) RETURN a, b, c";
  engine.Prepare(heavy);
  uint64_t cancelled = 0;
  for (auto _ : state) {
    Submission s = serve.Submit(heavy);
    s.cancel.Cancel();
    ExecOutcome out = s.result.get();
    cancelled += (out.status == ExecStatus::kCancelled) ? 1 : 0;
    benchmark::DoNotOptimize(out.status);
  }
  state.counters["cancelled"] = static_cast<double>(cancelled);
}
// Wall-clock time: the submitting thread only waits on the future, so
// its CPU time says nothing about how long a cancel takes to resolve.
BENCHMARK(BM_ServeCancel)->UseRealTime()->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
