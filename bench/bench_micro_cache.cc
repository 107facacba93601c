// Micro benchmark (google-benchmark): the memory-bounded result cache
// (docs/result-cache.md).
//
// BM_ResultCacheHit is the acceptance benchmark for the hit path: the same
// prepared query executed cold (cached:0 — no result cache, every
// iteration runs the full operator tree) vs. against a warm cache
// (cached:1 — every iteration is a key build + sharded LRU probe + shared
// table handout). The hit path must be >= 10x faster than the cold path.
#include <benchmark/benchmark.h>

#include "src/engine/engine.h"
#include "src/engine/result_cache.h"
#include "src/ldbc/ldbc.h"
#include "src/workloads/queries.h"

namespace {

using namespace gopt;

const LdbcGraph& SharedGraph() {
  static LdbcGraph g = GenerateLdbc(0.3, 42);
  return g;
}

std::shared_ptr<const Glogue> SharedGlogue() {
  static auto gl =
      std::make_shared<Glogue>(Glogue::Build(*SharedGraph().graph));
  return gl;
}

// Recorded baseline (dev container, 1 CPU visible, Release):
//   BM_ResultCacheHit/cached:0   2.29 ms      rows=1
//   BM_ResultCacheHit/cached:1   0.00029 ms   rows=1   -> ~7900x
// The hit path is three orders of magnitude faster than the cold
// execution here (acceptance floor: >= 10x); its cost is the key build
// over the bound parameter values plus one sharded LRU probe, independent
// of the plan's operator tree.
void BM_ResultCacheHit(benchmark::State& state) {
  const auto& g = *SharedGraph().graph;
  const bool cached = state.range(0) != 0;
  EngineOptions opts;
  opts.result_cache_bytes = cached ? (64 << 20) : 0;
  GOptEngine engine(&g, BackendSpec::Neo4jLike(), opts);
  engine.SetGlogue(SharedGlogue());
  auto prep = engine.Prepare(
      SubstituteParams(QcQueries()[0].cypher, DefaultParams()));
  if (cached) engine.Execute(prep);  // prime: every timed iter is a hit
  for (auto _ : state) {
    auto r = engine.Execute(prep);
    benchmark::DoNotOptimize(r.NumRows());
  }
  state.counters["rows"] =
      static_cast<double>(engine.Execute(prep).NumRows());
}
BENCHMARK(BM_ResultCacheHit)
    ->ArgName("cached")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
