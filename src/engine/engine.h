#pragma once

#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "src/common/cancel.h"
#include "src/common/worker_pool.h"
#include "src/engine/result_cache.h"
#include "src/exec/morsel.h"
#include "src/exec/result.h"
#include "src/opt/pipeline/pipelines.h"
#include "src/opt/pipeline/planner_options.h"
#include "src/opt/pipeline/shared_plan_cache.h"
#include "src/physical/converter.h"
#include "src/store/partitioned_graph.h"

namespace gopt {

/// A fully planned query ready for (repeated) execution under any
/// parameter binding. Defined at namespace scope (not nested in the
/// engine) so SharedPreparedPlanCache can be named by EngineOptions
/// without depending on the engine layer; `GOptEngine::Prepared` remains
/// an alias. The plan trees are immutable once planned — a Prepared can be
/// executed from any number of threads concurrently.
struct Prepared {
  LogicalOpPtr logical;
  PhysOpPtr physical;
  bool invalid = false;  ///< type inference proved the pattern unmatchable
  std::vector<std::string> fired_rules;
  std::map<const LogicalOp*, PatternPlanPtr> pattern_plans;
  std::vector<std::string> output_columns;
  /// Per-pass planning diagnostics (shared with the cache: a cache hit
  /// returns the trace of the original planning run).
  std::shared_ptr<const PlanTrace> trace;
  /// The physical plan's pipeline decomposition for the morsel runtime,
  /// built once at planning time (it only depends on the immutable plan
  /// tree) so warm-cache executions and Explain never rebuild it. Shared
  /// with the cache like `trace`; its raw PhysOp pointers refer into
  /// `physical`, which every Prepared copy co-owns.
  std::shared_ptr<const PipelinePlan> exec_pipelines;
  /// True when this Prepared was served from the plan cache.
  bool from_cache = false;

  /// The canonical parameterized query text this plan was built from
  /// (also the cache-key text).
  std::string parameterized_query;
  /// The language the text was planned as (part of every cache key).
  Language lang = Language::kCypher;
  /// The full plan-cache key — (parameterized text, language, options
  /// fingerprint, graph identity, statistics epoch). Computed by every
  /// Prepare, even with the plan cache disabled: it doubles as the plan
  /// component of result-cache keys (docs/result-cache.md).
  std::string plan_key;
  /// The statistics epoch this plan was prepared under — the scope tag of
  /// every result-cache entry it populates, so a later SetGlogue can evict
  /// exactly this generation's results.
  uint64_t glogue_epoch = 0;
  /// Every parameter slot the plan references: auto-extracted $__pN slots
  /// plus user-written $name parameters, in first-occurrence order.
  /// Execute throws if any of them is unbound.
  std::vector<std::string> required_params;
  /// Literal values auto-extracted from THIS call's query text (per-call
  /// state: a cache hit re-extracts them from the new text). Execute
  /// merges user-supplied bindings over these.
  ParamMap params;
};

/// The result object of Execute/Run: the rows plus this call's execution
/// metrics. Returning metrics here (instead of parking them in engine
/// members) is what makes Execute re-entrant — concurrent calls cannot
/// clobber each other's numbers.
struct ExecOutcome {
  /// The result rows, held by shared_ptr so a result-cache hit hands out
  /// the cached table zero-copy (docs/result-cache.md): any number of
  /// concurrent hits share one immutable materialization. Cold executions
  /// wrap their freshly built table the same way.
  std::shared_ptr<const ResultTable> table_ptr;
  ExecStats stats;
  double ms = 0;  ///< wall-clock milliseconds of this execution
  /// Typed completion status (docs/serving.md). kOk for every blocking
  /// call without a token; a cancelled/timed-out execution returns
  /// kCancelled/kTimeout with an empty table and discarded partial stats;
  /// kRejected is produced only by the serving layer's admission control
  /// (the engine itself never runs a rejected query).
  ExecStatus status = ExecStatus::kOk;
  /// Milliseconds the query waited in the serving layer's admission queue
  /// before a worker picked it up (0 for direct engine calls). Reported
  /// separately from `ms`, which remains pure execution time.
  double queue_ms = 0;

  /// The rows (an empty table when the query was invalid-by-types and
  /// produced none). Reference is valid as long as this outcome — or any
  /// copy sharing table_ptr — lives.
  const ResultTable& table() const {
    static const ResultTable kEmpty;
    return table_ptr ? *table_ptr : kEmpty;
  }

  // Table forwarders, so call sites that only care about rows read as
  // before: `engine.Run(q).NumRows()`.
  size_t NumRows() const { return table().NumRows(); }
  bool SameRows(const ResultTable& other) const {
    return table().SameRows(other);
  }
  bool SameRows(const ExecOutcome& other) const {
    return table().SameRows(other.table());
  }
};

/// GOptEngine: the end-to-end facade. Planning runs as a declarative pass
/// pipeline (opt/pipeline) selected by PlannerMode — parse -> RBO -> type
/// inference -> CBO -> physical conversion -> pipeline decomposition —
/// followed by execution on the morsel-driven batch runtime with one
/// worker slot per engine pool thread plus the caller (see
/// docs/executor.md). The distributed backend always shards its graph
/// into a PartitionedGraph at construction (docs/storage.md) —
/// EngineOptions::partitions partitions, or BackendSpec::num_workers at
/// partitions == 0 — and its pipeline plans run breakers per partition and
/// exchange rows by ownership and key; the single-machine backend shards
/// only at partitions > 0 and then scans partition-granular morsels.
/// Whenever a store exists the CBO prices communication with its measured
/// edge-cut. The store is fixed for the engine's lifetime: ownership never
/// migrates at run time.
///
/// Prepared plans are a prepared-statement subsystem, not just a memoizer:
/// Prepare first auto-parameterizes the query (constant tokens become $__pN
/// slots; see ParameterizeQuery for the guards), then looks the
/// parameterized stream up in a sharded thread-safe SharedPlanCache keyed
/// by (parameterized text, language, options fingerprint, graph identity,
/// statistics epoch). Queries differing only in literal values therefore
/// share one plan; the extracted values travel with the returned Prepared
/// and are bound at Execute time, optionally overridden by user-supplied
/// $name parameters.
///
/// Thread-safety (see docs/concurrency.md): Prepare, Execute, Run and
/// Explain are const and re-entrant — one engine may serve any number of
/// threads, and several engines may share one plan cache (inject it via
/// EngineOptions::plan_cache) and one Glogue (SetGlogue). Control-plane
/// calls — SetGlogue, ClearPlanCache, mutable_options() — must not run
/// concurrently with mutable_options() writes; SetGlogue is itself safe
/// against in-flight Prepare/Execute calls (they finish against the
/// statistics they snapshotted).
class GOptEngine {
 public:
  using Prepared = gopt::Prepared;

  GOptEngine(const PropertyGraph* g, BackendSpec backend,
             EngineOptions opts = {});

  /// Plans `query` (or serves the plan from the cache after
  /// auto-parameterization). The returned Prepared carries the literal
  /// bindings extracted from this exact query text, so Execute(prep) runs
  /// it as written; re-Execute with explicit params rebinds without
  /// replanning. Const and re-entrant.
  ///
  /// `cancel` (optional) cooperatively cancels planning: the pass manager
  /// checks it between passes and the CBO's per-pattern tasks check it per
  /// pattern. Unlike Execute there is no partial result to type, so a trip
  /// throws CancelledError (status() tells timeout from cancel) — the
  /// serving layer converts it into a typed ExecOutcome.
  Prepared Prepare(const std::string& query, Language lang = Language::kCypher,
                   CancelToken cancel = {}) const;

  /// Executes a prepared plan. `params` (user-supplied $name bindings) are
  /// merged over the auto-extracted literals of `prep`; a $param required
  /// by the plan but bound by neither throws std::runtime_error before any
  /// operator runs. Const and re-entrant: a fresh executor is constructed
  /// per call and all metrics are returned in the ExecOutcome.
  ///
  /// `cancel` (optional) cooperatively cancels execution: the runtimes
  /// check it at morsel/operator boundaries and charge produced rows
  /// against its row budget. A tripped token yields a *typed* outcome —
  /// status kCancelled/kTimeout, empty table, partial stats discarded —
  /// and the result cache is never populated from a cancelled run.
  ExecOutcome Execute(const Prepared& prep, const ParamMap& params = {},
                      CancelToken cancel = {}) const;

  /// Prepare + Execute (Prepare hits the plan cache on repeated queries).
  ExecOutcome Run(const std::string& query,
                  Language lang = Language::kCypher) const;
  /// Prepare + Execute with explicit $name parameter bindings.
  ExecOutcome Run(const std::string& query, const ParamMap& params,
                  Language lang = Language::kCypher) const;

  /// Human-readable plan description (logical + pattern plans + physical +
  /// the per-pass PlanTrace with millisecond timings, per-pattern CBO
  /// timings, and the plan-cache counters). On the single-machine backend
  /// it also shows the pipeline decomposition the plan executes as.
  std::string Explain(const Prepared& prep) const;

  /// Explain plus an "Execution" section for one finished run of the plan:
  /// per-pipeline wall-clock timings, morsel counts, worker counts and row
  /// counts (morsel runtime), or the executor totals otherwise.
  std::string Explain(const Prepared& prep, const ExecOutcome& outcome) const;

  /// Snapshot of the prepared-plan cache counters (hits / misses /
  /// evictions / entries). By value: the live counters are concurrently
  /// updated atomics. On a shared cache the counters aggregate over every
  /// engine attached to it.
  PlanCacheStats plan_cache_stats() const { return plan_cache_->stats(); }
  /// Drops every cached plan whose scope is this engine's graph, across
  /// all epochs and option fingerprints (counters are preserved). On a
  /// shared cache, entries of engines over *other* graphs survive; peers
  /// over the same graph share this engine's entries and lose them too.
  /// To drop a shared cache wholesale, call Clear() on the handle itself.
  void ClearPlanCache();
  /// The engine's plan cache handle (inject it into another engine's
  /// EngineOptions::plan_cache to share plans).
  const std::shared_ptr<SharedPreparedPlanCache>& plan_cache() const {
    return plan_cache_;
  }

  /// Snapshot of the result-cache counters (hits / misses / evictions /
  /// entries / bytes); all zero when no result cache is configured. On a
  /// shared cache the counters aggregate over every engine attached.
  CacheStats result_cache_stats() const {
    return result_cache_ ? result_cache_->stats() : CacheStats{};
  }
  /// Drops every cached result scoped to this engine's graph, across all
  /// epochs (counters preserved). On a shared cache, entries of engines
  /// over *other* graphs survive. No-op without a result cache.
  void ClearResultCache() {
    if (result_cache_) result_cache_->EraseScope(g_->instance_id());
  }
  /// The engine's result cache handle (null when result_cache_bytes == 0
  /// and none was injected). Inject into another engine's
  /// EngineOptions::result_cache to share results across engines.
  const std::shared_ptr<ResultCache>& result_cache() const {
    return result_cache_;
  }

  /// Shares a prebuilt GLogue (e.g. across engines over the same graph).
  /// Advances this engine's statistics epoch, which re-keys its cache
  /// lookups: cached plans embed cost decisions made against the previous
  /// statistics, so they are never served to this engine again, while
  /// other engines on a shared cache keep their entries (epoch is part of
  /// the cache key). Engines given the same Glogue land on the same epoch
  /// and share plans.
  void SetGlogue(std::shared_ptr<const Glogue> gl);
  /// The engine's statistics (built on first use). Returned as shared
  /// ownership so the object survives a concurrent SetGlogue replacing the
  /// engine's own reference.
  std::shared_ptr<const Glogue> glogue() const;

  const BackendSpec& backend() const { return backend_; }
  const PropertyGraph& graph() const { return *g_; }
  /// The engine's sharded store, built in the constructor and never
  /// replaced (null for a single-machine backend at
  /// EngineOptions::partitions == 0).
  const std::shared_ptr<const PartitionedGraph>& partitioned_store() const {
    return store_;
  }

  /// NOT thread-safe: option writes must be externally serialized against
  /// every concurrent use of the engine.
  EngineOptions* mutable_options() { return &opts_; }

 private:
  /// The statistics handles one Prepare call plans against, snapshotted
  /// under stats_mu_ so a concurrent SetGlogue cannot free them mid-plan.
  struct StatsSnapshot {
    std::shared_ptr<const Glogue> glogue;
    std::shared_ptr<const GlogueQuery> gq_high;
    std::shared_ptr<const GlogueQuery> gq_low;
    uint64_t epoch = 0;
  };
  StatsSnapshot SnapshotStats() const;

  /// Runs the full planning pipeline (no cache). `cancel` is checked
  /// between passes and per CBO pattern task.
  Prepared PlanQuery(const std::string& query, Language lang,
                     const StatsSnapshot& stats,
                     const CancelToken& cancel) const;
  /// The backend's pipeline decomposition of `root` (distributed or not),
  /// with the configured factorization decisions frozen in.
  PipelinePlan BuildExecPipelines(const PhysOpPtr& root) const;
  /// Runs one physical plan on the morsel runtime with `bound` parameter
  /// bindings, accumulating metrics into *stats. `pipelines` is the plan's
  /// prebuilt decomposition (built here when null).
  ResultTable RunPhysical(const PhysOpPtr& root, const PipelinePlan* pipelines,
                          const ParamMap& bound, ExecStats* stats,
                          const CancelToken& cancel = {}) const;

  const PropertyGraph* g_;
  BackendSpec backend_;
  /// HashBackendSpec(backend_): the plan-cache scope of this engine's
  /// backend, hashed once.
  const size_t backend_hash_;
  EngineOptions opts_;
  std::shared_ptr<SharedPreparedPlanCache> plan_cache_;
  /// Memory-bounded cache of full query results (docs/result-cache.md).
  /// Null when disabled (result_cache_bytes == 0 and no injected handle).
  std::shared_ptr<ResultCache> result_cache_;

  /// The sharded store (null for a single-machine backend at
  /// opts_.partitions == 0) and the communication profile the CBO prices
  /// its measured cut ratios with. Both set once in the constructor.
  const std::shared_ptr<const PartitionedGraph> store_;
  const CommProfile comm_;

  /// The persistent worker threads the runtime and the CBO's per-pattern
  /// planning run on (docs/concurrency.md): max(store partitions, resolved
  /// exec_threads) - 1 of them, started here once, so neither Prepare nor
  /// Execute starts a thread; each call's own thread works alongside them,
  /// so every pipeline gets threads() + 1 worker slots. Zero threads (every stage inline) for a
  /// single-machine backend at the default options.
  std::unique_ptr<WorkerPool> pool_;

  /// Guards the lazily built statistics handles and the epoch; mutable so
  /// const Prepare can build them on first use.
  mutable std::mutex stats_mu_;
  mutable std::shared_ptr<const Glogue> glogue_;
  mutable std::shared_ptr<const GlogueQuery> gq_high_;
  mutable std::shared_ptr<const GlogueQuery> gq_low_;
  mutable uint64_t glogue_epoch_ = 0;
};

}  // namespace gopt
