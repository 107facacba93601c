#include "src/engine/engine.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <set>
#include <stdexcept>
#include <thread>

#include "src/common/str_format.h"
#include "src/lang/parameterize.h"
#include "src/opt/factorization.h"

namespace gopt {

namespace {

/// Partition count of the engine's sharded store: `opts.partitions` when
/// set, else the distributed backend's `num_workers`; 0 (no store) for a
/// single-machine backend at `partitions = 0`.
int StorePartitions(const BackendSpec& backend, const EngineOptions& opts) {
  if (opts.partitions > 0) return opts.partitions;
  return backend.distributed ? std::max(1, backend.num_workers) : 0;
}

/// The engine's sharded store, or null when it has none.
std::shared_ptr<const PartitionedGraph> BuildStore(
    const PropertyGraph* g, const BackendSpec& backend,
    const EngineOptions& opts) {
  const int P = StorePartitions(backend, opts);
  if (P == 0) return nullptr;
  PartitionerOptions popts;
  popts.refine_sweeps = opts.partition_refine_sweeps;
  popts.balance_cap = opts.partition_balance_cap;
  return PartitionedGraph::Build(g, opts.partition_policy, P, popts);
}

/// The store's measured cut ratios as the CBO's communication profile:
/// partition-local expansions price cheaper than cross-partition ones
/// (docs/storage.md). Empty when there is no store.
CommProfile MeasureComm(const PartitionedGraph* store,
                        const PropertyGraph& g) {
  CommProfile comm;
  if (!store) return comm;
  const int P = store->num_partitions();
  comm.rehash =
      P <= 1 ? 0.0 : static_cast<double>(P - 1) / static_cast<double>(P);
  comm.all_cut = store->CutFraction();
  comm.cut_by_etype.resize(g.schema().NumEdgeTypes());
  for (TypeId t = 0; t < comm.cut_by_etype.size(); ++t) {
    comm.cut_by_etype[t] = store->CutFraction(t);
  }
  return comm;
}

}  // namespace

GOptEngine::GOptEngine(const PropertyGraph* g, BackendSpec backend,
                       EngineOptions opts)
    : g_(g),
      backend_(std::move(backend)),
      backend_hash_(HashBackendSpec(backend_)),
      opts_(opts),
      // An injected cache is shared with its other engines; otherwise the
      // engine gets a private one. Sized unconditionally so
      // enable_plan_cache can be toggled through mutable_options() after
      // construction.
      plan_cache_(opts.plan_cache
                      ? opts.plan_cache
                      : std::make_shared<SharedPreparedPlanCache>(
                            opts.plan_cache_capacity)),
      // An injected result cache is shared with its other engines and
      // overrides result_cache_bytes; otherwise a private one sized by the
      // byte budget, or none at all (the common default).
      result_cache_(opts.result_cache ? opts.result_cache
                    : opts.result_cache_bytes > 0
                        ? std::make_shared<ResultCache>(opts.result_cache_bytes)
                        : nullptr),
      store_(BuildStore(g_, backend_, opts_)),
      comm_(MeasureComm(store_.get(), *g_)),
      // One thread per partition or morsel worker beyond the caller's own.
      pool_(std::make_unique<WorkerPool>(
          std::max(StorePartitions(backend_, opts_),
                   opts.exec_threads > 0
                       ? opts.exec_threads
                       : static_cast<int>(std::max(
                             1u, std::thread::hardware_concurrency()))) -
          1)) {}

void GOptEngine::SetGlogue(std::shared_ptr<const Glogue> gl) {
  uint64_t old_epoch;
  uint64_t new_epoch;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    old_epoch = glogue_epoch_;
    glogue_ = std::move(gl);
    gq_high_.reset();
    gq_low_.reset();
    // Re-key this engine's cache lookups instead of clearing the (possibly
    // shared) cache: plans cached under the old epoch embed cost decisions
    // made against the previous statistics and become unreachable for this
    // engine, while peers sharing the cache keep theirs. The epoch is the
    // Glogue's process-unique instance id (never address-reused), so
    // engines given the same Glogue share an epoch (and therefore plans).
    glogue_epoch_ = glogue_ ? glogue_->instance_id() : 0;
    new_epoch = glogue_epoch_;
  }
  // Precise result-cache invalidation: cached results are keyed through
  // plan keys that embed (graph, epoch), so this engine's old-generation
  // entries just became unreachable — evict exactly those. Entries of
  // peers sharing the cache (other graphs, or the same graph on an epoch
  // still in use) survive untouched (docs/result-cache.md).
  if (result_cache_ && new_epoch != old_epoch) {
    result_cache_->EraseScope(g_->instance_id(), old_epoch);
  }
}

std::shared_ptr<const Glogue> GOptEngine::glogue() const {
  return SnapshotStats().glogue;
}

void GOptEngine::ClearPlanCache() {
  const uint64_t graph = g_->instance_id();
  plan_cache_->EraseIf([graph](const std::string& key) {
    return PlanCacheKeyGraph(key) == graph;
  });
}

GOptEngine::StatsSnapshot GOptEngine::SnapshotStats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  if (!glogue_) {
    GlogueOptions gopts;
    gopts.max_pattern_vertices = opts_.glogue_k;
    gopts.edge_sample_rate = opts_.glogue_sample_rate;
    glogue_ = std::make_shared<Glogue>(Glogue::Build(*g_, gopts));
  }
  if (!gq_high_) {
    gq_high_ = std::make_shared<GlogueQuery>(glogue_.get(), &g_->schema(),
                                             /*high_order=*/true);
    gq_low_ = std::make_shared<GlogueQuery>(glogue_.get(), &g_->schema(),
                                            /*high_order=*/false);
  }
  StatsSnapshot s;
  s.glogue = glogue_;
  s.gq_high = gq_high_;
  s.gq_low = gq_low_;
  s.epoch = glogue_epoch_;
  return s;
}

Prepared GOptEngine::PlanQuery(const std::string& query, Language lang,
                               const StatsSnapshot& stats,
                               const CancelToken& cancel) const {
  PassManager pipeline = BuildPipeline(opts_);

  PlanContext ctx;
  ctx.query = query;
  ctx.lang = lang;
  ctx.graph = g_;
  ctx.exec_backend = &backend_;
  ctx.glogue = stats.glogue.get();
  ctx.gq_high = stats.gq_high.get();
  ctx.gq_low = stats.gq_low.get();
  ctx.comm = store_ ? &comm_ : nullptr;
  ctx.cancel = cancel;
  ctx.pool = pool_.get();

  pipeline.Run(ctx);

  Prepared prep;
  prep.logical = std::move(ctx.logical);
  prep.physical = std::move(ctx.physical);
  prep.invalid = ctx.invalid;
  prep.fired_rules = std::move(ctx.fired_rules);
  prep.pattern_plans = std::move(ctx.pattern_plans);
  prep.output_columns = std::move(ctx.output_columns);
  prep.trace = std::make_shared<const PlanTrace>(std::move(ctx.trace));
  if (prep.physical) {
    prep.exec_pipelines = std::make_shared<const PipelinePlan>(
        BuildExecPipelines(prep.physical));
  }
  return prep;
}

PipelinePlan GOptEngine::BuildExecPipelines(const PhysOpPtr& root) const {
  // Exchange placement and the per-pipeline factorize / lazy / flatten
  // decisions are frozen into the cached plan: the executing backend is
  // part of every plan-cache key and the factorization knob part of
  // OptionsFingerprint for exactly this reason.
  PipelinePlan pp = BuildPipelinePlan(root, backend_.distributed);
  ChooseFactorization(&pp, opts_.factorization);
  return pp;
}

Prepared GOptEngine::Prepare(const std::string& query, Language lang,
                             CancelToken cancel) const {
  // Snapshot the statistics handles up front: the whole Prepare plans
  // against one consistent Glogue even if SetGlogue lands concurrently.
  StatsSnapshot stats = SnapshotStats();
  // Split the query into a canonical parameterized stream (the plan shape)
  // and this call's literal bindings; planning and the cache only ever see
  // the stream. With the cache disabled there is no sharing to gain, so
  // literal extraction is skipped and only user-written $params remain.
  ParameterizedQuery pq = ParameterizeQuery(
      query, lang, opts_.auto_parameterize && opts_.enable_plan_cache);
  // The scoped plan key is computed even with the plan cache disabled: it
  // is also the plan component of result-cache keys, which need the same
  // (text, language, options, graph, epoch) discrimination.
  PlanCacheScope scope;
  scope.graph = g_->instance_id();
  scope.glogue_epoch = stats.epoch;
  scope.backend = backend_hash_;
  const std::string key =
      PlanCacheKeyFromCanonical(pq.text, lang, opts_, scope);
  if (opts_.enable_plan_cache) {
    if (std::shared_ptr<const Prepared> hit = plan_cache_->Get(key)) {
      Prepared prep = *hit;
      prep.from_cache = true;
      // The plan is shared; the bindings are this call's own.
      prep.params = std::move(pq.bindings);
      return prep;
    }
  }
  Prepared prep;
  try {
    prep = PlanQuery(pq.text, lang, stats, cancel);
  } catch (const CancelledError&) {
    throw;  // typed cancellation, not a parse/plan error — keep it as-is
  } catch (const std::exception& e) {
    if (pq.text == query) throw;
    // Parse errors carry token positions into the canonical stream, not
    // the user's original spelling — include the stream so they are
    // interpretable.
    throw std::runtime_error(std::string(e.what()) +
                             " [in canonical query: " + pq.text + "]");
  }
  prep.parameterized_query = std::move(pq.text);
  prep.lang = lang;
  prep.plan_key = key;
  prep.glogue_epoch = stats.epoch;
  prep.required_params = std::move(pq.required_params);
  // Cache the binding-independent plan; this call's extracted literals are
  // attached only to the returned copy. A concurrent Prepare of the same
  // shape may race to Put — both plans are equivalent, last write wins.
  if (opts_.enable_plan_cache) plan_cache_->Put(key, prep);
  prep.params = std::move(pq.bindings);
  return prep;
}

ResultTable GOptEngine::RunPhysical(const PhysOpPtr& root,
                                    const PipelinePlan* pipelines,
                                    const ParamMap& bound,
                                    ExecStats* stats,
                                    const CancelToken& cancel) const {
  // A fresh executor per call: all execution state (results, stats) is
  // call-local, so any number of Execute calls may run concurrently on one
  // engine. Every pipeline gets the pool's threads plus the calling thread
  // as worker slots; at one slot every morsel runs inline.
  PipelinePlan local;
  if (pipelines == nullptr) {
    local = BuildExecPipelines(root);
    pipelines = &local;
  }
  MorselOptions mopts;
  mopts.vectorize = opts_.vectorize;
  MorselExecutor ex(g_, mopts, store_.get(), pool_.get());
  ex.set_params(&bound);
  ex.set_cancel(cancel);
  ResultTable table = ex.Execute(root, pipelines);
  *stats = ex.stats();
  return table;
}

ExecOutcome GOptEngine::Execute(const Prepared& prep, const ParamMap& params,
                                CancelToken cancel) const {
  // Resolve the effective bindings (user-supplied over auto-extracted) and
  // reject unbound slots before any operator runs.
  ParamMap bound = prep.params;
  for (const auto& [name, value] : params) bound[name] = value;
  for (const auto& name : prep.required_params) {
    if (!bound.count(name)) {
      throw std::runtime_error("Execute: unbound parameter $" + name +
                               " (bind it via the params argument)");
    }
  }
  // A run that yields no rows (invalid plan, cancelled run): an empty
  // table with the plan's output columns, plus the result-cache counters.
  auto empty_outcome = [&] {
    ExecOutcome o;
    auto empty = std::make_shared<ResultTable>();
    empty->columns = prep.output_columns;
    o.table_ptr = std::move(empty);
    if (result_cache_) o.stats.result_cache = result_cache_->stats();
    return o;
  };
  if (prep.invalid || !prep.physical) return empty_outcome();
  ExecOutcome out;
  // Result-cache consult: keyed by the scoped plan key plus the effective
  // values of exactly the parameters the plan reads. A hit is zero-copy —
  // the cached immutable table is shared, no operator runs.
  std::string rkey;
  if (result_cache_) {
    rkey = ResultCacheKey(prep.plan_key, prep.required_params, bound);
    if (std::shared_ptr<const CachedResult> hit = result_cache_->Get(rkey)) {
      out.table_ptr = hit->table;
      out.stats.rows_produced = hit->rows_produced;
      out.stats.result_cache_hit = true;
      out.stats.result_cache = result_cache_->stats();
      return out;
    }
  }
  auto t0 = std::chrono::steady_clock::now();
  auto ms_since_t0 = [&t0] {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - t0)
               .count() /
           1000.0;
  };
  std::shared_ptr<ResultTable> table;
  try {
    // An already-tripped token (e.g. the budget expired while queued or
    // during planning) aborts before any operator runs.
    cancel.Check();
    table = std::make_shared<ResultTable>(
        RunPhysical(prep.physical, prep.exec_pipelines.get(), bound,
                    &out.stats, cancel));
    // A row budget can trip on the final operator's own output, after the
    // runtime's last boundary check — the run "finished" but violated its
    // budget, so it types as cancelled like any other trip.
    cancel.Check();
  } catch (const CancelledError& e) {
    // Typed outcome: the partial stats are discarded (a half-run's counts
    // would poison parity checks), the table is empty, and the result
    // cache is never populated from a cancelled run.
    ExecOutcome cancelled = empty_outcome();
    cancelled.status = e.status();
    cancelled.ms = ms_since_t0();
    return cancelled;
  }
  out.table_ptr = table;
  out.ms = ms_since_t0();
  if (result_cache_) {
    CachedResult entry;
    entry.table = table;
    entry.rows_produced = out.stats.rows_produced;
    result_cache_->Put(rkey,
                       PlanCacheScope{g_->instance_id(), prep.glogue_epoch},
                       std::move(entry));
    out.stats.result_cache = result_cache_->stats();
  }
  return out;
}

ExecOutcome GOptEngine::Run(const std::string& query, Language lang) const {
  return Execute(Prepare(query, lang));
}

ExecOutcome GOptEngine::Run(const std::string& query, const ParamMap& params,
                            Language lang) const {
  return Execute(Prepare(query, lang), params);
}

std::string GOptEngine::Explain(const Prepared& prep) const {
  std::string s;
  if (!prep.required_params.empty()) {
    s += "=== Parameters ===\n";
    for (const auto& name : prep.required_params) {
      auto it = prep.params.find(name);
      s += StrFormat("  $%s = %s\n", name.c_str(),
                     it != prep.params.end() ? it->second.ToString().c_str()
                                             : "<unbound>");
    }
  }
  {
    const PlanCacheStats stats = plan_cache_stats();
    s += "=== Cache ===\n";
    s += StrFormat("  this plan: %s\n",
                   prep.from_cache ? "plan cache hit" : "cold planning");
    s += StrFormat(
        "  plan cache (%s): %zu entries, %llu hits / %llu misses / %llu "
        "evictions (hit rate %.1f%%)\n",
        // "shared" whenever the handle is reachable outside this engine —
        // injected at construction or handed out via plan_cache() — since
        // then the counters may aggregate other engines' traffic.
        plan_cache_.use_count() > 1 ? "shared" : "private", stats.entries,
        static_cast<unsigned long long>(stats.hits),
        static_cast<unsigned long long>(stats.misses),
        static_cast<unsigned long long>(stats.evictions),
        // One snapshot, all series derived from it — the consistency rule
        // CacheHitRatio documents.
        100.0 * CacheHitRatio(stats));
    if (result_cache_) {
      const CacheStats rs = result_cache_->stats();
      s += StrFormat(
          "  result cache (%s): %zu entries, %zu / %zu bytes, %llu hits / "
          "%llu misses / %llu evictions (hit rate %.1f%%)\n",
          result_cache_.use_count() > 1 ? "shared" : "private", rs.entries,
          rs.bytes, result_cache_->byte_budget(),
          static_cast<unsigned long long>(rs.hits),
          static_cast<unsigned long long>(rs.misses),
          static_cast<unsigned long long>(rs.evictions),
          100.0 * CacheHitRatio(rs));
    } else {
      s += "  result cache: disabled\n";
    }
  }
  if (store_) {
    s += "=== Partitions ===\n";
    std::string desc = store_->Describe();
    // Indent the store description under the section header.
    size_t pos = 0;
    while (pos < desc.size()) {
      size_t nl = desc.find('\n', pos);
      if (nl == std::string::npos) nl = desc.size();
      s += "  " + desc.substr(pos, nl - pos) + "\n";
      pos = nl + 1;
    }
  }
  s += "=== Logical plan (GIR) ===\n";
  s += prep.logical->ToString(g_->schema());
  if (prep.trace) {
    s += StrFormat("=== Planner trace%s ===\n",
                   prep.from_cache ? " (plan cache hit)" : "");
    s += prep.trace->ToString();
  }
  if (prep.invalid) {
    s += "=== INVALID: type inference found no matching types ===\n";
    return s;
  }
  s += "=== Pattern plans ===\n";
  for (const auto& [op, plan] : prep.pattern_plans) {
    if (plan) s += plan->ToString(g_->schema());
  }
  s += "=== Physical plan (" + backend_.name + ") ===\n";
  s += prep.physical->ToString(g_->schema());
  {
    // Count distinct operators whose kernel has a vectorized fast path
    // (DAG nodes once). Dispatch is still decided per call from the actual
    // inputs; this only says which steps are eligible.
    std::set<const PhysOp*> seen;
    size_t eligible = 0, total = 0;
    std::function<void(const PhysOpPtr&)> walk = [&](const PhysOpPtr& op) {
      if (!op || !seen.insert(op.get()).second) return;
      ++total;
      if (HasVectorizedFastPath(op->kind)) ++eligible;
      for (const PhysOpPtr& c : op->children) walk(c);
    };
    walk(prep.physical);
    s += StrFormat(
        "  vectorize: %s, %zu of %zu operators have a fast path\n",
        opts_.vectorize ? "on" : "off", eligible, total);
  }
  s += "=== Pipelines (morsel runtime) ===\n";
  s += prep.exec_pipelines ? prep.exec_pipelines->ToString()
                           : BuildExecPipelines(prep.physical).ToString();
  return s;
}

std::string GOptEngine::Explain(const Prepared& prep,
                                const ExecOutcome& outcome) const {
  std::string s = Explain(prep);
  s += "=== Execution ===\n";
  s += StrFormat("  %zu rows returned, %.3f ms, %llu rows produced\n",
                 outcome.table().NumRows(), outcome.ms,
                 static_cast<unsigned long long>(outcome.stats.rows_produced));
  if (outcome.queue_ms > 0) {
    // Admission wait of the serving layer (docs/serving.md), reported
    // apart from `ms` so execution time stays comparable across queued
    // and direct calls.
    s += StrFormat("  queued %.3f ms before execution (admission wait)\n",
                   outcome.queue_ms);
  }
  if (outcome.status != ExecStatus::kOk) {
    s += StrFormat("  status: %s — no rows, partial stats discarded\n",
                   ExecStatusName(outcome.status));
  }
  if (outcome.stats.result_cache_hit) {
    s += "  result cache hit: served zero-copy, no operator ran\n";
  }
  bool any_factorized = false;
  for (const PipelineStat& p : outcome.stats.pipelines) {
    any_factorized = any_factorized || p.factorized;
  }
  if (any_factorized && outcome.stats.tuples_materialized > 0) {
    s += StrFormat(
        "  factorized: %llu tuples materialized for %llu rows produced "
        "(%.2fx compression)\n",
        static_cast<unsigned long long>(outcome.stats.tuples_materialized),
        static_cast<unsigned long long>(outcome.stats.rows_produced),
        static_cast<double>(outcome.stats.rows_produced) /
            static_cast<double>(outcome.stats.tuples_materialized));
  }
  if (outcome.stats.vec_dispatch > 0 || outcome.stats.gen_dispatch > 0) {
    s += StrFormat(
        "  dispatch: %llu vectorized / %llu generic kernel calls\n",
        static_cast<unsigned long long>(outcome.stats.vec_dispatch),
        static_cast<unsigned long long>(outcome.stats.gen_dispatch));
  }
  if (outcome.stats.exchanges > 0 || outcome.stats.comm_rows > 0) {
    s += StrFormat("  %llu exchanges, %llu rows exchanged\n",
                   static_cast<unsigned long long>(outcome.stats.exchanges),
                   static_cast<unsigned long long>(outcome.stats.comm_rows));
  }
  if (outcome.stats.partitions > 0) {
    s += StrFormat("  %d partitions, store edge-cut %llu, vertex balance "
                   "%.2f (max/mean)\n",
                   outcome.stats.partitions,
                   static_cast<unsigned long long>(
                       outcome.stats.store_cut_edges),
                   outcome.stats.store_vertex_balance);
    uint64_t total_rows = 0, max_rows = 0;
    for (size_t p = 0; p < outcome.stats.partition_rows.size(); ++p) {
      total_rows += outcome.stats.partition_rows[p];
      max_rows = std::max(max_rows, outcome.stats.partition_rows[p]);
      s += StrFormat("  p%zu: %llu rows\n", p,
                     static_cast<unsigned long long>(
                         outcome.stats.partition_rows[p]));
    }
    if (total_rows > 0) {
      // Per-run row skew: max/mean rows per partition.
      s += StrFormat(
          "  rows balance %.2f (max/mean)\n",
          static_cast<double>(max_rows) * outcome.stats.partition_rows.size() /
              static_cast<double>(total_rows));
    }
  }
  for (const PipelineStat& p : outcome.stats.pipelines) {
    s += StrFormat(
        "  P%d: %s — %llu morsels, %llu rows, %d thread%s, %.3f ms\n", p.id,
        p.desc.c_str(), static_cast<unsigned long long>(p.morsels),
        static_cast<unsigned long long>(p.rows_out), p.threads,
        p.threads == 1 ? "" : "s", p.ms);
    if (p.factorized) {
      s += StrFormat(
          "      factorized: %llu logical rows as %llu tuples "
          "(%llu groups, %.2fx), %d flatten point%s\n",
          static_cast<unsigned long long>(p.chain_rows),
          static_cast<unsigned long long>(p.chain_tuples),
          static_cast<unsigned long long>(p.groups),
          p.chain_tuples == 0
              ? 1.0
              : static_cast<double>(p.chain_rows) /
                    static_cast<double>(p.chain_tuples),
          p.flatten_points, p.flatten_points == 1 ? "" : "s");
    }
    if (p.vec_dispatch > 0 || p.gen_dispatch > 0) {
      s += StrFormat(
          "      dispatch: %llu vectorized / %llu generic\n",
          static_cast<unsigned long long>(p.vec_dispatch),
          static_cast<unsigned long long>(p.gen_dispatch));
    }
  }
  return s;
}

}  // namespace gopt
