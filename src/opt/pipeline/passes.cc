#include "src/opt/pipeline/passes.h"

#include <chrono>
#include <functional>
#include <set>

#include "src/common/rng.h"
#include "src/common/str_format.h"
#include "src/common/worker_pool.h"
#include "src/graph/property_graph.h"
#include "src/lang/cypher_parser.h"
#include "src/lang/gremlin_parser.h"
#include "src/meta/glogue_query.h"
#include "src/opt/rbo.h"
#include "src/opt/type_inference.h"
#include "src/physical/converter.h"

namespace gopt {

void ParsePass::Run(PlanContext& ctx) {
  if (ctx.lang == Language::kCypher) {
    CypherParser parser(&ctx.graph->schema());
    ctx.logical = parser.Parse(ctx.query);
  } else {
    GremlinParser parser(&ctx.graph->schema());
    ctx.logical = parser.Parse(ctx.query);
  }
  ctx.pass_note = ctx.lang == Language::kCypher ? "cypher" : "gremlin";
}

void RboPass::Run(PlanContext& ctx) {
  HepPlanner planner;
  for (auto& r : DefaultRules(cfg_.enable_agg_pushdown)) {
    if (!cfg_.rule_filter.empty()) {
      bool keep = false;
      for (const auto& name : cfg_.rule_filter) {
        if (r->Name() == name) keep = true;
      }
      if (!keep) continue;
    }
    planner.AddRule(std::move(r));
  }
  size_t before = ctx.fired_rules.size();
  ctx.logical =
      planner.Optimize(ctx.logical, ctx.graph->schema(), &ctx.fired_rules);
  ctx.pass_note = StrFormat("%zu rules registered, %zu fired",
                            planner.NumRules(), ctx.fired_rules.size() - before);
}

void FieldTrimPass::Run(PlanContext& ctx) { ctx.logical = FieldTrim(ctx.logical); }

void TypeInferencePass::Run(PlanContext& ctx) {
  int patterns = 0;
  std::set<const LogicalOp*> visited;
  std::function<bool(const LogicalOpPtr&)> infer =
      [&](const LogicalOpPtr& op) -> bool {
    if (!visited.insert(op.get()).second) return true;
    for (const auto& in : op->inputs) {
      if (!infer(in)) return false;
    }
    if (op->kind == LogicalOpKind::kMatchPattern ||
        op->kind == LogicalOpKind::kPatternExtend) {
      ++patterns;
      TypeInferenceResult r = InferTypes(op->pattern, ctx.graph->schema());
      if (!r.valid) return false;
      op->pattern = std::move(r.pattern);
    }
    return true;
  };
  if (!infer(ctx.logical)) {
    ctx.invalid = true;
    ctx.output_columns = ctx.logical->OutputAliases();
    ctx.pass_note = "proved pattern unmatchable";
    return;
  }
  ctx.pass_note = StrFormat("%d patterns validated", patterns);
}

namespace {

/// Collects MATCH_PATTERN nodes (DAG-deduplicated, leaf-first).
void CollectPatterns(const LogicalOpPtr& op, std::vector<LogicalOpPtr>* out) {
  for (const auto& in : op->inputs) CollectPatterns(in, out);
  if (op->kind == LogicalOpKind::kMatchPattern) {
    for (const auto& existing : *out) {
      if (existing.get() == op.get()) return;
    }
    out->push_back(op);
  }
}

}  // namespace

namespace {

bool ContainsMatchPattern(const LogicalOpPtr& op) {
  if (op->kind == LogicalOpKind::kMatchPattern) return true;
  for (const auto& in : op->inputs) {
    if (ContainsMatchPattern(in)) return true;
  }
  return false;
}

}  // namespace

bool CboPass::HasPatterns(const PlanContext& ctx) {
  return ContainsMatchPattern(ctx.logical);
}

void CboPass::Run(PlanContext& ctx) {
  const GlogueQuery* gq =
      cfg_.high_order_stats ? ctx.gq_high : ctx.gq_low;
  GlogueQuery crude(ctx.glogue, &ctx.graph->schema(), /*high_order=*/false,
                    /*endpoint_filtered=*/false);
  if (cfg_.crude_stats) gq = &crude;
  const BackendSpec* backend =
      cfg_.planning_backend ? &*cfg_.planning_backend : ctx.exec_backend;

  std::vector<LogicalOpPtr> matches;
  CollectPatterns(ctx.logical, &matches);
  const size_t n = matches.size();

  // Per-pattern searches are independent (each task owns its optimizer and
  // Rng; GlogueQuery memoization is internally synchronized), so
  // multi-pattern queries plan on the engine's worker pool, the calling
  // thread included. Results land in per-index slots — no cross-task
  // mutation.
  std::vector<PatternPlanPtr> plans(n);
  std::vector<double> pattern_ms(n, 0.0);
  std::vector<size_t> searched(n, 0), pruned(n, 0);
  auto plan_one = [&](size_t i) {
    auto t0 = std::chrono::steady_clock::now();
    // Per-pattern cancellation check (satellite of docs/serving.md): a
    // query whose budget tripped while earlier patterns planned skips
    // every remaining pattern instead of planning them all. ParallelFor
    // rethrows the first error once every started pattern has finished.
    ctx.cancel.Check();
    GraphOptimizer optimizer(gq, backend, ctx.comm);
    const Pattern& p = matches[i]->pattern;
    switch (cfg_.strategy) {
      case Strategy::kRandom: {
        Rng rng(static_cast<uint64_t>(cfg_.random_seed));
        plans[i] = optimizer.RandomPlan(p, &rng);
        break;
      }
      case Strategy::kGreedy:
        plans[i] = optimizer.GreedyPlan(p);
        break;
      case Strategy::kExhaustive:
        plans[i] = optimizer.Optimize(p);
        break;
      case Strategy::kUserOrder:
        plans[i] = optimizer.UserOrderPlan(p);
        break;
    }
    searched[i] = optimizer.searched_subpatterns;
    pruned[i] = optimizer.pruned_branches;
    auto t1 = std::chrono::steady_clock::now();
    pattern_ms[i] =
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count() /
        1e6;
  };
  ParallelFor(ctx.pool, n, plan_one);

  size_t total_searched = 0, total_pruned = 0;
  for (size_t i = 0; i < n; ++i) {
    ctx.pattern_plans[matches[i].get()] = plans[i];
    total_searched += searched[i];
    total_pruned += pruned[i];
    CboPatternTiming t;
    t.index = static_cast<int>(i);
    t.vertices = matches[i]->pattern.NumVertices();
    t.edges = matches[i]->pattern.NumEdges();
    t.ms = pattern_ms[i];
    ctx.trace.cbo_patterns.push_back(t);
  }
  const char* strat = cfg_.strategy == Strategy::kExhaustive ? "exhaustive"
                      : cfg_.strategy == Strategy::kGreedy   ? "greedy"
                      : cfg_.strategy == Strategy::kRandom   ? "random"
                                                             : "user-order";
  ctx.pass_note =
      StrFormat("%s over %zu patterns, %zu subpatterns searched, %zu pruned",
                strat, n, total_searched, total_pruned);
}

void PhysicalConversionPass::Run(PlanContext& ctx) {
  ConvertOptions copts;
  copts.semantics = cfg_.semantics;
  PhysicalConverter converter(&ctx.graph->schema(), copts);
  ctx.physical = converter.Convert(ctx.logical, ctx.pattern_plans);
  ctx.output_columns = ctx.physical->out_cols;
}

}  // namespace gopt
