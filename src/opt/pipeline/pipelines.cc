#include "src/opt/pipeline/pipelines.h"

#include <memory>

#include "src/opt/pipeline/passes.h"

namespace gopt {

namespace {

void AddRboPasses(PassManager& pm, const EngineOptions& opts,
                  bool agg_pushdown) {
  if (!opts.enable_rbo) return;
  RboPass::Config rcfg;
  rcfg.enable_agg_pushdown = agg_pushdown;
  rcfg.rule_filter = opts.rbo_rule_filter;
  pm.AddPass(std::make_unique<RboPass>(std::move(rcfg)));
  // A filtered rule set emulates a foreign planner; FieldTrim annotations
  // belong to the full GOpt rule phase only.
  if (opts.rbo_rule_filter.empty()) {
    pm.AddPass(std::make_unique<FieldTrimPass>());
  }
}

/// The shared strategy ladder: a seeded random order trumps everything,
/// a disabled CBO degrades to the user's textual order, and an enabled CBO
/// uses the mode's search flavor (exhaustive or greedy).
CboPass::Config MakeCboConfig(const EngineOptions& opts, bool cbo_enabled,
                              CboPass::Strategy search_flavor) {
  CboPass::Config cfg;
  if (opts.random_plan_seed >= 0) {
    cfg.strategy = CboPass::Strategy::kRandom;
    cfg.random_seed = opts.random_plan_seed;
  } else if (!cbo_enabled) {
    cfg.strategy = CboPass::Strategy::kUserOrder;
  } else {
    cfg.strategy = search_flavor;
  }
  cfg.high_order_stats = opts.high_order_stats;
  cfg.planning_backend = opts.planning_backend;
  return cfg;
}

/// Every pipeline ends with pattern planning (conditional on the GIR
/// actually containing patterns) and physical lowering.
void AddPlanningTail(PassManager& pm, const EngineOptions& opts,
                     CboPass::Config cfg) {
  pm.AddPassIf(&CboPass::HasPatterns, std::make_unique<CboPass>(std::move(cfg)),
               "no patterns in plan");
  PhysicalConversionPass::Config pcfg;
  pcfg.semantics = opts.semantics;
  pm.AddPass(std::make_unique<PhysicalConversionPass>(pcfg));
}

}  // namespace

PassManager BuildGOptPipeline(const EngineOptions& opts) {
  PassManager pm;
  pm.AddPass(std::make_unique<ParsePass>());
  AddRboPasses(pm, opts, opts.enable_agg_pushdown);
  if (opts.enable_type_inference) {
    pm.AddPass(std::make_unique<TypeInferencePass>());
  }
  AddPlanningTail(pm, opts,
                  MakeCboConfig(opts, opts.enable_cbo,
                                opts.greedy_only
                                    ? CboPass::Strategy::kGreedy
                                    : CboPass::Strategy::kExhaustive));
  return pm;
}

PassManager BuildNoOptPipeline(const EngineOptions& opts) {
  PassManager pm;
  pm.AddPass(std::make_unique<ParsePass>());
  AddPlanningTail(pm, opts,
                  MakeCboConfig(opts, /*cbo_enabled=*/false,
                                CboPass::Strategy::kUserOrder));
  return pm;
}

PassManager BuildRboOnlyPipeline(const EngineOptions& opts) {
  PassManager pm;
  pm.AddPass(std::make_unique<ParsePass>());
  AddRboPasses(pm, opts, opts.enable_agg_pushdown);
  AddPlanningTail(pm, opts,
                  MakeCboConfig(opts, /*cbo_enabled=*/false,
                                CboPass::Strategy::kUserOrder));
  return pm;
}

PassManager BuildNeo4jStylePipeline(const EngineOptions& opts) {
  PassManager pm;
  pm.AddPass(std::make_unique<ParsePass>());
  // The emulated CypherPlanner runs the heuristic rules but never the
  // aggregate pushdown Neo4j lacks.
  AddRboPasses(pm, opts, /*agg_pushdown=*/false);
  // CypherPlanner-style greedy expansion planning over crude low-order
  // statistics. The emulated planner prices patterns with expansions only
  // (the paper observes Neo4j "relies on multiple Expand" and executes s-t
  // paths single-direction); joins appear in its plans only at MATCH
  // boundaries, which stay as logical joins regardless.
  CboPass::Config cfg =
      MakeCboConfig(opts, opts.enable_cbo, CboPass::Strategy::kGreedy);
  cfg.high_order_stats = false;
  cfg.crude_stats = true;
  BackendSpec neo_costs = BackendSpec::Neo4jLike();
  neo_costs.joins.clear();
  cfg.planning_backend = std::move(neo_costs);
  AddPlanningTail(pm, opts, std::move(cfg));
  return pm;
}

PassManager BuildPipeline(const EngineOptions& opts) {
  switch (opts.mode) {
    case PlannerMode::kNoOpt:
      return BuildNoOptPipeline(opts);
    case PlannerMode::kRboOnly:
      return BuildRboOnlyPipeline(opts);
    case PlannerMode::kNeo4jStyle:
      return BuildNeo4jStylePipeline(opts);
    case PlannerMode::kGOpt:
      break;
  }
  return BuildGOptPipeline(opts);
}

}  // namespace gopt
