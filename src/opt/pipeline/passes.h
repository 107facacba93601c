#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/opt/pipeline/pass.h"

namespace gopt {

/// Lowers the query text into the unified GIR via the language frontend
/// selected by PlanContext::lang (Cypher or Gremlin).
class ParsePass : public PlannerPass {
 public:
  std::string Name() const override { return "parse"; }
  void Run(PlanContext& ctx) override;
};

/// Rule-based optimization: drives the HepPlanner to fixpoint over the
/// configured rule set (paper Section 6.1). Appends fired rule names to
/// PlanContext::fired_rules.
class RboPass : public PlannerPass {
 public:
  struct Config {
    bool enable_agg_pushdown = true;
    /// When non-empty, only the named rules run (Fig. 8(e) baselines).
    std::vector<std::string> rule_filter;
  };
  explicit RboPass(Config cfg) : cfg_(std::move(cfg)) {}
  std::string Name() const override { return "rbo"; }
  void Run(PlanContext& ctx) override;

 private:
  Config cfg_;
};

/// Whole-plan FieldTrim: annotates pattern operators with the aliases /
/// properties actually consumed downstream and prunes unused PROJECT
/// outputs (paper Section 6.1).
class FieldTrimPass : public PlannerPass {
 public:
  std::string Name() const override { return "field_trim"; }
  void Run(PlanContext& ctx) override;
};

/// Automatic type inference and validation (paper Algorithm 1) over every
/// MATCH_PATTERN / PATTERN_EXTEND node. Marks the context invalid when a
/// pattern admits no types (the query provably matches nothing).
class TypeInferencePass : public PlannerPass {
 public:
  std::string Name() const override { return "type_inference"; }
  void Run(PlanContext& ctx) override;
};

/// Pattern planning (paper Algorithm 2 or one of its baselines): assigns a
/// PatternPlan to every MATCH_PATTERN node in the GIR. Multi-pattern
/// queries run the per-pattern searches — which are independent of each
/// other — on PlanContext::pool, recording per-pattern timings in
/// PlanTrace::cbo_patterns.
class CboPass : public PlannerPass {
 public:
  enum class Strategy {
    kExhaustive,  ///< Algorithm 2 top-down search (the real CBO)
    kGreedy,      ///< greedy initial solution only (CypherPlanner-style)
    kUserOrder,   ///< textual edge order (GS-plan / unoptimized baseline)
    kRandom,      ///< seeded random order (Fig. 8(c) randomized baselines)
  };
  struct Config {
    Strategy strategy = Strategy::kExhaustive;
    bool high_order_stats = true;
    /// Unfiltered low-order estimation (the kNeo4jStyle crude estimator).
    bool crude_stats = false;
    /// Cost model override; the execution backend's spec when unset.
    std::optional<BackendSpec> planning_backend;
    int64_t random_seed = 0;  ///< used by Strategy::kRandom
  };
  explicit CboPass(Config cfg) : cfg_(std::move(cfg)) {}
  std::string Name() const override { return "cbo"; }
  void Run(PlanContext& ctx) override;

  /// True if the GIR contains at least one MATCH_PATTERN node — the
  /// conditional-pass predicate pattern planning is registered under.
  static bool HasPatterns(const PlanContext& ctx);

 private:
  Config cfg_;
};

/// Lowers the optimized GIR plus the chosen pattern plans into the
/// backend-executable physical operator tree (paper Section 7).
class PhysicalConversionPass : public PlannerPass {
 public:
  struct Config {
    MatchSemantics semantics = MatchSemantics::kHomomorphism;
  };
  explicit PhysicalConversionPass(Config cfg) : cfg_(cfg) {}
  std::string Name() const override { return "physical_conversion"; }
  void Run(PlanContext& ctx) override;

 private:
  Config cfg_;
};

}  // namespace gopt
