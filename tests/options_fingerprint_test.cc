// Reflection-style guard for OptionsFingerprint (planner_options.cc):
// every plan-affecting EngineOptions field must move the fingerprint, and
// every knob documented as non-plan-affecting (cache configuration,
// thread counts, auto-parameterization) must not. The structured binding
// below is the loud tripwire: adding or removing an EngineOptions field
// changes the aggregate's arity and fails this file's compilation, forcing
// whoever grows the struct to (a) classify the field and (b) extend the
// behavioral checks — the failure mode this guards against is a new
// plan-affecting option silently cross-serving cached plans and results
// between engines configured differently.
//
// The serving layer's knobs (ServingOptions: worker pool size, admission
// queue bound and policy, default budgets — docs/serving.md) live outside
// EngineOptions on purpose and are therefore unfingerprinted by
// construction: none of them affect produced plans. Their own
// structured-binding shape guard is in tests/serve_test.cc; a serving
// knob that ever becomes plan-affecting must move into EngineOptions and
// get classified here.
#include <gtest/gtest.h>

#include "src/engine/result_cache.h"
#include "src/opt/pipeline/planner_options.h"
#include "src/opt/pipeline/shared_plan_cache.h"

namespace gopt {
namespace {

/// Compile-time arity check: exactly 26 fields. If this line fails to
/// compile, EngineOptions changed shape — update the binding AND add the
/// new field to either ChangesFingerprint or LeavesFingerprintAlone below.
void StaticFieldCountGuard() {
  EngineOptions o;
  auto& [mode, enable_rbo, enable_type_inference, enable_cbo,
         high_order_stats, enable_agg_pushdown, greedy_only, semantics,
         glogue_k, glogue_sample_rate, random_plan_seed, planning_backend,
         rbo_rule_filter, exec_threads, partitions, partition_policy,
         partition_refine_sweeps, partition_balance_cap, factorization,
         vectorize, enable_plan_cache, plan_cache_capacity, plan_cache,
         result_cache_bytes, result_cache, auto_parameterize] = o;
  (void)mode;
  (void)enable_rbo;
  (void)enable_type_inference;
  (void)enable_cbo;
  (void)high_order_stats;
  (void)enable_agg_pushdown;
  (void)greedy_only;
  (void)semantics;
  (void)glogue_k;
  (void)glogue_sample_rate;
  (void)random_plan_seed;
  (void)planning_backend;
  (void)rbo_rule_filter;
  (void)exec_threads;
  (void)partitions;
  (void)partition_policy;
  (void)partition_refine_sweeps;
  (void)partition_balance_cap;
  (void)factorization;
  (void)vectorize;
  (void)enable_plan_cache;
  (void)plan_cache_capacity;
  (void)plan_cache;
  (void)result_cache_bytes;
  (void)result_cache;
  (void)auto_parameterize;
}

TEST(OptionsFingerprintTest, FieldCountGuardCompiles) {
  StaticFieldCountGuard();  // value is in compiling, not running
}

uint64_t FP(void (*mutate)(EngineOptions*)) {
  EngineOptions o;
  mutate(&o);
  return OptionsFingerprint(o);
}

const uint64_t kDefaultFp = OptionsFingerprint(EngineOptions{});

TEST(OptionsFingerprintTest, EveryPlanAffectingFieldChangesFingerprint) {
  EXPECT_NE(FP([](EngineOptions* o) { o->mode = PlannerMode::kNoOpt; }),
            kDefaultFp);
  EXPECT_NE(FP([](EngineOptions* o) { o->enable_rbo = false; }), kDefaultFp);
  EXPECT_NE(FP([](EngineOptions* o) { o->enable_type_inference = false; }),
            kDefaultFp);
  EXPECT_NE(FP([](EngineOptions* o) { o->enable_cbo = false; }), kDefaultFp);
  EXPECT_NE(FP([](EngineOptions* o) { o->high_order_stats = false; }),
            kDefaultFp);
  EXPECT_NE(FP([](EngineOptions* o) { o->enable_agg_pushdown = false; }),
            kDefaultFp);
  EXPECT_NE(FP([](EngineOptions* o) { o->greedy_only = true; }), kDefaultFp);
  EXPECT_NE(FP([](EngineOptions* o) {
              o->semantics = MatchSemantics::kNoRepeatedEdge;
            }),
            kDefaultFp);
  EXPECT_NE(FP([](EngineOptions* o) { o->glogue_k = 2; }), kDefaultFp);
  EXPECT_NE(FP([](EngineOptions* o) { o->glogue_sample_rate = 0.5; }),
            kDefaultFp);
  EXPECT_NE(FP([](EngineOptions* o) { o->random_plan_seed = 42; }),
            kDefaultFp);
  EXPECT_NE(FP([](EngineOptions* o) {
              o->planning_backend = BackendSpec::Neo4jLike();
            }),
            kDefaultFp);
  EXPECT_NE(FP([](EngineOptions* o) {
              o->rbo_rule_filter = {"JoinToPattern"};
            }),
            kDefaultFp);
  EXPECT_NE(FP([](EngineOptions* o) { o->partitions = 4; }), kDefaultFp);
  EXPECT_NE(FP([](EngineOptions* o) {
              o->partition_policy = PartitionPolicy::kRange;
            }),
            kDefaultFp);
  EXPECT_NE(FP([](EngineOptions* o) {
              o->partition_policy = PartitionPolicy::kEdgeCut;
            }),
            kDefaultFp);
  // The edge-cut refinement knobs shape the ownership map and the measured
  // cut ratios the CBO prices communication with.
  EXPECT_NE(FP([](EngineOptions* o) { o->partition_refine_sweeps = 2; }),
            kDefaultFp);
  EXPECT_NE(FP([](EngineOptions* o) { o->partition_balance_cap = 1.5; }),
            kDefaultFp);
  EXPECT_NE(FP([](EngineOptions* o) {
              o->factorization = FactorizationMode::kOn;
            }),
            kDefaultFp);
}

TEST(OptionsFingerprintTest, NonPlanAffectingKnobsLeaveFingerprintAlone) {
  // Thread counts never change produced plans (differential-tested), and
  // the cache knobs must not fragment keys: caching configuration cannot
  // be allowed to change what is being cached.
  EXPECT_EQ(FP([](EngineOptions* o) { o->exec_threads = 8; }), kDefaultFp);
  EXPECT_EQ(FP([](EngineOptions* o) { o->vectorize = false; }), kDefaultFp);
  EXPECT_EQ(FP([](EngineOptions* o) { o->enable_plan_cache = false; }),
            kDefaultFp);
  EXPECT_EQ(FP([](EngineOptions* o) { o->plan_cache_capacity = 1; }),
            kDefaultFp);
  EXPECT_EQ(FP([](EngineOptions* o) {
              o->plan_cache = std::make_shared<SharedPreparedPlanCache>(4);
            }),
            kDefaultFp);
  EXPECT_EQ(FP([](EngineOptions* o) { o->result_cache_bytes = 1 << 20; }),
            kDefaultFp);
  EXPECT_EQ(FP([](EngineOptions* o) {
              o->result_cache = std::make_shared<ResultCache>(1 << 20);
            }),
            kDefaultFp);
  EXPECT_EQ(FP([](EngineOptions* o) { o->auto_parameterize = false; }),
            kDefaultFp);
}

TEST(OptionsFingerprintTest, RuleFilterOrderAndSizeDiscriminate) {
  EngineOptions a, b;
  a.rbo_rule_filter = {"FilterIntoPattern", "FieldTrim"};
  b.rbo_rule_filter = {"FieldTrim", "FilterIntoPattern"};
  EXPECT_NE(OptionsFingerprint(a), OptionsFingerprint(b));
}

}  // namespace
}  // namespace gopt
