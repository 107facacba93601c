#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/cancel.h"
#include "src/gir/logical_op.h"
#include "src/opt/cbo.h"
#include "src/opt/pipeline/planner_options.h"
#include "src/physical/physical_op.h"

namespace gopt {

class PropertyGraph;
class Glogue;
class GlogueQuery;
class WorkerPool;

/// One PassManager::Run step as recorded in the PlanTrace: which pass, how
/// long it took, whether it was skipped (condition false or plan already
/// proven invalid), and a free-form diagnostic line from the pass.
struct PassTraceEntry {
  std::string pass;
  double ms = 0;
  bool skipped = false;
  std::string note;
};

/// One pattern's share of the CBO pass: multi-pattern queries plan their
/// patterns on the engine's worker pool, and each pattern records its own
/// wall-clock planning time here (`ms` may overlap with the other
/// patterns' when they planned on different threads).
struct CboPatternTiming {
  int index = 0;        ///< position in the GIR's leaf-first pattern order
  size_t vertices = 0;  ///< pattern size
  size_t edges = 0;
  double ms = 0;  ///< this pattern's own planning wall-clock
};

/// Per-Prepare planning diagnostics: every pass exactly once, in pipeline
/// order, with wall-clock timings — the planner-side counterpart of
/// ExecStats. Surfaced through GOptEngine::Explain.
struct PlanTrace {
  std::vector<PassTraceEntry> passes;
  double total_ms = 0;
  size_t fired_rule_count = 0;

  /// Per-pattern CBO records (empty when the cbo pass never ran).
  std::vector<CboPatternTiming> cbo_patterns;

  const PassTraceEntry* Find(const std::string& pass_name) const;
  std::string ToString() const;
};

/// The mutable state a planning pipeline threads through its passes: the
/// inputs (query text, graph, options, statistics handles) are set once by
/// the engine; each pass advances the evolving plan state (GIR -> annotated
/// GIR -> pattern plans -> physical plan).
struct PlanContext {
  // ---- inputs (fixed for the whole pipeline run) ----
  /// The text the parse pass lowers. When the engine auto-parameterizes,
  /// this is the canonical parameterized stream ($__pN slots in place of
  /// extracted literals), so the produced plan is binding-independent.
  std::string query;
  Language lang = Language::kCypher;
  const PropertyGraph* graph = nullptr;
  const BackendSpec* exec_backend = nullptr;
  const Glogue* glogue = nullptr;
  const GlogueQuery* gq_high = nullptr;
  const GlogueQuery* gq_low = nullptr;
  /// Communication profile of the engine's (optionally sharded) store:
  /// the CBO scales its exchange costs by the measured edge-cut. Null =
  /// unpartitioned store, every exchanged row charged.
  const CommProfile* comm = nullptr;
  /// Cooperative cancellation of planning (docs/serving.md): the
  /// PassManager checks it between passes and the CBO's per-pattern worker
  /// tasks check it before planning each pattern, so a timed-out query
  /// does not plan all remaining patterns. Default token: never cancelled.
  CancelToken cancel;
  /// The engine's worker pool, which the CBO pass plans multi-pattern
  /// queries' patterns on (the calling thread taking part). Null: plan
  /// every pattern inline.
  WorkerPool* pool = nullptr;

  // ---- evolving plan state ----
  LogicalOpPtr logical;
  bool invalid = false;  ///< type inference proved the pattern unmatchable
  std::vector<std::string> fired_rules;
  std::map<const LogicalOp*, PatternPlanPtr> pattern_plans;
  PhysOpPtr physical;
  std::vector<std::string> output_columns;

  // ---- diagnostics ----
  PlanTrace trace;
  /// Scratch note for the pass currently running; the PassManager moves it
  /// into that pass's PassTraceEntry and clears it.
  std::string pass_note;
};

/// One planning stage (parse, a rewrite phase, statistics-based planning,
/// lowering, ...). Passes are the unit of composition: PlannerMode presets
/// and EngineOptions toggles select and configure passes instead of
/// branching inside the engine (the pipeline builders live in
/// pipelines.h; the concrete passes in passes.h).
class PlannerPass {
 public:
  virtual ~PlannerPass() = default;
  /// Stable identifier used in PlanTrace entries and tests ("parse",
  /// "rbo", "cbo", ...).
  virtual std::string Name() const = 0;
  /// Advances ctx one stage. May throw (e.g. parse errors) — the
  /// PassManager lets exceptions propagate to the Prepare caller. A pass
  /// can leave a one-line diagnostic in ctx.pass_note.
  virtual void Run(PlanContext& ctx) = 0;
};

using PlannerPassPtr = std::unique_ptr<PlannerPass>;

}  // namespace gopt
