#pragma once

#include <map>
#include <string>
#include <vector>

#include "src/physical/physical_op.h"

namespace gopt {

/// One linear pipeline of a decomposed physical plan: rows stream from the
/// source through the chain of streaming operators and end in the sink,
/// which materializes. A pipeline is the unit of morsel-parallel execution
/// — every operator inside it runs batch-at-a-time within one worker, so
/// no synchronization happens between source and sink.
struct Pipeline {
  int id = 0;

  /// Where input comes from. Exactly one of the two shapes:
  ///  - a vertex scan (`source_is_scan`): morsels are slices of the scan
  ///    domain, produced by Kernels::ScanMorsels;
  ///  - the materialized output of another pipeline's sink (`source`
  ///    points at that operator): morsels are its stored batches.
  /// Union sinks have no source at all (they only splice materialized
  /// children); `source == nullptr` then.
  const PhysOp* source = nullptr;
  bool source_is_scan = false;

  /// Streaming operators applied in order to every batch. Never includes
  /// the source scan; the sink is excluded only when it is a breaker —
  /// for a terminal-collect pipeline the sink IS the last streaming op
  /// (or the scan itself) and appears here, with no extra step to apply.
  /// HashJoin nodes appearing here are *probe* stages: their build side
  /// is a dependency pipeline.
  std::vector<const PhysOp*> ops;

  /// The operator this pipeline materializes. For a breaker (aggregate /
  /// order / limit / dedup / union) the blocking kernel runs over the
  /// collected batches; otherwise the batches are stored as-is (terminal
  /// collect — the sink is then the last streaming op or the scan itself).
  const PhysOp* sink = nullptr;

  /// Pipelines that must have completed first: producers of this
  /// pipeline's materialized source, of every HashJoin build side in
  /// `ops`, and of a union sink's children.
  std::vector<int> deps;

  /// Run the pipeline's expansions factorized (group columns sharing the
  /// prefix across the fan-out; docs/factorization.md). Chosen per
  /// pipeline by ChooseFactorization (src/opt/factorization.cc) from the
  /// EngineOptions::factorization mode; BuildPipelinePlan leaves it false.
  bool factorized = false;
  /// Parallel to `ops` when `factorized`: 1 marks an expansion whose
  /// produced columns are provably dead downstream of this pipeline, so it
  /// emits multiplicity-only groups (no per-row values at all). Empty when
  /// not factorized.
  std::vector<uint8_t> lazy_ops;
  /// Points inside or at the end of this pipeline where factorized batches
  /// are forced flat again (row-needing breaker sinks, terminal collects
  /// feeding row consumers, hash-join builds). Purely informational — the
  /// runtime flattens wherever it must regardless.
  int flatten_points = 0;

  /// True when the sink is a breaker (its blocking kernel still has to run
  /// over the collected input).
  bool sink_is_breaker() const {
    return sink != nullptr && IsPipelineBreaker(sink->kind);
  }

  /// "Scan(a) -> Expand(b) -> Select => Group" (for Explain and tests).
  std::string ToString() const;
};

/// A physical plan decomposed into pipelines, topologically ordered: every
/// pipeline's deps precede it. The last pipeline materializes the plan
/// root. Operators shared between parents (DAG plans after ComSubPattern)
/// are materialized by exactly one pipeline and consumed as sources by all
/// parents, mirroring the memoization of the materializing executors.
struct PipelinePlan {
  std::vector<Pipeline> pipelines;

  /// The pipeline materializing `op`'s output, or -1.
  int ProducerOf(const PhysOp* op) const;
  /// Parent operators consuming `op`'s output (0 for the root).
  int ConsumersOf(const PhysOp* op) const;

  std::string ToString() const;

 private:
  friend PipelinePlan BuildPipelinePlan(const PhysOpPtr& root);
  std::map<const PhysOp*, int> producer_;
  std::map<const PhysOp*, int> consumers_;
};

/// Splits the operator tree at pipeline breakers (PhysOpPipelineRole) into
/// the morsel runtime's execution schedule.
PipelinePlan BuildPipelinePlan(const PhysOpPtr& root);

}  // namespace gopt
