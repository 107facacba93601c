#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/physical/physical_op.h"

namespace gopt {

/// Where a distributed plan re-partitions rows (docs/executor.md). Column
/// indices refer to the rows being exchanged.
struct ExchangeSpec {
  enum class Kind : uint8_t {
    kNone,       ///< rows stay on the partition that produced them
    kOwner,      ///< to the store owner of the vertex in column cols[0]
                 ///< (non-vertex values go to partition 0)
    kHash,       ///< by a hash of the values in `cols`
    kGroupKeys,  ///< by a hash of the sink aggregate's evaluated group keys
    kGather,     ///< everything to partition 0
  };
  Kind kind = Kind::kNone;
  std::vector<int> cols;
};

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
  /// The pipeline whose output is the materialized source (-1 for scans
  /// and splices).
  int source_pipe = -1;

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

  /// Distributed plans only: how the sink re-partitions rows. A collect
  /// sink scatters its output this way for the one consumer that needs it
  /// co-located. A breaker exchanges as its kind dictates: an aggregate
  /// exchanges its per-partition partials (kHash over the group keys) or,
  /// without partial support, its raw input rows (kGroupKeys); dedup and
  /// UNION DISTINCT exchange their input by key; ORDER gathers its
  /// per-partition top-k and LIMIT its input to partition 0 (kGather).
  ExchangeSpec exchange;

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
  /// over the collected input). A pipeline whose source is its own sink
  /// only exchanges that node's materialized output.
  bool sink_is_breaker() const {
    return sink != nullptr && sink != source && IsPipelineBreaker(sink->kind);
  }

  /// "Scan(a) -> Expand(b) -> Select => Group" (for Explain and tests),
  /// with " exchange(...)" appended where the sink re-partitions rows.
  std::string ToString() const;
};

/// A physical plan decomposed into pipelines, topologically ordered: every
/// pipeline's deps precede it. The last pipeline materializes the plan
/// root. Operators shared between parents (DAG plans after ComSubPattern)
/// are materialized by exactly one pipeline and consumed as sources by all
/// parents.
struct PipelinePlan {
  std::vector<Pipeline> pipelines;
  /// Planned for a distributed backend: breakers run once per partition
  /// and sinks carry their exchanges. Otherwise breakers run once over
  /// every partition's rows and nothing is exchanged.
  bool distributed = false;

  /// The pipeline materializing `op`'s output, or -1. When `op`'s only
  /// consumer takes it re-partitioned, that is the exchanging pipeline.
  int ProducerOf(const PhysOp* op) const;
  /// Parent operators consuming `op`'s output (0 for the root).
  int ConsumersOf(const PhysOp* op) const;
  /// The pipeline whose output `consumer` reads as its `child`-th input:
  /// a join's build side (child 1) or a union's children; -1 otherwise.
  int InputOf(const PhysOp* consumer, int child) const;
  /// How many pipelines read pipeline `id`'s output (as a source, a join
  /// build side or a union input).
  int ReadersOf(int id) const;

  std::string ToString() const;

 private:
  friend PipelinePlan BuildPipelinePlan(const PhysOpPtr& root,
                                        bool distributed);
  std::map<const PhysOp*, int> producer_;
  std::map<const PhysOp*, int> consumers_;
  std::map<std::pair<const PhysOp*, int>, int> inputs_;
};

/// Splits the operator tree at pipeline breakers (PhysOpPipelineRole) into
/// the morsel runtime's execution schedule. A `distributed` plan also ends
/// a pipeline wherever rows must change partition, with the exchange on
/// its sink:
///  - before an expansion whose source vertex column the stream is not
///    partitioned by. Placement is lazy: a stream stays partitioned by the
///    vertex column it was last distributed on (a scan's alias, carried
///    through filters, pass-through projections and unfolds), so a
///    chain's final expansion, which nothing expands from, ships nothing.
///    ExpandIntersect is co-located with its first arm's source;
///  - before both inputs of a hash join (by the join keys);
///  - inside the aggregate, dedup, UNION DISTINCT, ORDER and LIMIT sinks
///    (see Pipeline::exchange).
/// Exchanged rows are the communication the paper's distributed cost
/// model charges (ExecStats::comm_rows).
PipelinePlan BuildPipelinePlan(const PhysOpPtr& root, bool distributed = false);

}  // namespace gopt
