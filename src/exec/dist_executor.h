#pragma once

#include <map>
#include <memory>
#include <string>

#include "src/common/hash.h"
#include "src/common/cancel.h"
#include "src/common/worker_pool.h"
#include "src/exec/kernels.h"
#include "src/exec/result.h"
#include "src/store/partitioned_graph.h"

namespace gopt {

/// The GraphScope-like backend runtime: a dataflow simulator with one
/// worker per partition of a sharded PartitionedGraph.
///
/// Scans read each partition's owned vertex lists and exchange targets come
/// from the store's ownership map. Exchange placement is *lazy*: a stream
/// stays partitioned by the vertex column it was last distributed on, and
/// rows move only when the next expansion reads adjacency of a
/// differently-partitioned column, so comm_rows is a true edge-cut metric
/// (a chain's final expansion, whose target no operator expands from,
/// ships nothing).
///
/// Data flows as one stream of columnar Batches per worker, and every
/// operator calls the shared batch kernels directly: streaming operators
/// map each batch of a stream, breakers (aggregate, order, dedup, join
/// build) take a worker's whole stream and return one batch, as in the
/// morsel runtime. Exchanges scatter batch rows into one Batch per target
/// worker.
///
/// Joins, aggregates and dedups hash-exchange on their keys; ORDER does a
/// local top-k then a k-way merge of the sorted per-worker lists at worker
/// 0. Exchanged rows are counted in ExecStats::comm_rows, the quantity the
/// paper's distributed cost model charges as communication cost.
///
/// Implements ExpandIntersect (WCOJ-style vertex expansion) and two-phase
/// aggregation (GroupLocal / GroupGlobal, Fig. 3(d) in the paper).
///
/// Threads: the per-worker work of one operator runs as WorkerPool tasks
/// on the caller-supplied pool (the engine's, shared by every query), with
/// the calling thread taking part; stages with fewer than kInlineStageRows
/// input rows, and every stage when no pool is given, run inline on the
/// calling thread. A kernel exception thrown on any thread reaches the
/// Execute caller. Exchanges, stats and the operator memo stay on the
/// calling thread.
///
/// Thread-confinement: one executor instance belongs to one Execute call
/// at a time (it carries per-run memo/stats state). GOptEngine constructs
/// a fresh executor per Execute, so engine-level Execute calls may run
/// concurrently.
class DistributedExecutor {
 public:
  /// Stages whose input holds fewer rows than this run inline: handing
  /// them to the pool costs more than it saves. Results are identical
  /// either way.
  static constexpr size_t kInlineStageRows = 2048;

  /// One worker per partition of `pg`, which must outlive the executor.
  /// `pool` (optional, must outlive Execute) runs the per-worker stages.
  DistributedExecutor(const PropertyGraph* g, const PartitionedGraph& pg,
                      WorkerPool* pool = nullptr)
      : k_(g, &pg), pg_(pg), pool_(pool), workers_(pg.num_partitions()) {}

  ResultTable Execute(const PhysOpPtr& root);

  const ExecStats& stats() const { return stats_; }

  /// Parameter bindings for $name slots in the plan's expressions; must
  /// outlive Execute (the map is read concurrently by pool tasks, which is
  /// safe because execution only ever reads it).
  void set_params(const ParamMap* params) { k_.set_params(params); }

  /// Enables/disables the kernels' vectorized fast paths (bit-identical
  /// results either way; see Kernels::set_vectorize).
  void set_vectorize(bool on) { k_.set_vectorize(on); }

  /// Cooperative cancellation (docs/serving.md): the control thread checks
  /// the token before every operator (the dataflow steps of this
  /// simulator), so a trip aborts between exchanges/operators by throwing
  /// CancelledError out of Execute.
  void set_cancel(CancelToken cancel) { cancel_ = std::move(cancel); }

 private:
  /// A distributed table: one Batch stream per worker.
  using Parts = std::vector<std::vector<Batch>>;
  using PartsPtr = std::shared_ptr<Parts>;

  PartsPtr Run(const PhysOpPtr& op);
  /// The memoized output `parts` of `child`, for a consumer that drains
  /// it: moved out when that consumer is the only one, else copied.
  Parts Take(const PhysOp* child, const PartsPtr& parts);

  /// Runs fn(w) for every worker w: on the pool when the stage's input
  /// holds at least kInlineStageRows rows, else inline.
  template <typename F>
  void ForEachWorker(size_t input_rows, const F& fn) const;
  /// Applies a batch-in/batch-out kernel to every batch of every worker's
  /// stream, keeping the non-empty outputs in order.
  template <typename F>
  Parts MapBatches(const Parts& in, const F& kernel) const;
  /// Runs a breaker kernel over each worker's whole stream; its output
  /// batch, when non-empty, becomes that worker's stream.
  template <typename F>
  Parts MapStreams(const Parts& in, const F& kernel) const;

  /// Moves every active row of `in` to the worker `target(batch, row)`
  /// names, preserving order (source worker, then stream order); counts
  /// one exchange and every row that changes worker as communication.
  template <typename F>
  Parts Exchange(Parts in, const F& target);
  /// Re-partitions rows by a hash of the given column indices (empty:
  /// everything to worker 0).
  Parts ExchangeByKey(Parts in, const std::vector<int>& key_idx);
  /// Re-partitions by the store's owner of the vertex in column `idx`
  /// (non-vertex values go to worker 0).
  Parts ExchangeByVertex(Parts in, int idx);

  /// The vertex tag an expansion reads adjacency from (the column its
  /// input must be partitioned by); empty when none.
  static const std::string& ExpandSourceTag(const PhysOp& op);
  /// Re-distributes `in` by owner of `tag` unless the stream is already
  /// partitioned that way; returns the parts to expand and records the
  /// stream's new partitioning tag in `cur_tag`. A single-consumer child
  /// stream is drained in place; one shared by several parents (DAG plans)
  /// is exchanged as a copy.
  const Parts* StageForExpansion(const PhysOp& op, const PartsPtr& in,
                                 Parts* staged, std::string* cur_tag);

  Kernels k_;
  const PartitionedGraph& pg_;
  WorkerPool* pool_;
  int workers_;
  CancelToken cancel_;
  ExecStats stats_;
  std::map<const PhysOp*, PartsPtr> memo_;
  /// The vertex tag each memoized stream is currently ownership-partitioned
  /// by ("" = no meaningful partitioning, e.g. after a key exchange or
  /// gather).
  std::map<const PhysOp*, std::string> owner_tag_;
  /// Parent count per node, so single-consumer streams can be consumed in
  /// place (staging exchanges, filters) instead of copied.
  std::map<const PhysOp*, int> consumers_;
};

}  // namespace gopt
