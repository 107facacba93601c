#pragma once

#include <atomic>
#include <map>
#include <vector>

#include "src/common/cancel.h"
#include "src/common/worker_pool.h"
#include "src/exec/kernels.h"
#include "src/exec/pipeline.h"
#include "src/exec/result.h"

namespace gopt {

/// Knobs of the morsel-driven runtime.
struct MorselOptions {
  /// Vertices per scan morsel (slices of the scan domain).
  size_t morsel_rows = 2048;
  /// Rows per batch when a breaker's materialized output is re-chunked
  /// into the next pipeline's morsels.
  size_t batch_rows = kDefaultBatchRows;
  /// Kernel vectorized fast paths (docs/vectorization.md). Results are
  /// bit-identical on or off; off forces every kernel through the generic
  /// path (the differential suite's baseline).
  bool vectorize = true;
};

/// Work-stealing distribution of morsel indices [0, total) over workers.
/// Each worker owns a contiguous index range packed into one atomic word
/// (begin << 32 | end): owners pop from the front of their range, and a
/// worker whose range is empty steals from the back of the largest
/// remaining victim range. All transitions are CAS on the packed word, so
/// the queue is lock-free and ThreadSanitizer-clean.
class MorselQueue {
 public:
  MorselQueue(size_t total, int workers);

  /// Explicit initial ranges, one per worker (begin/end morsel indices).
  /// Used by partitioned scans to hand each worker one whole partition's
  /// contiguous morsel run — locality-first assignment, with stealing
  /// still balancing skewed partitions.
  explicit MorselQueue(const std::vector<std::pair<size_t, size_t>>& ranges);

  /// Claims the next morsel for worker `w`; false when no work is left
  /// anywhere (after attempting to steal from every other worker).
  bool Next(int w, size_t* idx);

 private:
  struct alignas(64) Slot {
    std::atomic<uint64_t> range{0};
  };
  std::vector<Slot> slots_;
};

/// The morsel-driven, batch-at-a-time parallel runtime — the one runtime
/// of both backends: decomposes the physical plan into pipelines
/// (src/exec/pipeline.h), splits every pipeline's source into morsels, and
/// streams each morsel through the pipeline's operator chain on
/// work-stealing worker slots (run on the caller-supplied WorkerPool, the
/// calling thread included). Within a pipeline, each worker holds only the
/// one in-flight batch of its current morsel — intermediate operator
/// results are never retained. What does materialize is each pipeline's
/// *output* (the sink), kept as the next pipeline's source; pipeline
/// breakers (aggregate, sort, global limit, dedup, union, join build sides)
/// additionally see their whole input at once when their blocking kernel
/// runs.
///
/// Every materialized batch keeps the partition that holds it: a scan
/// morsel's store partition (0 without a store), inherited by everything
/// streamed from it. On a distributed plan (PipelinePlan::distributed)
/// breakers run once per partition and exchange sinks move rows between
/// partitions (ExchangeBatches), counted in ExecStats::comm_rows and
/// exchanges — the GraphScope-like backend's dataflow. On a single-machine
/// plan breakers run once over every partition's rows and put their output
/// on partition 0.
///
/// Every pipeline gets one worker slot per pool thread plus the caller.
/// Without a pool (or with a pool of zero threads) the runtime is fully
/// sequential and deterministic; with N slots, results are identical
/// (morsel outputs are reassembled in morsel order, partition-major,
/// before any order-sensitive sink runs) and per-worker ExecStats are
/// merged after every pipeline. Differential tests (tests/batch_exec_test.cc,
/// tests/factorized_exec_test.cc) hold it equal across thread counts,
/// partition counts and factorization modes, and to the unoptimized plans.
///
/// It implements the full operator repertoire, including
/// ExpandIntersect; which operators a plan may contain is the backend's
/// plan-time choice (PhysicalSpec), not the runtime's.
///
/// Thread-confinement: one instance per Execute call (it carries per-run
/// results and stats). The pool it runs on is shared and outlives it.
class MorselExecutor {
 public:
  /// Pipelines whose source holds fewer rows than this, and per-partition
  /// breaker stages over fewer input rows, run inline on the calling
  /// thread: handing them to the pool costs more than it saves. Results
  /// are identical either way.
  static constexpr size_t kInlineStageRows = 2048;

  /// `pg` (optional) attaches a sharded store: scan pipelines then split
  /// into partition-granular morsels (one contiguous morsel run per
  /// partition, handed to workers partition-at-a-time before stealing),
  /// exchanges route vertices to their owners, and ExecStats carries the
  /// per-partition row counts. Results are differential-tested identical
  /// across partition counts. `pool` (optional, must outlive Execute) runs
  /// the worker slots besides the calling thread; without one every
  /// pipeline runs inline.
  explicit MorselExecutor(const PropertyGraph* g, MorselOptions opts = {},
                          const PartitionedGraph* pg = nullptr,
                          WorkerPool* pool = nullptr);

  /// Executes the plan. `plan` is an optional prebuilt decomposition of
  /// `root` (e.g. cached in a Prepared at planning time so warm-cache
  /// executions skip the rebuild, and the only way to run a distributed
  /// plan); when null a single-machine plan is built here, factorized at
  /// FactorizationMode::kAuto.
  ResultTable Execute(const PhysOpPtr& root, const PipelinePlan* plan = nullptr);

  const ExecStats& stats() const { return stats_; }

  /// Parameter bindings for $name slots in the plan's expressions; must
  /// outlive Execute (read concurrently by workers — safe, read-only).
  void set_params(const ParamMap* params) { k_.set_params(params); }

  /// Cooperative cancellation (docs/serving.md): workers check the token
  /// before every morsel (and the control thread between pipelines), so a
  /// trip aborts within one morsel's worth of work per worker. The
  /// CancelledError a worker throws rides WorkerPool::ParallelFor's
  /// exception capture and is rethrown out of Execute once every worker
  /// slot has finished.
  void set_cancel(CancelToken cancel) { cancel_ = std::move(cancel); }

 private:
  /// Per-worker counters of one pipeline chain, merged into ExecStats
  /// after the pool joins. `rows` counts logical rows (bindings
  /// represented — identical factorized or flat, which is what keeps
  /// rows_produced independent of factorization); `tuples` counts physical
  /// tuples actually stored; `groups` the prefix-group entries among them.
  struct ChainStats {
    uint64_t rows = 0;
    uint64_t tuples = 0;
    uint64_t groups = 0;
  };

  void RunPipeline(const Pipeline& p, const PipelinePlan& plan);
  /// Streams every morsel of the pipeline's source through its chain and
  /// returns the chain's output by partition, in morsel order.
  BatchParts RunChain(const Pipeline& p, PipelineStat* ps);
  /// Runs the pipeline's blocking kernel over `in` (once per partition on
  /// a distributed plan, once overall otherwise).
  BatchParts RunBreaker(const Pipeline& p, BatchParts in);
  /// Builds the hash table of every probe stage in the chain (one per
  /// partition on a distributed plan) from its materialized build side.
  void BuildJoinTables(const Pipeline& p, const PipelinePlan& plan);
  /// Pipeline `id`'s output for one reader: moved out when it is the only
  /// one, else copied.
  BatchParts TakeResult(int id, const PipelinePlan& plan);
  /// Re-partitions `in` as `ex` directs (see ExchangeSpec), counting one
  /// exchange and every row that changes partition; returns `in` as is
  /// for ExchangeSpec::Kind::kNone.
  BatchParts Exchange(BatchParts in, const ExchangeSpec& ex, const PhysOp& sink);
  /// Runs fn(w) for every partition w: on the pool when the stage's input
  /// holds at least kInlineStageRows rows, else inline.
  template <typename F>
  void ForEachPartition(size_t input_rows, const F& fn) const;

  /// Streams one source batch through the pipeline's operator chain,
  /// accumulating per-operator counts into `*cs`; `part` is the batch's
  /// partition. The owned overload filters in place (scan batches belong
  /// to the worker); the shared overload copies only if the first operator
  /// is a filter (materialized source batches may be consumed by several
  /// parents).
  Batch ApplyChain(const Pipeline& p, int part, Batch&& owned,
                   ChainStats* cs) const;
  Batch ApplyChain(const Pipeline& p, int part, const Batch& shared,
                   ChainStats* cs) const;
  /// Applies ops[from..] to an owned batch.
  Batch ApplyOpsOwned(const Pipeline& p, int part, size_t from, Batch cur,
                      ChainStats* cs) const;
  /// One non-filter streaming operator (ops[i]), batch in / batch out.
  /// The pipeline's factorized / lazy_ops flags select factorized
  /// emission for the expansion kernels.
  Batch ApplyStreamingOp(const Pipeline& p, int part, size_t i,
                         const Batch& in) const;

  Kernels k_;
  const PartitionedGraph* pg_;
  WorkerPool* pool_;
  MorselOptions opts_;
  /// Worker slots per pipeline: the pool's threads plus the caller.
  int threads_;
  /// Partitions of every materialized result: the store's, 1 without one.
  size_t parts_;
  /// The running plan is distributed (PipelinePlan::distributed).
  bool distributed_ = false;
  CancelToken cancel_;
  ExecStats stats_;
  /// Materialized sink outputs by pipeline id, one stream per partition.
  std::vector<BatchParts> results_;
  /// Join build sides, each table owning its build rows: one per partition
  /// on a distributed plan, one in all otherwise.
  std::map<const PhysOp*, std::vector<JoinHashTable>> join_tables_;
};

}  // namespace gopt
