#pragma once

#include <atomic>
#include <cstdint>
#include <unordered_map>

#include "src/exec/batch.h"
#include "src/exec/eval.h"
#include "src/physical/physical_op.h"
#include "src/store/partitioned_graph.h"

namespace gopt {

/// A morsel of a vertex scan: a slice of the scan domain. `all` morsels
/// slice the raw vertex-id range [begin, end); typed morsels slice the
/// per-type vertex list of `type` by list offset. On a sharded store
/// (`partition` >= 0) the sliced domain is that partition's owned vertex
/// list (or per-type list) instead of the global one.
struct ScanMorsel {
  bool all = true;
  TypeId type = kInvalidTypeId;
  int partition = -1;  ///< -1: global store; else partition-local domain
  size_t begin = 0;
  size_t end = 0;
};

/// A hash table built once over a join's build (right) side, probed by any
/// number of threads concurrently — the build/probe split of the morsel
/// runtime. It owns the build side as one flat batch.
struct JoinHashTable {
  Batch rows;  ///< build-side rows, concatenated
  std::unordered_map<std::vector<Value>, std::vector<uint32_t>, ValueVecHash>
      index;                    ///< join key -> build row positions
  std::vector<int> lkey, rkey;  ///< key column positions per side
  std::vector<int> rappend;     ///< build columns appended to the output
};

/// Operator kernels of the morsel-driven runtime (src/exec/morsel.cc),
/// which runs both backends' plans; every kernel takes and returns
/// columnar Batches. The streaming kernels (scan, expansions,
/// filter, project, unfold, join probe) map one batch to one batch,
/// filters refining the selection vector in place. The blocking kernels
/// (aggregate, sort/limit, dedup, join build) take a whole stream of
/// batches and return one flat batch; all but the aggregate concatenate
/// their input once (ConcatBatches) and work on row positions. A union is
/// MapColumns over its right input plus, for UNION DISTINCT, Dedup.
class Kernels {
 public:
  /// `pstore` (optional) attaches a sharded store. All graph reads are
  /// then served partition-locally: scan morsels slice the per-partition
  /// vertex lists (partition-major order), expansions read the owner
  /// partition's CSR (Adj below), and vertex-property evaluation resolves
  /// through the owner's columnar slices. Semantics are identical either
  /// way — the partitioned store's spans and slices are
  /// differential-tested equal to the global store's.
  explicit Kernels(const PropertyGraph* g,
                   const PartitionedGraph* pstore = nullptr)
      : g_(g), pstore_(pstore), eval_(g, pstore) {}

  // ---- batch-native streaming kernels ----

  /// Splits the scan domain of `op` into morsels of at most `morsel_rows`
  /// vertices (one or more per vertex type). On a sharded store the
  /// domain is per-partition (morsels ordered partition-major, so a
  /// contiguous morsel-index range covers one partition).
  std::vector<ScanMorsel> ScanMorsels(const PhysOp& op,
                                      size_t morsel_rows) const;

  /// Scans one morsel: the vertices of its slice that pass the scan's
  /// pushed predicates.
  Batch ScanBatch(const PhysOp& op, const ScanMorsel& m) const;

  /// The expansion kernels accept factorized input transparently (values
  /// resolve through the group mapping). With `factorize` they also emit
  /// factorized output: the input row becomes one prefix group shared by
  /// the whole fan-out, only the newly bound columns get per-row entries
  /// (docs/factorization.md). With `lazy` additionally set (only legal
  /// when the chooser proved the new columns dead downstream) even those
  /// are elided: groups carry just their multiplicity, the new columns
  /// read as null. Results are row-for-row identical in all modes.
  Batch ExpandEdgeBatch(const PhysOp& op, const Batch& in,
                        bool factorize = false, bool lazy = false) const;
  Batch ExpandIntersectBatch(const PhysOp& op, const Batch& in,
                             bool factorize = false, bool lazy = false) const;
  Batch PathExpandBatch(const PhysOp& op, const Batch& in,
                        bool factorize = false, bool lazy = false) const;
  /// The physical row positions (in visit order) that survive the filter
  /// predicate — computed without mutating `in`. On a factorized batch
  /// whose predicate only touches group columns, the predicate is
  /// evaluated once per group instead of once per row.
  std::vector<uint32_t> FilterSelection(const PhysOp& op,
                                        const Batch& in) const;
  /// Refines the selection vector in place; no values move.
  void FilterBatch(const PhysOp& op, Batch* in) const;
  /// Structure-preserving on factorized input: pass-through and
  /// group-only-expression columns stay group-backed (evaluated once per
  /// group), everything else is evaluated per row; falls back to the flat
  /// row loop when no output column would stay group-backed.
  Batch ProjectBatch(const PhysOp& op, const Batch& in) const;
  /// With `factorize`, each input row becomes a prefix group and the
  /// unfolded list elements the per-row column — the same shape as a
  /// factorized expansion.
  Batch UnfoldBatch(const PhysOp& op, const Batch& in,
                    bool factorize = false) const;

  /// Builds the probe hash table over the join's build (right) side.
  JoinHashTable BuildJoinTable(const PhysOp& op,
                               const std::vector<Batch>& right) const;
  /// Streams probe-side batches through a prebuilt table (thread-safe:
  /// the table is read-only during probing).
  Batch JoinProbeBatch(const PhysOp& op, const Batch& left,
                       const JoinHashTable& ht) const;

  // ---- blocking kernels (pipeline-breaker sinks) ----

  /// First occurrence of each key, in input order. A DEDUP keys on its
  /// dedup_tags over the child layout (every column when empty); a UNION
  /// (DISTINCT) on every output column.
  Batch Dedup(const PhysOp& op, const std::vector<Batch>& in) const;

  /// Aggregation, groups in first-occurrence order. With combine = false,
  /// evaluates group keys / agg args over the child layout (a full or
  /// "local" aggregation). Factorized batches whose group keys and agg
  /// arguments all live on group columns are consumed run-at-a-time: one
  /// evaluation and one multiplicity-weighted state update per run
  /// (COUNT += n, SUM += v*n, ...), never expanding the groups; output is
  /// identical to aggregating the flattened rows. With combine = true, input
  /// rows already have the op's output layout and partial results are
  /// merged (the distributed GroupGlobal phase: COUNT/SUM -> sum, MIN ->
  /// min, MAX -> max). A keyless aggregate over empty input yields one row.
  Batch Aggregate(const PhysOp& op, const std::vector<Batch>& in,
                  bool combine = false) const;

  /// Stable sort by the op's sort items, cut at op.limit (when >= 0).
  Batch SortLimit(const PhysOp& op, const std::vector<Batch>& in) const;

  /// K-way merge of per-worker batches already sorted by the op's sort
  /// items (each typically a local top-k), honoring op.limit. Ties across
  /// batches resolve to the lower worker then the earlier position —
  /// exactly the order a stable sort of the worker-order concatenation
  /// produces, at O(N log K) instead of a full re-sort.
  Batch MergeSortedLimit(const PhysOp& op,
                         const std::vector<Batch>& parts) const;

  const ExprEval& eval() const { return eval_; }
  const PropertyGraph& graph() const { return *g_; }
  /// The attached sharded store, or null on the global store.
  const PartitionedGraph* pstore() const { return pstore_; }

  /// Installs execution-time parameter bindings on the evaluator (see
  /// ExprEval::set_params). The map must outlive kernel execution.
  void set_params(const ParamMap* params) { eval_.set_params(params); }

  /// Enables/disables the vectorized fast paths (docs/vectorization.md):
  /// sort-free CSR-span intersection in ExpandIntersectBatch, compiled
  /// branch-free predicates in FilterSelection/ScanBatch, typed column
  /// views and appenders. On by default; per call the kernel falls back to
  /// the generic path when the inputs don't qualify, and results are
  /// bit-identical either way — the choice is observable only through the
  /// dispatch counters below.
  void set_vectorize(bool on) { vectorize_ = on; }
  bool vectorize() const { return vectorize_; }

  /// Dispatch counters of the fast-path-aware kernels (ScanBatch,
  /// ExpandIntersectBatch, FilterSelection): one count per invocation,
  /// split by which path served it. Atomic (relaxed) because one Kernels
  /// instance serves every morsel worker concurrently; executors snapshot
  /// deltas per pipeline into ExecStats.
  uint64_t vectorized_dispatches() const {
    return vec_dispatch_.load(std::memory_order_relaxed);
  }
  uint64_t generic_dispatches() const {
    return gen_dispatch_.load(std::memory_order_relaxed);
  }

 private:
  /// Adjacency of `u`, served from the sharded store's partition-local
  /// CSR when one is attached (owner resolved through the ownership map),
  /// else from the global store. Span contents are identical either way.
  Span<const AdjEntry> Adj(VertexId u, bool out) const;
  Span<const AdjEntry> Adj(VertexId u, bool out, TypeId etype) const;

  /// Iterates adjacency entries of `u` in direction `dir` filtered by the
  /// edge type constraint; `reversed` in the callback is true when the data
  /// edge points toward `u`.
  template <typename F>
  void ForEachAdj(VertexId u, Direction dir, const TypeConstraint& etc_,
                  F&& f) const;

  const PropertyGraph* g_;
  const PartitionedGraph* pstore_ = nullptr;
  ExprEval eval_;
  bool vectorize_ = true;
  mutable std::atomic<uint64_t> vec_dispatch_{0};
  mutable std::atomic<uint64_t> gen_dispatch_{0};
};

/// Returns true if all aggregate functions support two-phase (local +
/// combine) execution.
bool SupportsPartialAgg(const PhysOp& op);

}  // namespace gopt
