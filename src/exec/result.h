#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/cache_stats.h"
#include "src/common/value.h"

namespace gopt {

/// A runtime row: one value per output column.
using Row = std::vector<Value>;

/// The materialized result of a query (or of one physical operator).
struct ResultTable {
  std::vector<std::string> columns;
  std::vector<Row> rows;

  size_t NumRows() const { return rows.size(); }

  /// Index of a column by name, or -1.
  int ColIndex(const std::string& name) const;

  /// Sorts rows into a canonical order (for order-insensitive comparison).
  void SortRows();

  /// Multiset row equality against `other`, aligning columns by name.
  /// Returns false if the column sets differ.
  bool SameRows(const ResultTable& other) const;

  std::string ToString(size_t max_rows = 20) const;
};

/// Execution metrics of one pipeline of the morsel runtime.
struct PipelineStat {
  int id = 0;
  std::string desc;          ///< Pipeline::ToString of the executed pipeline
  uint64_t morsels = 0;      ///< morsels the source was split into
  uint64_t rows_out = 0;     ///< rows materialized by the sink
  int threads = 1;           ///< workers that ran this pipeline
  double ms = 0;             ///< wall-clock milliseconds

  // Factorized-execution metrics (docs/factorization.md). chain_rows /
  // chain_tuples is the pipeline's compression ratio: logical bindings
  // represented vs. physical tuples actually stored by the chain.
  bool factorized = false;   ///< ran with factorized expansion output
  uint64_t chain_rows = 0;   ///< logical rows emitted by the chain's operators
  uint64_t chain_tuples = 0; ///< physical tuples those operators stored
  uint64_t groups = 0;       ///< prefix-group entries among the tuples
  int flatten_points = 0;    ///< plan-annotated forced-flatten count

  // Vectorized-dispatch metrics (docs/vectorization.md): invocations of
  // the fast-path-aware kernels during this pipeline, split by which path
  // served them. Results are identical either way; these only report what
  // dispatch chose.
  uint64_t vec_dispatch = 0;  ///< kernel calls served by a vectorized path
  uint64_t gen_dispatch = 0;  ///< kernel calls served by the generic path
};

/// Execution statistics of one run, on either backend.
///
/// `rows_produced` counts the rows *emitted by each operator* of the plan,
/// summed over operators — each operator node exactly once, even when its
/// output is shared by several parents (DAG plans after ComSubPattern) or
/// processed morsel-at-a-time. It does not depend on threads, partitions,
/// factorization or the pipeline decomposition; tests assert parity.
struct ExecStats {
  uint64_t rows_produced = 0;   ///< rows emitted per operator, summed
  /// Physical tuples the morsel runtime actually stored: scan output plus
  /// each streaming operator's materialized tuples (a factorized batch
  /// stores one group entry per prefix instead of one row per binding, a
  /// filter stores nothing), plus deferred flattens and breaker outputs.
  /// With factorization off this tracks rows_produced; the off/on ratio is
  /// the measured intermediate-result compression (docs/factorization.md).
  uint64_t tuples_materialized = 0;
  /// Rows that changed partition in an exchange (distributed plans only).
  uint64_t comm_rows = 0;
  uint64_t exchanges = 0;       ///< exchange steps (distributed plans only)
  std::vector<PipelineStat> pipelines;  ///< per-pipeline metrics

  // Sharded-store metrics (docs/storage.md), populated only when the run
  // executed against a PartitionedGraph.
  int partitions = 0;           ///< partition count of the store (0 = none)
  uint64_t store_cut_edges = 0; ///< the partitioning's total edge-cut
  /// Ownership-map balance of the store this run executed against: max/mean
  /// owned vertices per partition (PartitionedGraph::VertexBalance; 1.0 =
  /// perfectly balanced).
  double store_vertex_balance = 0;
  /// Rows produced per partition: every operator's emitted rows (the
  /// rows_produced count), charged to the partition holding the batch
  /// that emitted them — a single-machine breaker's output counts on
  /// partition 0. Its max/mean is the per-run rows balance Explain
  /// reports next to the vertex balance.
  std::vector<uint64_t> partition_rows;

  // Vectorized-dispatch totals across the run (docs/vectorization.md).
  uint64_t vec_dispatch = 0;
  uint64_t gen_dispatch = 0;

  // Result-cache metrics (docs/result-cache.md), populated by the engine —
  // not the executors — whenever a result cache is configured.
  /// This execution was answered from the result cache: no operator ran;
  /// rows_produced is the cached logical count of the execution that
  /// populated the entry (runtime-invariant, so parity still holds).
  bool result_cache_hit = false;
  /// Snapshot of the engine's result-cache counters after this call
  /// (hits / misses / evictions / entries / bytes). All zero when no
  /// result cache is configured.
  CacheStats result_cache;
};

}  // namespace gopt
