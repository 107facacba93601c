#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/gir/logical_op.h"

namespace gopt {

/// Physical operator kinds shared by both simulated backends. Which subset
/// a plan uses is decided by the CBO through the backend's registered
/// PhysicalSpecs (e.g. only the GraphScope-like backend receives
/// kExpandIntersect steps).
enum class PhysOpKind {
  kScanVertices,     ///< scan a vertex type (+pushed filters)
  kExpandEdge,       ///< flattened adjacency expansion / edge check
  kExpandIntersect,  ///< WCOJ-style multi-arm neighborhood intersection
  kPathExpand,       ///< variable-length path expansion
  kHashJoin,
  kSelect,
  kProject,
  kAggregate,
  kOrder,
  kLimit,
  kDedup,
  kUnion,
  kUnfold,
};

struct PhysOp;
using PhysOpPtr = std::shared_ptr<PhysOp>;

/// One arm of an ExpandIntersect: the bound vertex it starts from and the
/// edge class it traverses.
struct IntersectArm {
  std::string from_tag;
  Direction dir = Direction::kOut;  ///< kOut: follow src->dst from the tag
  TypeConstraint etc_;
  std::vector<ExprPtr> edge_preds;
};

/// A physical operator node. Like LogicalOp, a single struct with per-kind
/// payloads; `out_cols` is the row schema produced by the operator
/// (computed by the PhysicalConverter). Children may be shared between
/// parents (DAG) after ComSubPattern; executors memoize by node pointer.
struct PhysOp {
  PhysOpKind kind;
  std::vector<PhysOpPtr> children;
  std::vector<std::string> out_cols;

  /// CBO-estimated output cardinality (the Glogue frequency of the pattern
  /// this operator completes), or -1 when unknown. Consumed by the
  /// factorization chooser (src/opt/factorization.cc) to estimate per-step
  /// fan-outs; never affects results.
  double est_rows = -1;

  // kScanVertices / expansion targets
  std::string alias;              ///< bound vertex alias (scan/expand target)
  TypeConstraint vtc;             ///< target vertex constraint
  std::vector<ExprPtr> vertex_preds;

  // kExpandEdge / kPathExpand
  std::string from_tag;
  Direction dir = Direction::kOut;
  TypeConstraint etc_;
  std::vector<ExprPtr> edge_preds;
  std::string edge_alias;   ///< bind the matched edge when non-empty
  bool target_bound = false;  ///< close onto an existing binding

  // kExpandIntersect
  std::vector<IntersectArm> arms;

  // kPathExpand
  int min_hops = 1, max_hops = 1;
  PathSemantics semantics = PathSemantics::kArbitrary;
  std::string path_alias;  ///< bind the PathRef when non-empty

  // relational payloads (mirroring LogicalOp)
  ExprPtr predicate;
  std::vector<ProjectItem> items;
  bool append = false;
  std::vector<ProjectItem> group_keys;
  std::vector<AggCall> aggs;
  std::vector<SortItem> sort_items;
  int64_t limit = -1;
  std::vector<std::string> dedup_tags;
  std::vector<std::string> join_keys;
  JoinKind join_kind = JoinKind::kInner;
  bool union_distinct = false;
  std::string unfold_tag;
  std::string unfold_alias;

  explicit PhysOp(PhysOpKind k) : kind(k) {}

  /// Pretty-prints the physical plan (one operator per line, children
  /// indented) — the Explain output.
  std::string ToString(const GraphSchema& schema, int indent = 0) const;
};

const char* PhysOpKindName(PhysOpKind k);

/// How an operator participates in pipelined (morsel-driven) execution —
/// the annotation src/exec/pipeline.cc splits PhysOp trees on:
///  - kSource:    produces rows from the graph store; its domain can be
///                sliced into morsels (kScanVertices).
///  - kStreaming: batch-in / batch-out with no state spanning batches
///                (filters, projections, expansions, unfold — and HashJoin,
///                whose *probe* side streams once the build side, a
///                separate pipeline, has materialized).
///  - kBreaker:   must consume its entire input before emitting anything
///                (aggregate, sort, global limit, dedup, union); terminates
///                a pipeline and materializes.
enum class PipelineRole { kSource, kStreaming, kBreaker };

PipelineRole PhysOpPipelineRole(PhysOpKind k);

/// True for operators that end a pipeline (PipelineRole::kBreaker).
bool IsPipelineBreaker(PhysOpKind k);

/// True for operators whose kernel has a vectorized fast path
/// (docs/vectorization.md): compiled-predicate scans and filters, and the
/// sort-free CSR-span intersection. Purely informational — Explain uses it
/// to annotate the physical plan; dispatch itself is decided per call from
/// the actual inputs.
bool HasVectorizedFastPath(PhysOpKind k);

/// How many parent operators consume each node's output in the plan under
/// `root`: a DAG node shared by two parents (after ComSubPattern) counts
/// 2. The root itself is absent.
std::map<const PhysOp*, int> CountConsumers(const PhysOp& root);

}  // namespace gopt
