#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/store/partitioner.h"

namespace gopt {

/// Cardinality statistics of one partition, computed at build time. These
/// are the partition-local counterpart of the global low-order statistics
/// (PropertyGraph::NumVerticesOfType etc.): the CBO's communication model
/// consumes the cut ratios (see CommProfile), Explain surfaces the raw
/// counts, and the differential tests hold their sums equal to the global
/// store's totals.
struct PartitionStats {
  size_t num_vertices = 0;
  /// Edges placed here (source-owner placement).
  size_t num_edges = 0;
  /// Of those, edges whose destination lives in another partition — this
  /// partition's contribution to the global edge-cut.
  size_t cut_edges = 0;
  std::vector<size_t> vertices_of_type;  ///< per vertex TypeId
  std::vector<size_t> edges_of_type;     ///< per edge TypeId (placed here)
  std::vector<size_t> cut_edges_of_type; ///< per edge TypeId (cut subset)
};

/// A finalized PropertyGraph sharded into P partitions: the real storage
/// layer behind the morsel runtime's partition-granular scan morsels and
/// a distributed plan's per-partition pipelines (docs/storage.md).
///
/// Per partition it holds:
///  - the owned vertex list (ascending global ids; local index = position),
///  - per-type owned vertex lists (the partition-local scan domains),
///  - a partition-local CSR over the owned vertices: out-adjacency by
///    source-owner edge placement, in-adjacency by destination owner —
///    entry order matches the global store (sorted by edge type, then
///    neighbor), so partition-local reads return byte-identical spans,
///  - columnar vertex-property slices indexed by local id,
///  - PartitionStats.
/// Plus the global vertex -> partition ownership map the exchange steps
/// consult.
///
/// Immutable after construction: any number of threads may read one
/// instance concurrently (the executors do).
class PartitionedGraph {
 public:
  /// Shards `base` (which must be finalized and must outlive this object)
  /// under `policy` into `partitions` shards. `popts` tunes the kEdgeCut
  /// policy's refinement (ignored by hash/range).
  static std::shared_ptr<const PartitionedGraph> Build(
      const PropertyGraph* base, PartitionPolicy policy, int partitions,
      const PartitionerOptions& popts = {});

  PartitionedGraph(const PropertyGraph* base,
                   const GraphPartitioner& partitioner);

  const PropertyGraph& base() const { return *base_; }
  int num_partitions() const { return static_cast<int>(parts_.size()); }
  PartitionPolicy policy() const { return policy_; }
  const std::string& partitioner_name() const { return partitioner_name_; }

  // ---- ownership ----

  /// Owner partition of `v` (O(1) map lookup, not a re-hash).
  int OwnerOf(VertexId v) const { return owner_of_[v]; }
  /// Position of `v` inside its owner's vertex list.
  uint32_t LocalIndexOf(VertexId v) const { return local_index_of_[v]; }

  // ---- partition-local reads ----

  /// All vertices owned by partition `p`, ascending global ids.
  Span<const VertexId> Vertices(int p) const;
  /// Owned vertices of one type (ascending global ids) — the partition's
  /// scan domain for a typed scan.
  Span<const VertexId> VerticesOfType(int p, TypeId t) const;

  /// Out edges of `v` read from partition `p`'s local CSR. `p` must own
  /// `v` (source-owner placement). Entry order equals the global store's.
  Span<const AdjEntry> OutEdges(int p, VertexId v) const;
  Span<const AdjEntry> OutEdges(int p, VertexId v, TypeId etype) const;
  /// In edges of `v` from `p`'s local in-index (destination-owner
  /// placement: every in-edge of an owned vertex is indexed locally).
  Span<const AdjEntry> InEdges(int p, VertexId v) const;
  Span<const AdjEntry> InEdges(int p, VertexId v, TypeId etype) const;

  /// Vertex property served from partition `p`'s columnar slice; `p` must
  /// own `v`. Null Value when the property is absent.
  Value GetVertexProp(int p, VertexId v, const std::string& name) const;

  // ---- owner-routed reads ----
  // The partition is resolved through the ownership map (one O(1) lookup)
  // — how the execution kernels read the sharded store without threading
  // partition context through every call site.

  Span<const AdjEntry> OutEdgesOf(VertexId v) const {
    return OutEdges(owner_of_[v], v);
  }
  Span<const AdjEntry> OutEdgesOf(VertexId v, TypeId etype) const {
    return OutEdges(owner_of_[v], v, etype);
  }
  Span<const AdjEntry> InEdgesOf(VertexId v) const {
    return InEdges(owner_of_[v], v);
  }
  Span<const AdjEntry> InEdgesOf(VertexId v, TypeId etype) const {
    return InEdges(owner_of_[v], v, etype);
  }
  Value GetVertexPropOf(VertexId v, const std::string& name) const {
    return GetVertexProp(owner_of_[v], v, name);
  }

  // ---- statistics ----

  const PartitionStats& stats(int p) const {
    return parts_[static_cast<size_t>(p)].stats;
  }
  /// Total cross-partition edges (sum of per-partition cut_edges).
  size_t total_cut_edges() const { return total_cut_edges_; }
  /// Edge-cut ratio: cut edges / total edges (0 when the graph is
  /// edgeless or single-partition).
  double CutFraction() const;
  /// Edge-cut ratio restricted to one edge type.
  double CutFraction(TypeId etype) const;

  /// Balance metric over owned vertices: max/mean vertices per partition
  /// (1.0 = perfectly balanced; 0 when the store is empty). Surfaced by
  /// Explain and ExecStats::store_vertex_balance.
  double VertexBalance() const;

  /// One line per partition (vertex/edge/cut counts) for Explain, plus the
  /// vertex balance.
  std::string Describe() const;

 private:
  struct Partition {
    std::vector<VertexId> vertices;  ///< owned, ascending global ids
    std::vector<std::vector<VertexId>> vertices_of_type;
    /// Local CSR, indexed by LocalIndexOf(v).
    std::vector<uint64_t> out_offsets;
    std::vector<AdjEntry> out_adj;
    std::vector<uint64_t> in_offsets;
    std::vector<AdjEntry> in_adj;
    /// Columnar vertex-property slices, indexed by local id.
    std::unordered_map<std::string, std::vector<Value>> vertex_props;
    PartitionStats stats;
  };

  const PropertyGraph* base_;
  PartitionPolicy policy_;
  std::string partitioner_name_;
  std::vector<Partition> parts_;
  std::vector<int32_t> owner_of_;         ///< |V| ownership map
  std::vector<uint32_t> local_index_of_;  ///< |V| local positions
  size_t total_cut_edges_ = 0;
  std::vector<size_t> cut_edges_of_type_;    ///< per edge TypeId, summed
  std::vector<size_t> total_edges_of_type_;  ///< per edge TypeId
};

}  // namespace gopt
