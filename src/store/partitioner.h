#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/graph/property_graph.h"

namespace gopt {

/// Vertex-partitioning policies of the sharded store (src/store/). Edge
/// placement always follows the source owner: an edge lives in the
/// partition that owns its source vertex, so every out-adjacency read is
/// partition-local and the cross-partition edges are exactly the edge-cut
/// the distributed cost model charges communication for.
enum class PartitionPolicy {
  kHash,     ///< owner = mix(vertex id) mod P — balanced, locality-free
  kRange,    ///< contiguous id ranges of near-equal size — locality-friendly
  kEdgeCut,  ///< greedy label propagation minimizing the edge-cut
};

const char* PartitionPolicyName(PartitionPolicy policy);

/// Structure-aware knobs of the kEdgeCut policy (ignored by hash/range).
/// Both shape the produced ownership map and therefore the store's measured
/// cut ratios the CBO prices communication with, so the engine carries them
/// in OptionsFingerprint (EngineOptions::partition_refine_sweeps /
/// partition_balance_cap).
struct PartitionerOptions {
  /// Maximum label-propagation refinement sweeps over the vertex domain.
  /// Each sweep visits vertices in ascending id order and moves a vertex to
  /// its neighbor-majority partition when that strictly reduces the cut;
  /// refinement stops early once a sweep makes no move. 0 degenerates to
  /// the hash seed.
  int refine_sweeps = 5;
  /// Balance cap: no partition may own more than
  /// `balance_cap * ceil(|V| / P)` vertices (a move that would overflow the
  /// target partition is skipped). Must be >= 1.0; values below are
  /// clamped to 1.0.
  double balance_cap = 1.1;
};

/// Maps every vertex of a finalized graph onto one of `num_partitions()`
/// partitions. Implementations must be total (every valid vertex id has
/// exactly one owner) and deterministic (same graph + parameters -> same
/// ownership), which the partitioner unit tests assert; both properties
/// are what lets two engines build interchangeable PartitionedGraphs.
class GraphPartitioner {
 public:
  virtual ~GraphPartitioner() = default;

  virtual std::string Name() const = 0;
  virtual PartitionPolicy policy() const = 0;
  /// Owner partition of `v`, in [0, num_partitions()).
  virtual int OwnerOf(VertexId v) const = 0;

  int num_partitions() const { return partitions_; }

 protected:
  explicit GraphPartitioner(int partitions)
      : partitions_(partitions < 1 ? 1 : partitions) {}

  int partitions_;
};

/// Hash policy: a 64-bit finalizer mix of the vertex id, mod P. Unlike the
/// plain `id % W` the distributed simulator used before this subsystem,
/// the mix decorrelates ownership from id arithmetic, so range-clustered
/// loaders (LDBC emits ids grouped by type) still balance.
class HashPartitioner : public GraphPartitioner {
 public:
  explicit HashPartitioner(int partitions) : GraphPartitioner(partitions) {}

  std::string Name() const override;
  PartitionPolicy policy() const override { return PartitionPolicy::kHash; }
  int OwnerOf(VertexId v) const override {
    // splitmix64 finalizer: deterministic, well-mixed, dependency-free.
    uint64_t x = v + 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    x ^= x >> 31;
    return static_cast<int>(x % static_cast<uint64_t>(partitions_));
  }
};

/// Edge-cut policy: greedy label propagation. Ownership is seeded from the
/// hash policy (so with zero sweeps it IS the hash partitioning), then a
/// bounded number of refinement sweeps move each vertex toward the
/// partition owning the majority of its neighbors (out- plus in-adjacency),
/// under the per-partition balance cap. A move happens only when the
/// neighbor count strictly improves, so the total edge-cut is monotonically
/// non-increasing — never worse than hash — and the sweep visits vertices
/// in ascending id order with lowest-partition-id tie-breaking, so the
/// result is deterministic (two independently built partitioners agree).
/// The whole ownership map is precomputed at construction; OwnerOf is an
/// O(1) array read.
class EdgeCutPartitioner : public GraphPartitioner {
 public:
  EdgeCutPartitioner(int partitions, const PropertyGraph& g,
                     PartitionerOptions opts = {});

  std::string Name() const override;
  PartitionPolicy policy() const override { return PartitionPolicy::kEdgeCut; }
  int OwnerOf(VertexId v) const override {
    return owner_[static_cast<size_t>(v)];
  }

  /// Refinement sweeps actually performed (< refine_sweeps when a sweep
  /// converged early).
  int sweeps_run() const { return sweeps_run_; }
  /// Vertices moved off their hash seed by refinement.
  size_t moves() const { return moves_; }

 private:
  std::vector<int32_t> owner_;
  int sweeps_run_ = 0;
  size_t moves_ = 0;
};

/// Range policy: partition p owns the contiguous id range
/// [p*n/P, (p+1)*n/P). Preserves id locality (neighbors created together
/// stay together under loaders that emit communities contiguously) and
/// makes per-type scan lists concatenate back in global id order.
class RangePartitioner : public GraphPartitioner {
 public:
  RangePartitioner(int partitions, size_t num_vertices);

  std::string Name() const override;
  PartitionPolicy policy() const override { return PartitionPolicy::kRange; }
  int OwnerOf(VertexId v) const override;

 private:
  size_t num_vertices_;
};

/// Factory over the policy enum (`g` supplies the domain size the range
/// policy needs and the adjacency the edge-cut policy refines over;
/// `opts` only affects kEdgeCut).
std::unique_ptr<GraphPartitioner> MakePartitioner(
    PartitionPolicy policy, int partitions, const PropertyGraph& g,
    const PartitionerOptions& opts = {});

}  // namespace gopt
