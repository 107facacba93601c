#include "src/store/partitioned_graph.h"

#include <algorithm>
#include <stdexcept>

#include "src/common/str_format.h"

namespace gopt {

std::shared_ptr<const PartitionedGraph> PartitionedGraph::Build(
    const PropertyGraph* base, PartitionPolicy policy, int partitions,
    const PartitionerOptions& popts) {
  std::unique_ptr<GraphPartitioner> p =
      MakePartitioner(policy, partitions, *base, popts);
  return std::make_shared<const PartitionedGraph>(base, *p);
}

PartitionedGraph::PartitionedGraph(const PropertyGraph* base,
                                   const GraphPartitioner& partitioner)
    : base_(base),
      policy_(partitioner.policy()),
      partitioner_name_(partitioner.Name()) {
  if (!base_->finalized()) {
    throw std::logic_error(
        "PartitionedGraph: the base graph must be finalized before sharding");
  }
  const size_t nv = base_->NumVertices();
  const size_t nvt = base_->schema().NumVertexTypes();
  const size_t net = base_->schema().NumEdgeTypes();
  const int P = partitioner.num_partitions();
  parts_.resize(static_cast<size_t>(P));
  owner_of_.resize(nv);
  local_index_of_.resize(nv);
  cut_edges_of_type_.assign(net, 0);
  total_edges_of_type_.assign(net, 0);

  // Ownership map + owned vertex lists (ascending ids by construction).
  for (VertexId v = 0; v < nv; ++v) {
    const int p = partitioner.OwnerOf(v);
    owner_of_[v] = p;
    auto& part = parts_[static_cast<size_t>(p)];
    local_index_of_[v] = static_cast<uint32_t>(part.vertices.size());
    part.vertices.push_back(v);
  }

  const std::vector<std::string> prop_names = base_->VertexPropNames();
  for (auto& part : parts_) {
    const size_t n = part.vertices.size();
    part.vertices_of_type.assign(nvt, {});
    part.out_offsets.assign(n + 1, 0);
    part.in_offsets.assign(n + 1, 0);
    part.stats.vertices_of_type.assign(nvt, 0);
    part.stats.edges_of_type.assign(net, 0);
    part.stats.cut_edges_of_type.assign(net, 0);
    part.stats.num_vertices = n;
    for (const std::string& name : prop_names) {
      part.vertex_props[name].resize(n);
    }
  }

  // Local CSRs: out-adjacency by source owner (edge placement), in-
  // adjacency by destination owner. Copying the global store's per-vertex
  // spans preserves the (edge type, neighbor) sort order, so the
  // per-type range lookup works unchanged on local rows.
  for (size_t pi = 0; pi < parts_.size(); ++pi) {
    Partition& part = parts_[pi];
    const int p = static_cast<int>(pi);
    for (size_t l = 0; l < part.vertices.size(); ++l) {
      const VertexId v = part.vertices[l];
      const TypeId vt = base_->VertexType(v);
      part.vertices_of_type[vt].push_back(v);
      part.stats.vertices_of_type[vt]++;

      Span<const AdjEntry> out = base_->OutEdges(v);
      part.out_offsets[l + 1] = part.out_offsets[l] + out.size();
      for (const AdjEntry& a : out) {
        part.out_adj.push_back(a);
        part.stats.num_edges++;
        part.stats.edges_of_type[a.etype]++;
        total_edges_of_type_[a.etype]++;
        if (owner_of_[a.nbr] != p) {
          part.stats.cut_edges++;
          part.stats.cut_edges_of_type[a.etype]++;
          cut_edges_of_type_[a.etype]++;
        }
      }
      Span<const AdjEntry> in = base_->InEdges(v);
      part.in_offsets[l + 1] = part.in_offsets[l] + in.size();
      for (const AdjEntry& a : in) part.in_adj.push_back(a);
    }
    total_cut_edges_ += part.stats.cut_edges;
  }

  // Columnar property slices, gathered column-at-a-time: one name lookup
  // per (partition, property) instead of per vertex. Finalize padded the
  // base columns to |V|.
  for (const std::string& name : prop_names) {
    const std::vector<Value>* col = base_->VertexPropColumn(name);
    if (col == nullptr) continue;
    for (auto& part : parts_) {
      std::vector<Value>& slice = part.vertex_props[name];
      for (size_t l = 0; l < part.vertices.size(); ++l) {
        slice[l] = (*col)[part.vertices[l]];
      }
    }
  }
}

Span<const VertexId> PartitionedGraph::Vertices(int p) const {
  return parts_[static_cast<size_t>(p)].vertices;
}

Span<const VertexId> PartitionedGraph::VerticesOfType(int p, TypeId t) const {
  const Partition& part = parts_[static_cast<size_t>(p)];
  if (t >= part.vertices_of_type.size()) return {};
  return part.vertices_of_type[t];
}

Span<const AdjEntry> PartitionedGraph::OutEdges(int p, VertexId v) const {
  const Partition& part = parts_[static_cast<size_t>(p)];
  const uint32_t l = local_index_of_[v];
  return {part.out_adj.data() + part.out_offsets[l],
          part.out_offsets[l + 1] - part.out_offsets[l]};
}

Span<const AdjEntry> PartitionedGraph::OutEdges(int p, VertexId v,
                                                TypeId etype) const {
  return AdjTypeRange(OutEdges(p, v), etype);
}

Span<const AdjEntry> PartitionedGraph::InEdges(int p, VertexId v) const {
  const Partition& part = parts_[static_cast<size_t>(p)];
  const uint32_t l = local_index_of_[v];
  return {part.in_adj.data() + part.in_offsets[l],
          part.in_offsets[l + 1] - part.in_offsets[l]};
}

Span<const AdjEntry> PartitionedGraph::InEdges(int p, VertexId v,
                                               TypeId etype) const {
  return AdjTypeRange(InEdges(p, v), etype);
}

Value PartitionedGraph::GetVertexProp(int p, VertexId v,
                                      const std::string& name) const {
  const Partition& part = parts_[static_cast<size_t>(p)];
  auto it = part.vertex_props.find(name);
  if (it == part.vertex_props.end()) return Value();
  return it->second[local_index_of_[v]];
}

double PartitionedGraph::CutFraction() const {
  const size_t ne = base_->NumEdges();
  return ne == 0 ? 0.0
                 : static_cast<double>(total_cut_edges_) /
                       static_cast<double>(ne);
}

double PartitionedGraph::CutFraction(TypeId etype) const {
  if (etype >= total_edges_of_type_.size()) return 0.0;
  const size_t n = total_edges_of_type_[etype];
  return n == 0 ? 0.0
                : static_cast<double>(cut_edges_of_type_[etype]) /
                      static_cast<double>(n);
}

double PartitionedGraph::VertexBalance() const {
  const size_t n = base_->NumVertices();
  if (n == 0 || parts_.empty()) return 0.0;
  size_t max_v = 0;
  for (const Partition& p : parts_) {
    max_v = std::max(max_v, p.vertices.size());
  }
  const double mean =
      static_cast<double>(n) / static_cast<double>(parts_.size());
  return static_cast<double>(max_v) / mean;
}

std::string PartitionedGraph::Describe() const {
  std::string s = StrFormat(
      "partitioning: %s, %d partitions, edge-cut %zu/%zu (%.1f%%), "
      "vertex balance %.2f (max/mean)\n",
      partitioner_name_.c_str(), num_partitions(), total_cut_edges_,
      base_->NumEdges(), 100.0 * CutFraction(), VertexBalance());
  for (size_t p = 0; p < parts_.size(); ++p) {
    const PartitionStats& st = parts_[p].stats;
    s += StrFormat("  p%zu: %zu vertices, %zu edges (%zu cut)\n", p,
                   st.num_vertices, st.num_edges, st.cut_edges);
  }
  return s;
}

}  // namespace gopt
