#include "src/exec/pipeline.h"

#include <algorithm>
#include <functional>

#include "src/exec/kernels.h"

namespace gopt {

namespace {

std::string OpLabel(const PhysOp* op) {
  std::string s = PhysOpKindName(op->kind);
  if (!op->alias.empty() &&
      (op->kind == PhysOpKind::kScanVertices ||
       op->kind == PhysOpKind::kExpandEdge ||
       op->kind == PhysOpKind::kExpandIntersect ||
       op->kind == PhysOpKind::kPathExpand)) {
    s += "(" + op->alias + ")";
  }
  return s;
}

bool IsExpansion(PhysOpKind k) {
  return k == PhysOpKind::kExpandEdge || k == PhysOpKind::kExpandIntersect ||
         k == PhysOpKind::kPathExpand;
}

int IndexOf(const std::vector<std::string>& cols, const std::string& c) {
  const auto it = std::find(cols.begin(), cols.end(), c);
  return it == cols.end() ? -1 : static_cast<int>(it - cols.begin());
}

std::vector<int> IndicesOf(const std::vector<std::string>& cols,
                           const std::vector<std::string>& names) {
  std::vector<int> idx;
  for (const auto& n : names) idx.push_back(IndexOf(cols, n));
  return idx;
}

std::vector<int> AllIndices(size_t n) {
  std::vector<int> idx(n);
  for (size_t i = 0; i < n; ++i) idx[i] = static_cast<int>(i);
  return idx;
}

/// The vertex tag an expansion reads adjacency from, which its input must
/// be partitioned by. ExpandIntersect reads every arm's adjacency; its
/// first arm is the pivot the stream is distributed on (the other arms'
/// reads are the intersection's irreducible remote lookups, which the
/// cost model charges through the edge-cut profile).
const std::string& ExpandSourceTag(const PhysOp& op) {
  if (op.kind == PhysOpKind::kExpandIntersect && !op.arms.empty()) {
    return op.arms[0].from_tag;
  }
  return op.from_tag;
}

/// The exchange a breaker sink of a distributed plan performs.
ExchangeSpec BreakerExchange(const PhysOp& op) {
  using K = ExchangeSpec::Kind;
  switch (op.kind) {
    case PhysOpKind::kAggregate:
      // A keyless aggregate produces its one row on partition 0; a
      // two-phase one exchanges partials, which have the output layout
      // with the group keys first.
      if (op.group_keys.empty()) return {K::kGather, {}};
      if (SupportsPartialAgg(op)) {
        return {K::kHash, AllIndices(op.group_keys.size())};
      }
      return {K::kGroupKeys, {}};
    case PhysOpKind::kDedup: {
      const auto& cols = op.children[0]->out_cols;
      return {K::kHash, op.dedup_tags.empty()
                            ? AllIndices(cols.size())
                            : IndicesOf(cols, op.dedup_tags)};
    }
    case PhysOpKind::kUnion:
      if (!op.union_distinct) return {};
      return {K::kHash, AllIndices(op.out_cols.size())};
    case PhysOpKind::kOrder:
    case PhysOpKind::kLimit:
      return {K::kGather, {}};
    default:
      return {};
  }
}

}  // namespace

std::string Pipeline::ToString() const {
  std::string s;
  if (source == nullptr) {
    s += "(splice)";
  } else if (source_is_scan) {
    s += OpLabel(source);
  } else {
    s += "mat[" + std::string(PhysOpKindName(source->kind)) + "]";
  }
  for (size_t i = 0; i < ops.size(); ++i) {
    s += " -> " + OpLabel(ops[i]);
    if (i < lazy_ops.size() && lazy_ops[i]) s += "[lazy]";
  }
  if (sink_is_breaker()) {
    s += " => " + std::string(PhysOpKindName(sink->kind));
  } else {
    s += " => collect";
  }
  if (exchange.kind != ExchangeSpec::Kind::kNone) {
    static const char* const kNames[] = {"", "owner", "hash", "hash group keys",
                                         "gather"};
    s += std::string(" exchange(") + kNames[static_cast<int>(exchange.kind)];
    for (int c : exchange.cols) {
      s += exchange.kind == ExchangeSpec::Kind::kOwner
               ? " " + sink->out_cols[static_cast<size_t>(c)]
               : " #" + std::to_string(c);
    }
    s += ")";
  }
  if (factorized) s += " [factorized]";
  return s;
}

int PipelinePlan::ProducerOf(const PhysOp* op) const {
  auto it = producer_.find(op);
  return it == producer_.end() ? -1 : it->second;
}

int PipelinePlan::ConsumersOf(const PhysOp* op) const {
  auto it = consumers_.find(op);
  return it == consumers_.end() ? 0 : it->second;
}

int PipelinePlan::InputOf(const PhysOp* consumer, int child) const {
  auto it = inputs_.find({consumer, child});
  return it == inputs_.end() ? -1 : it->second;
}

int PipelinePlan::ReadersOf(int id) const {
  int n = 0;
  for (const Pipeline& p : pipelines) {
    n += static_cast<int>(std::count(p.deps.begin(), p.deps.end(), id));
  }
  return n;
}

std::string PipelinePlan::ToString() const {
  std::string s;
  for (const Pipeline& p : pipelines) {
    s += "P" + std::to_string(p.id) + ": " + p.ToString();
    if (!p.deps.empty()) {
      s += " [after";
      for (int d : p.deps) s += " P" + std::to_string(d);
      s += "]";
    }
    s += "\n";
  }
  return s;
}

PipelinePlan BuildPipelinePlan(const PhysOpPtr& root, bool distributed) {
  using K = ExchangeSpec::Kind;
  // A node with more than one parent is materialized by exactly one
  // pipeline and consumed as a source by every parent chain.
  PipelinePlan plan;
  plan.distributed = distributed;
  plan.consumers_ = CountConsumers(*root);

  // The vertex tag each node's output is partitioned by on a distributed
  // plan ("" = no meaningful partitioning, e.g. after a key exchange).
  std::map<const PhysOp*, std::string> tags;
  std::function<const std::string&(const PhysOp*)> owner_tag =
      [&](const PhysOp* op) -> const std::string& {
    auto it = tags.find(op);
    if (it != tags.end()) return it->second;
    std::string tag;
    const PhysOp* child = op->children.empty() ? nullptr : op->children[0].get();
    switch (op->kind) {
      case PhysOpKind::kScanVertices:
        tag = op->alias;
        break;
      case PhysOpKind::kExpandEdge:
      case PhysOpKind::kExpandIntersect:
      case PhysOpKind::kPathExpand:
        // Co-located with the source (exchanged there if needed), unless
        // the source column is not materialized in the input row.
        tag = ExpandSourceTag(*op);
        if (!tag.empty() && IndexOf(child->out_cols, tag) < 0) {
          tag = owner_tag(child);
        }
        break;
      case PhysOpKind::kSelect:
        tag = owner_tag(child);
        break;
      case PhysOpKind::kProject:
        // Survives only if the partitioning column passes through under
        // its own name.
        for (const ProjectItem& item : op->items) {
          if (item.alias == owner_tag(child) && item.expr &&
              item.expr->kind == Expr::Kind::kVar && item.expr->tag == item.alias) {
            tag = item.alias;
          }
        }
        break;
      case PhysOpKind::kUnfold:
        if (owner_tag(child) != op->unfold_alias) tag = owner_tag(child);
        break;
      default:
        break;
    }
    return tags.emplace(op, std::move(tag)).first->second;
  };
  // The exchange a streaming consumer needs on its `child`-th input.
  auto input_exchange = [&](const PhysOp* op, int child) -> ExchangeSpec {
    if (!distributed) return {};
    const PhysOp* in = op->children[static_cast<size_t>(child)].get();
    if (op->kind == PhysOpKind::kHashJoin) {
      return {K::kHash, IndicesOf(in->out_cols, op->join_keys)};
    }
    if (!IsExpansion(op->kind)) return {};
    const std::string& need = ExpandSourceTag(*op);
    const int idx = IndexOf(in->out_cols, need);
    if (need.empty() || owner_tag(in) == need || idx < 0) return {};
    return {K::kOwner, {idx}};
  };

  auto add = [&](Pipeline p) {
    p.id = static_cast<int>(plan.pipelines.size());
    plan.pipelines.push_back(std::move(p));
    return plan.pipelines.back().id;
  };
  // Returns the id of the pipeline materializing `node` re-partitioned by
  // `ex` (for its one consumer that needs that), compiling its dependency
  // pipelines first (so `pipelines` ends up topologically ordered; the
  // root's pipeline is last).
  std::function<int(const PhysOp*, const ExchangeSpec&)> compile;
  // Fills `p`'s source and streaming chain: the maximal chain below
  // `node`, which stops at a scan (morsel source), a breaker, a node
  // shared with another parent, or an input that must be exchanged (each
  // of the latter three is materialized by its own pipeline and consumed
  // here as a batch source).
  auto descend = [&](Pipeline* p, const PhysOp* node) {
    std::vector<const PhysOp*> chain;
    const PhysOp* cur =
        IsPipelineBreaker(node->kind) ? node->children[0].get() : node;
    while (true) {
      const bool shared = cur != node && plan.ConsumersOf(cur) > 1;
      if (cur->kind == PhysOpKind::kScanVertices && !shared) {
        p->source = cur;
        p->source_is_scan = true;
        break;
      }
      if (shared || IsPipelineBreaker(cur->kind)) {
        p->source = cur;
        p->source_pipe = compile(cur, {});
        break;
      }
      chain.push_back(cur);
      if (cur->kind == PhysOpKind::kHashJoin) {
        // Build side: a breaker boundary — its subtree materializes
        // before this pipeline probes it.
        const int build =
            compile(cur->children[1].get(), input_exchange(cur, 1));
        plan.inputs_[{cur, 1}] = build;
        p->deps.push_back(build);
      }
      const ExchangeSpec ex = input_exchange(cur, 0);
      if (ex.kind != K::kNone) {
        p->source = cur->children[0].get();
        p->source_pipe = compile(p->source, ex);
        break;
      }
      cur = cur->children[0].get();
    }
    if (p->source_pipe >= 0) p->deps.push_back(p->source_pipe);
    std::reverse(chain.begin(), chain.end());
    p->ops = std::move(chain);
  };
  compile = [&](const PhysOp* node, const ExchangeSpec& ex) -> int {
    Pipeline p;
    p.sink = node;
    if (ex.kind != K::kNone &&
        (plan.ConsumersOf(node) > 1 || IsPipelineBreaker(node->kind))) {
      // A shared or breaker node is exchanged by an extra pipeline over
      // its materialized output.
      p.source = node;
      p.source_pipe = compile(node, {});
      p.deps.push_back(p.source_pipe);
      p.exchange = ex;
      return add(std::move(p));
    }
    auto it = plan.producer_.find(node);
    if (it != plan.producer_.end()) return it->second;
    p.exchange = ex.kind != K::kNone || !distributed ? ex : BreakerExchange(*node);
    if (node->kind == PhysOpKind::kUnion) {
      // Union only splices two materialized inputs (plus an optional
      // dedup); it runs as a sink step with no morsel source.
      for (int c = 0; c < 2; ++c) {
        const int in = compile(node->children[static_cast<size_t>(c)].get(), {});
        plan.inputs_[{node, c}] = in;
        p.deps.push_back(in);
      }
    } else {
      descend(&p, node);
    }
    const int id = add(std::move(p));
    plan.producer_[node] = id;
    return id;
  };
  compile(root.get(), {});
  return plan;
}

}  // namespace gopt
