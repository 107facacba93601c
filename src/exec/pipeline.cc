#include "src/exec/pipeline.h"

#include <algorithm>
#include <functional>

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

PipelinePlan BuildPipelinePlan(const PhysOpPtr& root) {
  // A node with more than one parent is materialized by exactly one
  // pipeline (like the memoizing executors) and consumed as a source by
  // every parent chain.
  PipelinePlan plan;
  plan.consumers_ = CountConsumers(*root);
  // Returns the id of the pipeline materializing `node`, compiling its
  // dependency pipelines first (so `pipelines` ends up topologically
  // ordered; the root's pipeline is last).
  std::function<int(const PhysOp*)> compile = [&](const PhysOp* node) -> int {
    auto it = plan.producer_.find(node);
    if (it != plan.producer_.end()) return it->second;

    Pipeline p;
    p.sink = node;
    if (node->kind == PhysOpKind::kUnion) {
      // Union only splices two materialized inputs (plus an optional
      // dedup); it runs as a sequential sink step with no morsel source.
      p.deps.push_back(compile(node->children[0].get()));
      p.deps.push_back(compile(node->children[1].get()));
    } else {
      // Descend the maximal streaming chain below the sink. The chain
      // stops at a scan (morsel source), a breaker, or a node shared with
      // another parent (both of the latter are materialized by their own
      // pipelines and consumed here as a batch source).
      std::vector<const PhysOp*> chain;
      const PhysOp* cur =
          IsPipelineBreaker(node->kind) ? node->children[0].get() : node;
      while (true) {
        const bool shared = cur != node && plan.ConsumersOf(cur) > 1;
        if (cur->kind == PhysOpKind::kScanVertices) {
          if (shared) {
            p.deps.push_back(compile(cur));
            p.source = cur;
          } else {
            p.source = cur;
            p.source_is_scan = true;
          }
          break;
        }
        if (shared || IsPipelineBreaker(cur->kind)) {
          p.deps.push_back(compile(cur));
          p.source = cur;
          break;
        }
        chain.push_back(cur);
        if (cur->kind == PhysOpKind::kHashJoin) {
          // Build side: a breaker boundary — its subtree materializes
          // before this pipeline probes it.
          p.deps.push_back(compile(cur->children[1].get()));
        }
        cur = cur->children[0].get();
      }
      std::reverse(chain.begin(), chain.end());
      p.ops = std::move(chain);
    }

    p.id = static_cast<int>(plan.pipelines.size());
    plan.producer_[node] = p.id;
    plan.pipelines.push_back(std::move(p));
    return plan.pipelines.back().id;
  };
  compile(root.get());
  return plan;
}

}  // namespace gopt
