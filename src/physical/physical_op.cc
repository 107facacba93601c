#include "src/physical/physical_op.h"

#include <functional>

namespace gopt {

const char* PhysOpKindName(PhysOpKind k) {
  switch (k) {
    case PhysOpKind::kScanVertices: return "Scan";
    case PhysOpKind::kExpandEdge: return "Expand";
    case PhysOpKind::kExpandIntersect: return "ExpandIntersect";
    case PhysOpKind::kPathExpand: return "PathExpand";
    case PhysOpKind::kHashJoin: return "HashJoin";
    case PhysOpKind::kSelect: return "Select";
    case PhysOpKind::kProject: return "Project";
    case PhysOpKind::kAggregate: return "Group";
    case PhysOpKind::kOrder: return "Order";
    case PhysOpKind::kLimit: return "Limit";
    case PhysOpKind::kDedup: return "Dedup";
    case PhysOpKind::kUnion: return "Union";
    case PhysOpKind::kUnfold: return "Unfold";
  }
  return "?";
}

PipelineRole PhysOpPipelineRole(PhysOpKind k) {
  switch (k) {
    case PhysOpKind::kScanVertices:
      return PipelineRole::kSource;
    case PhysOpKind::kExpandEdge:
    case PhysOpKind::kExpandIntersect:
    case PhysOpKind::kPathExpand:
    case PhysOpKind::kSelect:
    case PhysOpKind::kProject:
    case PhysOpKind::kUnfold:
    // HashJoin streams on its probe (left) side; the build side is a
    // pipeline of its own (the breaker boundary lives on the edge to
    // children[1], not on the join node itself).
    case PhysOpKind::kHashJoin:
      return PipelineRole::kStreaming;
    case PhysOpKind::kAggregate:
    case PhysOpKind::kOrder:
    // Limit is global (first N of the whole stream), so it must see all
    // input: a breaker, like Order.
    case PhysOpKind::kLimit:
    case PhysOpKind::kDedup:
    case PhysOpKind::kUnion:
      return PipelineRole::kBreaker;
  }
  return PipelineRole::kBreaker;
}

bool IsPipelineBreaker(PhysOpKind k) {
  return PhysOpPipelineRole(k) == PipelineRole::kBreaker;
}

bool HasVectorizedFastPath(PhysOpKind k) {
  switch (k) {
    case PhysOpKind::kScanVertices:
    case PhysOpKind::kSelect:
    case PhysOpKind::kExpandIntersect:
      return true;
    default:
      return false;
  }
}

std::map<const PhysOp*, int> CountConsumers(const PhysOp& root) {
  std::map<const PhysOp*, int> consumers;
  std::function<void(const PhysOp&)> walk = [&](const PhysOp& op) {
    for (const PhysOpPtr& child : op.children) {
      // A node reached again through a second parent contributes one more
      // consumer edge but its subtree is already counted.
      if (consumers[child.get()]++ == 0) walk(*child);
    }
  };
  walk(root);
  return consumers;
}

namespace {

/// Appends " <label> p1 p2 ..." when `preds` is non-empty.
void AppendPreds(std::string* s, const char* label,
                 const std::vector<ExprPtr>& preds) {
  if (preds.empty()) return;
  *s += " ";
  *s += label;
  for (const auto& p : preds) *s += " " + p->ToString();
}

}  // namespace

std::string PhysOp::ToString(const GraphSchema& schema, int indent) const {
  std::string pad(static_cast<size_t>(indent) * 2, ' ');
  std::string s = pad + PhysOpKindName(kind);
  switch (kind) {
    case PhysOpKind::kScanVertices:
      s += " " + alias + " (" + vtc.ToString(schema, true) + ")";
      AppendPreds(&s, "where", vertex_preds);
      break;
    case PhysOpKind::kExpandEdge: {
      s += target_bound ? "Into " : " ";
      s += from_tag;
      s += (dir == Direction::kIn) ? "<-" : "-";
      s += "[";
      if (!edge_alias.empty()) s += edge_alias + ":";
      s += etc_.ToString(schema, false) + "]";
      s += (dir == Direction::kOut) ? "->" : "-";
      s += alias + " (" + vtc.ToString(schema, true) + ")";
      AppendPreds(&s, "edge where", edge_preds);
      AppendPreds(&s, "where", vertex_preds);
      break;
    }
    case PhysOpKind::kExpandIntersect: {
      s += " " + alias + " (" + vtc.ToString(schema, true) + ") arms{";
      for (size_t i = 0; i < arms.size(); ++i) {
        if (i) s += ", ";
        s += arms[i].from_tag;
        s += (arms[i].dir == Direction::kIn) ? "<-" : "->";
        s += "[" + arms[i].etc_.ToString(schema, false) + "]";
        AppendPreds(&s, "edge where", arms[i].edge_preds);
      }
      s += "}";
      AppendPreds(&s, "where", vertex_preds);
      break;
    }
    case PhysOpKind::kPathExpand:
      s += " " + from_tag + "-[" + etc_.ToString(schema, false) + "*" +
           std::to_string(min_hops) + ".." + std::to_string(max_hops) + "]-" +
           alias;
      if (target_bound) s += " (into)";
      AppendPreds(&s, "edge where", edge_preds);
      AppendPreds(&s, "where", vertex_preds);
      break;
    case PhysOpKind::kHashJoin: {
      s += " keys{";
      for (size_t i = 0; i < join_keys.size(); ++i) {
        if (i) s += ",";
        s += join_keys[i];
      }
      s += "}";
      break;
    }
    case PhysOpKind::kSelect:
      s += " " + (predicate ? predicate->ToString() : "true");
      break;
    case PhysOpKind::kProject: {
      s += " {";
      for (size_t i = 0; i < items.size(); ++i) {
        if (i) s += ", ";
        s += items[i].expr->ToString() + " AS " + items[i].alias;
      }
      s += "}";
      break;
    }
    case PhysOpKind::kAggregate: {
      s += " keys={";
      for (size_t i = 0; i < group_keys.size(); ++i) {
        if (i) s += ",";
        s += group_keys[i].alias;
      }
      s += "} aggs={";
      for (size_t i = 0; i < aggs.size(); ++i) {
        if (i) s += ",";
        s += AggFuncName(aggs[i].fn);
      }
      s += "}";
      break;
    }
    case PhysOpKind::kOrder:
      if (limit >= 0) s += " limit=" + std::to_string(limit);
      break;
    case PhysOpKind::kLimit:
      s += " " + std::to_string(limit);
      break;
    default:
      break;
  }
  s += "\n";
  for (const auto& c : children) s += c->ToString(schema, indent + 1);
  return s;
}

}  // namespace gopt
