#include "src/lang/gremlin_parser.h"

#include <algorithm>
#include <set>

#include "src/opt/selectivity.h"

namespace gopt {

namespace {

Value TokenLiteral(TokenCursor* c) {
  const Token& t = c->Peek();
  switch (t.kind) {
    case TokKind::kInt:
      return Value(c->Next().int_val);
    case TokKind::kFloat:
      return Value(c->Next().float_val);
    case TokKind::kString:
      return Value(c->Next().text);
    case TokKind::kIdent:
      if (t.IsKw("true")) {
        c->Next();
        return Value(true);
      }
      if (t.IsKw("false")) {
        c->Next();
        return Value(false);
      }
      break;
    default:
      break;
  }
  c->Fail("expected literal");
}

/// A scalar value position (has() values, predicate arguments): a literal
/// or a $name parameter slot resolved at execution time.
ExprPtr LiteralOrParam(TokenCursor* c) {
  if (c->Peek().kind == TokKind::kParam) {
    return Expr::MakeParam(c->Next().text);
  }
  return Expr::MakeLiteral(TokenLiteral(c));
}

}  // namespace

/// Parser state for one traversal: the pattern under construction plus the
/// relational operator suffix.
struct GremlinParser::TraversalState {
  Pattern pattern;
  std::map<std::string, int> alias_to_vid;
  int anon = 0;
  /// Current vertex (pattern vertex id); -1 before g.V().
  int cur = -1;
  /// Focused edge alias (after outE) for .as() binding; empty otherwise.
  int cur_edge = -1;
  /// Post-pattern filters accumulated from has() steps.
  std::vector<ExprPtr> filters;
  /// Relational suffix ops applied after the pattern, in order.
  struct RelOp {
    enum class K { kGroupCount, kGroup, kCount, kOrder, kLimit, kDedup, kValues };
    K k;
    std::vector<ProjectItem> keys;
    std::vector<AggCall> aggs;
    std::vector<SortItem> sorts;
    int64_t limit = -1;
    std::string prop, tag;
  };
  std::vector<RelOp> rel;
  std::string last_agg_alias;

  int VertexFor(const std::string& alias, const TypeConstraint& tc) {
    std::string key = alias.empty() ? "$v" + std::to_string(anon++) : alias;
    auto it = alias_to_vid.find(key);
    if (it != alias_to_vid.end()) {
      PatternVertex& v = pattern.VertexById(it->second);
      v.tc = v.tc.Intersect(tc);
      return it->second;
    }
    int id = pattern.AddVertex(key, tc);
    alias_to_vid[key] = id;
    return id;
  }

  std::string AliasOf(int vid) const { return pattern.VertexById(vid).alias; }

  /// Renames the current element to a user alias (the .as() step).
  void Bind(const std::string& name) {
    if (cur_edge >= 0) {
      pattern.EdgeById(cur_edge).alias = name;
      return;
    }
    if (cur < 0) return;
    PatternVertex& v = pattern.VertexById(cur);
    auto it = alias_to_vid.find(name);
    if (it != alias_to_vid.end() && it->second != cur) {
      // Unifying with an existing alias: merge constraints and rewire edges.
      PatternVertex& tgt = pattern.VertexById(it->second);
      tgt.tc = tgt.tc.Intersect(v.tc);
      for (auto& e : pattern.mutable_edges()) {
        if (e.src == cur) e.src = it->second;
        if (e.dst == cur) e.dst = it->second;
      }
      // Drop the now-orphaned anonymous vertex.
      auto& vs = pattern.mutable_vertices();
      vs.erase(std::remove_if(vs.begin(), vs.end(),
                              [&](const PatternVertex& x) { return x.id == cur; }),
               vs.end());
      alias_to_vid.erase(v.alias);
      cur = it->second;
      return;
    }
    alias_to_vid.erase(v.alias);
    v.alias = name;
    alias_to_vid[name] = cur;
  }
};

LogicalOpPtr GremlinParser::Parse(const std::string& query) {
  Lexer lex(query);
  TokenCursor c(&lex.tokens());
  c.ExpectKw("g");
  c.Expect(".");
  // Top-level union of full traversals.
  if (c.Peek().IsKw("union")) {
    c.Next();
    c.Expect("(");
    GraphIrBuilder b;
    LogicalOpPtr plan;
    do {
      c.ExpectKw("__");
      c.Expect(".");
      LogicalOpPtr t = ParseTraversal(&c);
      plan = plan ? b.Union(plan, t, /*distinct=*/false) : t;
    } while (c.Accept(","));
    c.Expect(")");
    if (!c.AtEnd()) c.Fail("unexpected trailing input");
    return plan;
  }
  LogicalOpPtr plan = ParseTraversal(&c);
  if (!c.AtEnd()) c.Fail("unexpected trailing input");
  return plan;
}

LogicalOpPtr GremlinParser::ParseTraversal(TokenCursor* c) {
  TraversalState st;
  c->ExpectKw("V");
  c->Expect("(");
  c->Expect(")");
  st.cur = st.VertexFor("", TypeConstraint::All());
  ParseSteps(c, &st);

  // ---- lower to GIR ----
  GraphIrBuilder b;
  LogicalOpPtr plan = b.MatchComponents(st.pattern);
  if (!st.filters.empty()) plan = b.Select(plan, Expr::And(st.filters));

  bool projected = false;
  for (const auto& r : st.rel) {
    using K = TraversalState::RelOp::K;
    switch (r.k) {
      case K::kGroupCount:
      case K::kGroup:
      case K::kCount:
        plan = b.Group(plan, r.keys, r.aggs);
        projected = true;
        break;
      case K::kOrder:
        plan = b.Order(plan, r.sorts, r.limit);
        break;
      case K::kLimit:
        plan = b.Limit(plan, r.limit);
        break;
      case K::kDedup:
        plan = b.Dedup(plan, r.tag.empty() ? std::vector<std::string>{}
                                           : std::vector<std::string>{r.tag});
        break;
      case K::kValues: {
        std::vector<ProjectItem> items;
        items.push_back({Expr::MakeProperty(r.tag, r.prop), r.prop});
        plan = b.Project(plan, std::move(items), false);
        projected = true;
        break;
      }
    }
  }
  if (!projected && plan->kind != LogicalOpKind::kProject) {
    // Terminal traversal: project user-visible aliases (or the current
    // vertex for plain chains).
    std::vector<ProjectItem> items;
    for (const auto& a : st.pattern.Aliases()) {
      if (!a.empty() && a[0] != '$') items.push_back({Expr::MakeVar(a), a});
    }
    if (items.empty() && st.cur >= 0) {
      const std::string& a = st.AliasOf(st.cur);
      items.push_back({Expr::MakeVar(a), a});
    }
    if (!items.empty()) plan = b.Project(plan, std::move(items), false);
  }
  return plan;
}

void GremlinParser::ParseMatchArg(TokenCursor* c, TraversalState* st) {
  c->ExpectKw("__");
  c->Expect(".");
  // Leading as('x') anchors the sub-traversal.
  c->ExpectKw("as");
  c->Expect("(");
  std::string anchor = c->Next().text;  // string literal
  c->Expect(")");
  int saved_cur = st->cur;
  auto it = st->alias_to_vid.find(anchor);
  st->cur = (it != st->alias_to_vid.end())
                ? it->second
                : st->VertexFor(anchor, TypeConstraint::All());
  st->cur_edge = -1;
  ParseSteps(c, st);
  st->cur = saved_cur;
  st->cur_edge = -1;
}

void GremlinParser::ParseSteps(TokenCursor* c, TraversalState* st) {
  while (c->Accept(".")) {
    std::string step = c->ExpectIdent();
    c->Expect("(");
    auto str_arg = [&]() {
      if (c->Peek().kind != TokKind::kString) c->Fail("expected string arg");
      return c->Next().text;
    };

    if (step == "hasLabel") {
      std::vector<TypeId> types;
      do {
        std::string label = str_arg();
        auto t = schema_->FindVertexType(label);
        if (!t) c->Fail("unknown label '" + label + "'");
        types.push_back(*t);
      } while (c->Accept(","));
      c->Expect(")");
      if (st->cur < 0) c->Fail("hasLabel without vertex");
      PatternVertex& v = st->pattern.VertexById(st->cur);
      v.tc = v.tc.Intersect(TypeConstraint::Union(types));
      continue;
    }
    if (step == "has") {
      std::string prop = str_arg();
      c->Expect(",");
      ExprPtr lhs = Expr::MakeProperty(st->AliasOf(st->cur), prop);
      ExprPtr pred;
      if (c->Peek().kind == TokKind::kIdent) {
        std::string p = c->ExpectIdent();
        c->Expect("(");
        if (p == "within") {
          std::vector<Value> vals;
          do {
            vals.push_back(TokenLiteral(c));
          } while (c->Accept(","));
          pred = Expr::MakeBinary(BinOp::kIn, lhs,
                                  Expr::MakeLiteral(Value::List(vals)));
        } else {
          ExprPtr v = LiteralOrParam(c);
          BinOp op = BinOp::kEq;
          if (p == "gt") op = BinOp::kGt;
          else if (p == "gte") op = BinOp::kGe;
          else if (p == "lt") op = BinOp::kLt;
          else if (p == "lte") op = BinOp::kLe;
          else if (p == "neq") op = BinOp::kNe;
          else if (p != "eq") c->Fail("unsupported predicate " + p);
          pred = Expr::MakeBinary(op, lhs, std::move(v));
        }
        c->Expect(")");
      } else {
        pred = Expr::MakeBinary(BinOp::kEq, lhs, LiteralOrParam(c));
      }
      c->Expect(")");
      st->filters.push_back(pred);
      continue;
    }
    if (step == "as") {
      std::string name = str_arg();
      c->Expect(")");
      st->Bind(name);
      continue;
    }
    if (step == "out" || step == "in" || step == "both" || step == "outE" ||
        step == "inE") {
      TypeConstraint etc_ = TypeConstraint::All();
      if (!c->Peek().Is(")")) {
        std::vector<TypeId> types;
        do {
          std::string label = str_arg();
          auto t = schema_->FindEdgeType(label);
          if (!t) c->Fail("unknown edge type '" + label + "'");
          types.push_back(*t);
        } while (c->Accept(","));
        etc_ = TypeConstraint::Union(types);
      }
      c->Expect(")");
      int nv = st->VertexFor("", TypeConstraint::All());
      bool outward = (step == "out" || step == "outE" || step == "both");
      bool is_both = (step == "both");
      int src = outward ? st->cur : nv;
      int dst = outward ? nv : st->cur;
      if (step == "in" || step == "inE") {
        src = nv;
        dst = st->cur;
      }
      int eid = st->pattern.AddEdge(src, dst, "$e" + std::to_string(st->anon++),
                                    etc_,
                                    is_both ? Direction::kBoth : Direction::kOut);
      st->cur = nv;
      st->cur_edge = (step == "outE" || step == "inE") ? eid : -1;
      continue;
    }
    if (step == "inV" || step == "outV" || step == "otherV") {
      c->Expect(")");
      st->cur_edge = -1;  // focus back on the vertex (already st->cur)
      continue;
    }
    if (step == "match") {
      do {
        ParseMatchArg(c, st);
      } while (c->Accept(","));
      c->Expect(")");
      st->cur_edge = -1;
      continue;
    }
    if (step == "select") {
      std::string first = str_arg();
      while (c->Accept(",")) str_arg();  // extra keys only refocus
      c->Expect(")");
      auto it = st->alias_to_vid.find(first);
      if (it == st->alias_to_vid.end()) c->Fail("select of unknown tag " + first);
      st->cur = it->second;
      st->cur_edge = -1;
      continue;
    }
    if (step == "values") {
      std::string prop = str_arg();
      c->Expect(")");
      TraversalState::RelOp r;
      r.k = TraversalState::RelOp::K::kValues;
      r.prop = prop;
      r.tag = st->AliasOf(st->cur);
      st->rel.push_back(std::move(r));
      continue;
    }
    if (step == "groupCount" || step == "group") {
      c->Expect(")");
      TraversalState::RelOp r;
      r.k = TraversalState::RelOp::K::kGroupCount;
      // .by('key')
      c->Expect(".");
      c->ExpectKw("by");
      c->Expect("(");
      std::string key = str_arg();
      c->Expect(")");
      ExprPtr key_expr;
      std::string key_alias;
      if (st->alias_to_vid.count(key)) {
        key_expr = Expr::MakeVar(key);
        key_alias = key;
      } else {
        key_expr = Expr::MakeProperty(st->AliasOf(st->cur), key);
        key_alias = key;
      }
      r.keys.push_back({key_expr, key_alias});
      if (step == "group") {
        // .by(count) value aggregation
        c->Expect(".");
        c->ExpectKw("by");
        c->Expect("(");
        c->ExpectKw("count");
        c->Expect(")");
      }
      r.aggs.push_back({AggFunc::kCount, nullptr, "cnt"});
      st->last_agg_alias = "cnt";
      st->rel.push_back(std::move(r));
      continue;
    }
    if (step == "count") {
      c->Expect(")");
      TraversalState::RelOp r;
      r.k = TraversalState::RelOp::K::kCount;
      r.aggs.push_back({AggFunc::kCount, nullptr, "cnt"});
      st->last_agg_alias = "cnt";
      st->rel.push_back(std::move(r));
      continue;
    }
    if (step == "order") {
      c->Expect(")");
      TraversalState::RelOp r;
      r.k = TraversalState::RelOp::K::kOrder;
      while (c->Peek().Is(".") && c->Peek(1).IsKw("by")) {
        c->Next();  // .
        c->Next();  // by
        c->Expect("(");
        SortItem s;
        s.asc = true;
        if (c->Peek().IsKw("values")) {
          c->Next();
          s.expr = Expr::MakeVar(st->last_agg_alias.empty() ? "cnt"
                                                            : st->last_agg_alias);
        } else if (c->Peek().kind == TokKind::kString) {
          std::string key = c->Next().text;
          s.expr = st->alias_to_vid.count(key) || !st->rel.empty()
                       ? Expr::MakeVar(key)
                       : Expr::MakeProperty(st->AliasOf(st->cur), key);
        } else {
          c->Fail("unsupported order().by() argument");
        }
        if (c->Accept(",")) {
          std::string mod = c->ExpectIdent();
          if (mod == "desc" || mod == "decr") s.asc = false;
        }
        c->Expect(")");
        r.sorts.push_back(std::move(s));
      }
      st->rel.push_back(std::move(r));
      continue;
    }
    if (step == "limit") {
      if (c->Peek().kind != TokKind::kInt) c->Fail("expected limit count");
      int64_t n = c->Next().int_val;
      c->Expect(")");
      if (!st->rel.empty() &&
          st->rel.back().k == TraversalState::RelOp::K::kOrder) {
        st->rel.back().limit = n;
      } else {
        TraversalState::RelOp r;
        r.k = TraversalState::RelOp::K::kLimit;
        r.limit = n;
        st->rel.push_back(std::move(r));
      }
      continue;
    }
    if (step == "dedup") {
      c->Expect(")");
      TraversalState::RelOp r;
      r.k = TraversalState::RelOp::K::kDedup;
      st->rel.push_back(std::move(r));
      continue;
    }
    c->Fail("unsupported Gremlin step: " + step);
  }
}

}  // namespace gopt
