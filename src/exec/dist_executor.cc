#include "src/exec/dist_executor.h"

#include <algorithm>
#include <stdexcept>

namespace gopt {

namespace {

int IndexOf(const std::vector<std::string>& cols, const std::string& c) {
  for (size_t i = 0; i < cols.size(); ++i) {
    if (cols[i] == c) return static_cast<int>(i);
  }
  return -1;
}

/// True when project item `it` passes a variable through under its own
/// name — the one projection shape that preserves a stream's ownership
/// partitioning on that column.
bool IsPassthrough(const ProjectItem& it) {
  return it.expr && it.expr->kind == Expr::Kind::kVar &&
         it.expr->tag == it.alias;
}

size_t TotalRows(const std::vector<std::vector<Batch>>& parts) {
  size_t n = 0;
  for (const auto& stream : parts) n += TotalBatchRows(stream);
  return n;
}

}  // namespace

ResultTable DistributedExecutor::Execute(const PhysOpPtr& root) {
  memo_.clear();
  owner_tag_.clear();
  stats_ = ExecStats{};
  stats_.partitions = workers_;
  stats_.store_cut_edges = pg_.total_cut_edges();
  stats_.store_vertex_balance = pg_.VertexBalance();
  stats_.partition_rows.assign(static_cast<size_t>(workers_), 0);
  consumers_ = CountConsumers(*root);
  PartsPtr parts = Run(root);
  // Fresh executor per Execute, so the kernel dispatch counters started at
  // zero: the final values are this run's totals.
  stats_.vec_dispatch = k_.vectorized_dispatches();
  stats_.gen_dispatch = k_.generic_dispatches();
  ResultTable out;
  out.columns = root->out_cols;
  out.rows.reserve(TotalRows(*parts));
  for (const auto& stream : *parts) {
    for (const Batch& b : stream) b.AppendRowsTo(&out.rows);
  }
  return out;
}

template <typename F>
void DistributedExecutor::ForEachWorker(size_t input_rows, const F& fn) const {
  const size_t W = static_cast<size_t>(workers_);
  if (input_rows < kInlineStageRows) {
    for (size_t w = 0; w < W; ++w) fn(w);
  } else {
    ParallelFor(pool_, W, fn);
  }
}

template <typename F>
DistributedExecutor::Parts DistributedExecutor::MapBatches(
    const Parts& in, const F& kernel) const {
  Parts out(static_cast<size_t>(workers_));
  ForEachWorker(TotalRows(in), [&](size_t w) {
    for (const Batch& b : in[w]) {
      Batch o = kernel(b);
      if (!o.empty()) out[w].push_back(std::move(o));
    }
  });
  return out;
}

template <typename F>
DistributedExecutor::Parts DistributedExecutor::MapStreams(
    const Parts& in, const F& kernel) const {
  Parts out(static_cast<size_t>(workers_));
  ForEachWorker(TotalRows(in), [&](size_t w) {
    Batch o = kernel(in[w]);
    if (!o.empty()) out[w].push_back(std::move(o));
  });
  return out;
}

template <typename F>
DistributedExecutor::Parts DistributedExecutor::Exchange(Parts in,
                                                         const F& target) {
  const size_t W = static_cast<size_t>(workers_);
  stats_.exchanges++;
  // Targets first, so every destination column is reserved once; then a
  // column-at-a-time scatter that moves values out of the drained input.
  std::vector<std::vector<std::vector<uint32_t>>> targets(W);
  std::vector<size_t> counts(W, 0);
  size_t ncols = 0;
  for (size_t w = 0; w < W; ++w) {
    targets[w].resize(in[w].size());
    for (size_t bi = 0; bi < in[w].size(); ++bi) {
      const Batch& b = in[w][bi];
      ncols = b.num_cols();
      std::vector<uint32_t>& t = targets[w][bi];
      t.resize(b.size());
      for (size_t i = 0; i < b.size(); ++i) {
        t[i] = static_cast<uint32_t>(target(b, i));
        if (t[i] != w) stats_.comm_rows++;
        counts[t[i]]++;
      }
    }
  }
  std::vector<Batch> dest(W, Batch(ncols));
  for (size_t d = 0; d < W; ++d) {
    for (size_t c = 0; c < ncols; ++c) dest[d].col(c).reserve(counts[d]);
  }
  for (size_t w = 0; w < W; ++w) {
    for (size_t bi = 0; bi < in[w].size(); ++bi) {
      Batch& b = in[w][bi];
      const std::vector<uint32_t>& t = targets[w][bi];
      for (size_t c = 0; c < ncols; ++c) {
        if (b.col_is_group(c)) {
          for (size_t i = 0; i < t.size(); ++i) {
            dest[t[i]].col(c).push_back(b.At(i, c));
          }
        } else {
          std::vector<Value>& col = b.col(c);
          for (size_t i = 0; i < t.size(); ++i) {
            dest[t[i]].col(c).push_back(std::move(col[b.PhysIndex(i)]));
          }
        }
      }
    }
  }
  Parts out(W);
  for (size_t d = 0; d < W; ++d) {
    if (!dest[d].empty()) out[d].push_back(std::move(dest[d]));
  }
  return out;
}

DistributedExecutor::Parts DistributedExecutor::ExchangeByKey(
    Parts in, const std::vector<int>& key_idx) {
  const size_t W = static_cast<size_t>(workers_);
  return Exchange(std::move(in), [&](const Batch& b, size_t i) -> size_t {
    if (key_idx.empty()) return 0;
    size_t h = 0x51ed;
    for (int k : key_idx) {
      h = HashCombine(h, b.At(i, static_cast<size_t>(k)).Hash());
    }
    return h % W;
  });
}

DistributedExecutor::Parts DistributedExecutor::ExchangeByVertex(Parts in,
                                                                 int idx) {
  return Exchange(std::move(in), [&](const Batch& b, size_t i) -> size_t {
    const Value& v = b.At(i, static_cast<size_t>(idx));
    if (v.kind() != Value::Kind::kVertex) return 0;
    return static_cast<size_t>(pg_.OwnerOf(v.AsVertex().id));
  });
}

const std::string& DistributedExecutor::ExpandSourceTag(const PhysOp& op) {
  // ExpandIntersect reads adjacency of every arm; the first arm is the
  // pivot the stream is distributed on (the remaining arms' reads are the
  // intersection's irreducible remote lookups, charged by the cost model
  // through the edge-cut profile).
  if (op.kind == PhysOpKind::kExpandIntersect && !op.arms.empty()) {
    return op.arms[0].from_tag;
  }
  return op.from_tag;
}

const DistributedExecutor::Parts* DistributedExecutor::StageForExpansion(
    const PhysOp& op, const PartsPtr& in, Parts* staged,
    std::string* cur_tag) {
  const std::string& need = ExpandSourceTag(op);
  *cur_tag = need;
  auto it = owner_tag_.find(op.children[0].get());
  const std::string& have = it != owner_tag_.end() ? it->second : std::string();
  if (need.empty() || have == need) return in.get();  // already co-located
  const int idx = IndexOf(op.children[0]->out_cols, need);
  if (idx < 0) {
    *cur_tag = have;  // tag not materialized in the row: nothing to stage
    return in.get();
  }
  *staged = ExchangeByVertex(Take(op.children[0].get(), in), idx);
  return staged;
}

DistributedExecutor::Parts DistributedExecutor::Take(const PhysOp* child,
                                                     const PartsPtr& parts) {
  if (consumers_[child] <= 1) return std::move(*parts);
  return *parts;
}

DistributedExecutor::PartsPtr DistributedExecutor::Run(const PhysOpPtr& op) {
  auto it = memo_.find(op.get());
  if (it != memo_.end()) return it->second;

  // Operator-boundary cancellation check: every dataflow step of the
  // simulator starts on the control thread, so checking here bounds the
  // overrun to one operator.
  cancel_.Check();

  const size_t W = static_cast<size_t>(workers_);
  const PhysOp* child0 = op->children.empty() ? nullptr : op->children[0].get();
  // The vertex tag this node's output is ownership-partitioned by ("" =
  // none).
  std::string out_tag;
  auto result = std::make_shared<Parts>(W);
  switch (op->kind) {
    case PhysOpKind::kScanVertices: {
      // Each worker scans its own partition's owned vertex lists (one
      // morsel per (partition, type), partition-major) — no communication.
      const std::vector<ScanMorsel> morsels =
          k_.ScanMorsels(*op, ~static_cast<size_t>(0));
      size_t domain = 0;
      for (const ScanMorsel& m : morsels) domain += m.end - m.begin;
      ForEachWorker(domain, [&](size_t w) {
        for (const ScanMorsel& m : morsels) {
          if (m.partition != static_cast<int>(w)) continue;
          Batch b = k_.ScanBatch(*op, m);
          if (!b.empty()) (*result)[w].push_back(std::move(b));
        }
      });
      out_tag = op->alias;
      break;
    }
    case PhysOpKind::kExpandEdge:
    case PhysOpKind::kExpandIntersect:
    case PhysOpKind::kPathExpand: {
      auto in = Run(op->children[0]);
      auto expand = [&](const Parts& src) {
        return MapBatches(src, [&](const Batch& b) {
          switch (op->kind) {
            case PhysOpKind::kExpandEdge:
              return k_.ExpandEdgeBatch(*op, b);
            case PhysOpKind::kExpandIntersect:
              return k_.ExpandIntersectBatch(*op, b);
            default:
              return k_.PathExpandBatch(*op, b);
          }
        });
      };
      // Lazy exchange: co-locate the input with the expansion source's
      // owner (a no-op when the stream already is), then expand in place.
      // The output stays partitioned by the source tag — the newly bound
      // vertex ships only if a later operator expands from it, so a
      // chain's final expansion moves no rows at all.
      Parts staged;
      const Parts* src = StageForExpansion(*op, in, &staged, &out_tag);
      *result = expand(*src);
      break;
    }
    case PhysOpKind::kSelect: {
      // Refines the selection vectors in place; no values move.
      *result = Take(child0, Run(op->children[0]));
      ForEachWorker(TotalRows(*result), [&](size_t w) {
        std::vector<Batch>& stream = (*result)[w];
        for (Batch& b : stream) k_.FilterBatch(*op, &b);
        stream.erase(std::remove_if(stream.begin(), stream.end(),
                                    [](const Batch& b) { return b.empty(); }),
                     stream.end());
      });
      out_tag = owner_tag_[child0];
      break;
    }
    case PhysOpKind::kProject: {
      auto in = Run(op->children[0]);
      *result = MapBatches(
          *in, [&](const Batch& b) { return k_.ProjectBatch(*op, b); });
      // Partitioning survives only if the partitioning column passes
      // through under its own name.
      const std::string& have = owner_tag_[child0];
      for (const ProjectItem& item : op->items) {
        if (item.alias == have && IsPassthrough(item)) out_tag = have;
      }
      break;
    }
    case PhysOpKind::kUnfold: {
      auto in = Run(op->children[0]);
      *result = MapBatches(
          *in, [&](const Batch& b) { return k_.UnfoldBatch(*op, b); });
      const std::string& have = owner_tag_[child0];
      if (have != op->unfold_alias) out_tag = have;
      break;
    }
    case PhysOpKind::kAggregate: {
      auto in = Run(op->children[0]);
      auto aggregate = [&](const Parts& src, bool combine) {
        return MapStreams(src, [&](const std::vector<Batch>& stream) {
          return k_.Aggregate(*op, stream, combine);
        });
      };
      if (SupportsPartialAgg(*op)) {
        // GroupLocal on each worker, exchange partials by key, GroupGlobal.
        std::vector<int> key_idx;
        for (size_t i = 0; i < op->group_keys.size(); ++i) {
          key_idx.push_back(static_cast<int>(i));
        }
        *result = aggregate(ExchangeByKey(aggregate(*in, false), key_idx),
                            /*combine=*/true);
      } else {
        // Raw-row exchange by group key hash, then full local aggregation.
        const ColMap cmap = MakeColMap(op->children[0]->out_cols);
        Row scratch;
        Parts keyed = Exchange(
            Take(child0, in), [&](const Batch& b, size_t i) -> size_t {
              if (op->group_keys.empty()) return 0;
              b.GatherRow(i, &scratch);
              size_t h = 0x9d;
              for (const auto& k : op->group_keys) {
                h = HashCombine(h, k_.eval().Eval(*k.expr, scratch, cmap).Hash());
              }
              return h % W;
            });
        *result = aggregate(keyed, false);
      }
      // A keyless aggregate produces its single row on worker 0 only;
      // other workers' aggregation over empty input must not emit
      // defaults.
      if (op->group_keys.empty()) {
        for (size_t w = 1; w < W; ++w) (*result)[w].clear();
      }
      break;
    }
    case PhysOpKind::kHashJoin: {
      auto l = Run(op->children[0]);
      auto r = Run(op->children[1]);
      std::vector<int> lkey, rkey;
      for (const auto& k : op->join_keys) {
        lkey.push_back(IndexOf(op->children[0]->out_cols, k));
        rkey.push_back(IndexOf(op->children[1]->out_cols, k));
        if (lkey.back() < 0 || rkey.back() < 0) {
          throw std::runtime_error("HashJoin: key column '" + k +
                                   "' missing from an input");
        }
      }
      Parts le = ExchangeByKey(Take(child0, l), lkey);
      Parts re = ExchangeByKey(Take(op->children[1].get(), r), rkey);
      ForEachWorker(TotalRows(le) + TotalRows(re), [&](size_t w) {
        // Build over this worker's share of the right side, probe with its
        // share of the left.
        const JoinHashTable ht = k_.BuildJoinTable(*op, re[w]);
        for (const Batch& b : le[w]) {
          Batch o = k_.JoinProbeBatch(*op, b, ht);
          if (!o.empty()) (*result)[w].push_back(std::move(o));
        }
      });
      break;
    }
    case PhysOpKind::kDedup: {
      auto in = Run(op->children[0]);
      const auto& ccols = op->children[0]->out_cols;
      std::vector<int> key_idx;
      if (op->dedup_tags.empty()) {
        for (size_t i = 0; i < ccols.size(); ++i) {
          key_idx.push_back(static_cast<int>(i));
        }
      } else {
        for (const auto& t : op->dedup_tags) key_idx.push_back(IndexOf(ccols, t));
      }
      Parts ex = ExchangeByKey(Take(child0, in), key_idx);
      *result = MapStreams(ex, [&](const std::vector<Batch>& stream) {
        return k_.Dedup(*op, stream);
      });
      break;
    }
    case PhysOpKind::kOrder: {
      auto in = Run(op->children[0]);
      // Local top-k, gather the sorted lists to worker 0 (counted as
      // communication like any exchange), then k-way merge them there —
      // output-identical to re-sorting the concatenation, without the
      // O(N log N) re-sort of already-sorted runs.
      std::vector<Batch> local(W);
      ForEachWorker(TotalRows(*in), [&](size_t w) {
        local[w] = k_.SortLimit(*op, (*in)[w]);
      });
      stats_.exchanges++;
      for (size_t w = 1; w < W; ++w) stats_.comm_rows += local[w].size();
      Batch merged = k_.MergeSortedLimit(*op, local);
      if (!merged.empty()) (*result)[0].push_back(std::move(merged));
      break;
    }
    case PhysOpKind::kLimit: {
      auto in = Run(op->children[0]);
      Parts gathered = ExchangeByKey(Take(child0, in), {});
      if (!gathered[0].empty()) {
        Batch& b = gathered[0][0];
        const size_t n = std::min(b.size(), static_cast<size_t>(op->limit));
        std::vector<uint32_t> head(n);
        for (size_t i = 0; i < n; ++i) head[i] = b.PhysIndex(i);
        b.SetSelection(std::move(head));
        if (n > 0) (*result)[0].push_back(std::move(b));
      }
      break;
    }
    case PhysOpKind::kUnion: {
      Parts l = Take(child0, Run(op->children[0]));
      Parts r = Take(op->children[1].get(), Run(op->children[1]));
      for (size_t w = 0; w < W; ++w) {
        (*result)[w] = std::move(l[w]);
        for (Batch& b : r[w]) {
          (*result)[w].push_back(MapColumns(
              std::move(b), op->children[1]->out_cols, op->out_cols));
        }
      }
      if (op->union_distinct) {
        std::vector<int> key_idx;
        for (size_t i = 0; i < op->out_cols.size(); ++i) {
          key_idx.push_back(static_cast<int>(i));
        }
        Parts ex = ExchangeByKey(std::move(*result), key_idx);
        *result = MapStreams(ex, [&](const std::vector<Batch>& stream) {
          return k_.Dedup(*op, stream);
        });
      }
      break;
    }
  }
  // rows_produced counts the rows emitted per operator node, once per node
  // (intermediate partials, exchanged copies and two-phase local results
  // are not emissions) — the definition all runtimes share; see ExecStats.
  uint64_t emitted = 0;
  for (size_t w = 0; w < W; ++w) {
    const size_t n = TotalBatchRows((*result)[w]);
    emitted += n;
    stats_.partition_rows[w] += n;
  }
  stats_.rows_produced += emitted;
  // Charge this operator's emissions against the row budget; the next
  // operator's Check observes a trip.
  cancel_.AddRows(emitted);
  memo_[op.get()] = result;
  owner_tag_[op.get()] = out_tag;
  return result;
}

}  // namespace gopt
