#include "src/exec/morsel.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "src/common/hash.h"
#include "src/opt/factorization.h"

namespace gopt {

namespace {

uint64_t Pack(uint32_t begin, uint32_t end) {
  return (static_cast<uint64_t>(begin) << 32) | end;
}
uint32_t RangeBegin(uint64_t r) { return static_cast<uint32_t>(r >> 32); }
uint32_t RangeEnd(uint64_t r) { return static_cast<uint32_t>(r); }

}  // namespace

MorselQueue::MorselQueue(size_t total, int workers)
    : slots_(static_cast<size_t>(workers < 1 ? 1 : workers)) {
  const uint64_t n = total;
  const uint64_t w = slots_.size();
  for (uint64_t i = 0; i < w; ++i) {
    const uint32_t b = static_cast<uint32_t>(i * n / w);
    const uint32_t e = static_cast<uint32_t>((i + 1) * n / w);
    slots_[i].range.store(Pack(b, e), std::memory_order_relaxed);
  }
}

MorselQueue::MorselQueue(const std::vector<std::pair<size_t, size_t>>& ranges)
    : slots_(ranges.empty() ? 1 : ranges.size()) {
  for (size_t i = 0; i < ranges.size(); ++i) {
    slots_[i].range.store(Pack(static_cast<uint32_t>(ranges[i].first),
                               static_cast<uint32_t>(ranges[i].second)),
                          std::memory_order_relaxed);
  }
}

bool MorselQueue::Next(int w, size_t* idx) {
  auto& own = slots_[static_cast<size_t>(w)].range;
  // Pop the front of the worker's own range.
  uint64_t r = own.load(std::memory_order_acquire);
  while (RangeBegin(r) < RangeEnd(r)) {
    if (own.compare_exchange_weak(r, Pack(RangeBegin(r) + 1, RangeEnd(r)),
                                  std::memory_order_acq_rel)) {
      *idx = RangeBegin(r);
      return true;
    }
  }
  // Own range drained: steal from the back of the largest victim range.
  while (true) {
    int victim = -1;
    uint64_t vr = 0;
    uint32_t best = 0;
    for (size_t i = 0; i < slots_.size(); ++i) {
      if (static_cast<int>(i) == w) continue;
      uint64_t cand = slots_[i].range.load(std::memory_order_acquire);
      uint32_t avail = RangeEnd(cand) - RangeBegin(cand);
      if (RangeBegin(cand) < RangeEnd(cand) && avail > best) {
        best = avail;
        victim = static_cast<int>(i);
        vr = cand;
      }
    }
    if (victim < 0) return false;  // everything drained everywhere
    auto& vslot = slots_[static_cast<size_t>(victim)].range;
    const uint32_t e = RangeEnd(vr);
    if (vslot.compare_exchange_weak(vr, Pack(RangeBegin(vr), e - 1),
                                    std::memory_order_acq_rel)) {
      *idx = e - 1;
      return true;
    }
    // Lost the race; rescan for a new victim.
  }
}

MorselExecutor::MorselExecutor(const PropertyGraph* g, MorselOptions opts,
                               const PartitionedGraph* pg, WorkerPool* pool)
    : k_(g, pg),
      pg_(pg),
      pool_(pool),
      opts_(opts),
      threads_(pool != nullptr ? pool->threads() + 1 : 1),
      parts_(pg != nullptr ? static_cast<size_t>(pg->num_partitions()) : 1) {
  k_.set_vectorize(opts.vectorize);
}

ResultTable MorselExecutor::Execute(const PhysOpPtr& root,
                                    const PipelinePlan* plan) {
  join_tables_.clear();
  stats_ = ExecStats{};
  if (pg_ != nullptr) {
    stats_.partitions = pg_->num_partitions();
    stats_.store_cut_edges = pg_->total_cut_edges();
    stats_.store_vertex_balance = pg_->VertexBalance();
    stats_.partition_rows.assign(parts_, 0);
  }
  PipelinePlan local;
  if (plan == nullptr) {
    local = BuildPipelinePlan(root);
    ChooseFactorization(&local, FactorizationMode::kAuto);
    plan = &local;
  }
  distributed_ = plan->distributed;
  results_.assign(plan->pipelines.size(), BatchParts());
  for (const Pipeline& p : plan->pipelines) {
    // Cancellation check between pipelines (workers also check before
    // every morsel inside RunPipeline): a breaker-heavy plan cannot run
    // a whole extra pipeline after its budget tripped.
    cancel_.Check();
    RunPipeline(p, *plan);
  }
  // One executor instance per Execute, so the kernel counters started at
  // zero: the final values are this run's totals.
  stats_.vec_dispatch = k_.vectorized_dispatches();
  stats_.gen_dispatch = k_.generic_dispatches();
  // The last pipeline materializes the root; partitions in order.
  const BatchParts& root_parts = results_.back();
  ResultTable out;
  out.columns = root->out_cols;
  size_t n = 0;
  for (const auto& stream : root_parts) n += TotalBatchRows(stream);
  out.rows.reserve(n);
  for (const auto& stream : root_parts) {
    for (const Batch& b : stream) b.AppendRowsTo(&out.rows);
  }
  return out;
}

template <typename F>
void MorselExecutor::ForEachPartition(size_t input_rows, const F& fn) const {
  if (threads_ == 1 || parts_ == 1 || input_rows < kInlineStageRows) {
    for (size_t w = 0; w < parts_; ++w) fn(w);
  } else {
    ParallelFor(pool_, parts_, fn);
  }
}

Batch MorselExecutor::ApplyStreamingOp(const Pipeline& p, int part, size_t i,
                                       const Batch& in) const {
  const PhysOp& op = *p.ops[i];
  const bool fact = p.factorized;
  const bool lazy = fact && i < p.lazy_ops.size() && p.lazy_ops[i] != 0;
  switch (op.kind) {
    case PhysOpKind::kExpandEdge:
      return k_.ExpandEdgeBatch(op, in, fact, lazy);
    case PhysOpKind::kExpandIntersect:
      return k_.ExpandIntersectBatch(op, in, fact, lazy);
    case PhysOpKind::kPathExpand:
      return k_.PathExpandBatch(op, in, fact, lazy);
    case PhysOpKind::kProject:
      return k_.ProjectBatch(op, in);
    case PhysOpKind::kUnfold:
      return k_.UnfoldBatch(op, in, fact);
    case PhysOpKind::kHashJoin: {
      // A distributed probe batch meets the build rows of its own
      // partition (both sides were exchanged by the join keys).
      const std::vector<JoinHashTable>& tables = join_tables_.at(&op);
      return k_.JoinProbeBatch(op, in,
                               tables[distributed_ ? static_cast<size_t>(part) : 0]);
    }
    default:
      throw std::logic_error(
          "MorselExecutor: non-streaming operator in a pipeline chain");
  }
}

Batch MorselExecutor::ApplyOpsOwned(const Pipeline& p, int part, size_t from,
                                    Batch cur, ChainStats* cs) const {
  for (size_t i = from; i < p.ops.size(); ++i) {
    const PhysOp* op = p.ops[i];
    if (op->kind == PhysOpKind::kSelect) {
      k_.FilterBatch(*op, &cur);  // refine the selection in place
      cs->rows += cur.size();     // stores nothing new, just marks rows
    } else {
      cur = ApplyStreamingOp(p, part, i, cur);
      cs->rows += cur.size();
      cs->tuples += cur.materialized_tuples();
      cs->groups += cur.num_groups();
    }
  }
  return cur;
}

Batch MorselExecutor::ApplyChain(const Pipeline& p, int part, Batch&& owned,
                                 ChainStats* cs) const {
  return ApplyOpsOwned(p, part, 0, std::move(owned), cs);
}

Batch MorselExecutor::ApplyChain(const Pipeline& p, int part,
                                 const Batch& shared, ChainStats* cs) const {
  // The shared batch belongs to the source node's materialized result; a
  // leading filter is the one streaming op that would mutate it, so the
  // selection is computed against the const batch and only the surviving
  // rows are gathered out. Everything else produces a fresh batch anyway.
  Batch cur;
  const PhysOp* op0 = p.ops.front();
  if (op0->kind == PhysOpKind::kSelect) {
    cur = shared.GatherPhys(k_.FilterSelection(*op0, shared));
    cs->rows += cur.size();
    cs->tuples += cur.size();  // the gathered dense copy
  } else {
    cur = ApplyStreamingOp(p, part, 0, shared);
    cs->rows += cur.size();
    cs->tuples += cur.materialized_tuples();
    cs->groups += cur.num_groups();
  }
  return ApplyOpsOwned(p, part, 1, std::move(cur), cs);
}

BatchParts MorselExecutor::TakeResult(int id, const PipelinePlan& plan) {
  BatchParts& res = results_[static_cast<size_t>(id)];
  if (plan.ReadersOf(id) > 1) return res;
  return std::move(res);
}

BatchParts MorselExecutor::Exchange(BatchParts in, const ExchangeSpec& ex,
                                    const PhysOp& sink) {
  if (ex.kind == ExchangeSpec::Kind::kNone) return in;
  stats_.exchanges++;
  const size_t W = parts_;
  for (int c : ex.cols) {
    if (c < 0) {
      throw std::runtime_error(std::string(PhysOpKindName(sink.kind)) +
                               ": exchange key column missing from its input");
    }
  }
  // Targets are computed on the calling thread, so one scratch row serves
  // the group-key evaluation.
  const ColMap cmap = ex.kind == ExchangeSpec::Kind::kGroupKeys
                          ? MakeColMap(sink.children[0]->out_cols)
                          : ColMap{};
  Row scratch;
  auto target = [&](const Batch& b, size_t i) -> size_t {
    switch (ex.kind) {
      case ExchangeSpec::Kind::kOwner: {
        const Value& v = b.At(i, static_cast<size_t>(ex.cols[0]));
        if (pg_ == nullptr || v.kind() != Value::Kind::kVertex) return 0;
        return static_cast<size_t>(pg_->OwnerOf(v.AsVertex().id));
      }
      case ExchangeSpec::Kind::kHash: {
        if (ex.cols.empty()) return 0;
        size_t h = 0x51ed;
        for (int k : ex.cols) {
          h = HashCombine(h, b.At(i, static_cast<size_t>(k)).Hash());
        }
        return h % W;
      }
      case ExchangeSpec::Kind::kGroupKeys: {
        // Raw rows of an aggregate without partial support, hashed on the
        // group-key values they evaluate to.
        b.GatherRow(i, &scratch);
        size_t h = 0x9d;
        for (const auto& k : sink.group_keys) {
          h = HashCombine(h, k_.eval().Eval(*k.expr, scratch, cmap).Hash());
        }
        return h % W;
      }
      default:
        return 0;
    }
  };
  return ExchangeBatches(std::move(in), target, &stats_.comm_rows);
}

void MorselExecutor::BuildJoinTables(const Pipeline& p,
                                     const PipelinePlan& plan) {
  for (const PhysOp* op : p.ops) {
    if (op->kind != PhysOpKind::kHashJoin || join_tables_.count(op)) continue;
    const BatchParts& build =
        results_[static_cast<size_t>(plan.InputOf(op, 1))];
    std::vector<JoinHashTable>& tables = join_tables_[op];
    if (distributed_) {
      // Build over each partition's share of the right side.
      size_t rows = 0;
      for (const auto& stream : build) rows += TotalBatchRows(stream);
      tables.resize(parts_);
      ForEachPartition(rows, [&](size_t w) {
        tables[w] = k_.BuildJoinTable(*op, build[w]);
      });
    } else {
      // One table over every partition's rows (copied into one stream
      // only when a store spreads them over several).
      const std::vector<Batch>* all = &build[0];
      std::vector<Batch> merged;
      if (parts_ > 1) {
        for (const auto& stream : build) {
          merged.insert(merged.end(), stream.begin(), stream.end());
        }
        all = &merged;
      }
      tables.push_back(k_.BuildJoinTable(*op, *all));
    }
  }
}

BatchParts MorselExecutor::RunChain(const Pipeline& p, PipelineStat* ps) {
  std::vector<ScanMorsel> scan_morsels;
  // A materialized source's batches in partition order, with their
  // partitions.
  std::vector<std::pair<int, const Batch*>> src;
  size_t source_rows = 0;
  if (p.source_is_scan) {
    scan_morsels = k_.ScanMorsels(*p.source, opts_.morsel_rows);
    for (const ScanMorsel& m : scan_morsels) source_rows += m.end - m.begin;
    // Adaptive sizing: a small scan domain (one LDBC vertex type can be
    // a few thousand ids) must still fan out over the pool, so aim for
    // several morsels per worker — stealing then balances skew in the
    // per-morsel expansion work. Order is unchanged: a finer slicing of
    // the same domain concatenates to the same row sequence.
    const size_t min_morsels = static_cast<size_t>(threads_) * 4;
    if (threads_ > 1 && source_rows >= kInlineStageRows &&
        scan_morsels.size() < min_morsels) {
      const size_t finer = std::max<size_t>(64, source_rows / min_morsels);
      if (finer < opts_.morsel_rows) {
        scan_morsels = k_.ScanMorsels(*p.source, finer);
      }
    }
  } else {
    const BatchParts& in = results_[static_cast<size_t>(p.source_pipe)];
    size_t n = 0;
    for (const auto& stream : in) n += stream.size();
    src.reserve(n);
    for (size_t w = 0; w < in.size(); ++w) {
      for (const Batch& b : in[w]) {
        src.emplace_back(static_cast<int>(w), &b);
        source_rows += b.size();
      }
    }
  }
  const size_t M = p.source_is_scan ? scan_morsels.size() : src.size();
  auto part_of = [&](size_t idx) {
    return p.source_is_scan ? std::max(0, scan_morsels[idx].partition)
                            : src[idx].first;
  };
  ps->morsels = M;
  const int T =
      source_rows < kInlineStageRows
          ? 1
          : static_cast<int>(
                std::min<size_t>(static_cast<size_t>(threads_), M ? M : 1));
  ps->threads = T;

  std::vector<Batch> out(M);
  std::vector<ChainStats> emitted(static_cast<size_t>(T));
  // Rows each morsel emitted (on a store): each slot is written by exactly
  // one worker, charged to the morsel's partition after the pool joins.
  std::vector<uint64_t> morsel_rows(stats_.partition_rows.empty() ? 0 : M);
  // Partitioned scans: morsels are partition-major, so each partition's
  // morsels form one contiguous index run. When the runs match the worker
  // count, seed each worker with one whole partition (partition-local work
  // first; stealing still balances skew).
  auto make_queue = [&]() -> MorselQueue {
    if (pg_ != nullptr && p.source_is_scan && M > 0) {
      std::vector<std::pair<size_t, size_t>> runs;
      for (size_t i = 0; i < M; ++i) {
        if (runs.empty() || part_of(i) != part_of(runs.back().first)) {
          runs.emplace_back(i, i + 1);
        } else {
          runs.back().second = i + 1;
        }
      }
      if (runs.size() == static_cast<size_t>(T)) return MorselQueue(runs);
    }
    return MorselQueue(M, T);
  };
  auto run_morsel = [&](size_t idx, ChainStats* acc) {
    // The morsel-boundary cancellation check: a tripped budget stops each
    // worker before its next morsel. The throw is captured by the pool's
    // exception_ptr below exactly like a kernel error.
    cancel_.Check();
    const uint64_t rows0 = acc->rows;
    if (p.source_is_scan) {
      Batch b = k_.ScanBatch(*p.source, scan_morsels[idx]);
      acc->rows += b.size();
      acc->tuples += b.size();
      out[idx] = p.ops.empty() ? std::move(b)
                               : ApplyChain(p, part_of(idx), std::move(b), acc);
    } else {
      out[idx] = ApplyChain(p, part_of(idx), *src[idx].second, acc);
    }
    if (!morsel_rows.empty()) morsel_rows[idx] = acc->rows - rows0;
    // Charge this morsel's produced rows against the row budget; the next
    // morsel's Check (any worker) observes a trip.
    cancel_.AddRows(acc->rows - rows0);
  };
  if (T == 1) {
    for (size_t idx = 0; idx < M; ++idx) run_morsel(idx, &emitted[0]);
  } else {
    // T queue slots, claimed by this thread and any idle pool workers; a
    // slot nobody else picks up is drained here (its morsels are stolen by
    // whichever slot runs first). A worker's exception — including the
    // CancelledError above — is rethrown here.
    MorselQueue queue = make_queue();
    ParallelFor(pool_, static_cast<size_t>(T), [&](size_t w) {
      size_t idx;
      while (queue.Next(static_cast<int>(w), &idx)) {
        run_morsel(idx, &emitted[w]);
      }
    });
  }
  for (const ChainStats& e : emitted) {
    stats_.rows_produced += e.rows;
    stats_.tuples_materialized += e.tuples;
    ps->chain_rows += e.rows;
    ps->chain_tuples += e.tuples;
    ps->groups += e.groups;
  }
  BatchParts res(parts_);
  for (size_t idx = 0; idx < M; ++idx) {
    const size_t part = static_cast<size_t>(part_of(idx));
    if (!morsel_rows.empty()) stats_.partition_rows[part] += morsel_rows[idx];
    if (!out[idx].empty()) res[part].push_back(std::move(out[idx]));
  }
  return res;
}

BatchParts MorselExecutor::RunBreaker(const Pipeline& p, BatchParts in) {
  const PhysOp& sink = *p.sink;
  // Row-position breakers force the deferred flatten here: charge the
  // expanded rows of every still-factorized input batch as materialized
  // now. The aggregate consumes factorized batches without ever expanding
  // them: COUNT/SUM fold a whole run into one multiplicity-weighted state
  // update (group order and rounding bit-identical to aggregating the
  // flattened rows).
  for (const auto& stream : in) {
    for (const Batch& b : stream) {
      if (b.factorized() && sink.kind != PhysOpKind::kAggregate) {
        stats_.tuples_materialized += b.size();
      }
    }
  }
  // A single-machine breaker runs once, over every partition's rows in
  // order, on partition 0.
  for (size_t w = 1; w < parts_ && !distributed_; ++w) {
    for (Batch& b : in[w]) in[0].push_back(std::move(b));
    in[w].clear();
  }
  // Runs `kernel` over every partition's stream, keeping each non-empty
  // result on its partition.
  auto per_partition = [&](const BatchParts& src, const auto& kernel) {
    size_t rows = 0;
    for (const auto& stream : src) rows += TotalBatchRows(stream);
    BatchParts res(parts_);
    ForEachPartition(rows, [&](size_t w) {
      Batch o = kernel(src[w]);
      if (!o.empty()) res[w].push_back(std::move(o));
    });
    return res;
  };
  // A gather to partition 0 (ORDER, LIMIT on a distributed plan) moves
  // every other partition's rows.
  auto count_gather = [&](const BatchParts& gathered) {
    if (p.exchange.kind == ExchangeSpec::Kind::kNone) return;
    stats_.exchanges++;
    for (size_t w = 1; w < parts_; ++w) {
      stats_.comm_rows += TotalBatchRows(gathered[w]);
    }
  };
  BatchParts out;
  switch (sink.kind) {
    case PhysOpKind::kAggregate: {
      // Distributed and partial-capable: GroupLocal per partition, then
      // the partials are exchanged by key and merged (GroupGlobal).
      // Otherwise raw rows are exchanged (a no-op on a single-machine
      // plan) and aggregated in one pass per partition.
      const bool two_phase = distributed_ && SupportsPartialAgg(sink);
      if (two_phase) {
        in = per_partition(in, [&](const auto& s) {
          return k_.Aggregate(sink, s, /*combine=*/false);
        });
      }
      out = per_partition(Exchange(std::move(in), p.exchange, sink),
                          [&](const auto& s) {
                            return k_.Aggregate(sink, s, two_phase);
                          });
      // A keyless aggregate produces its single row on partition 0 only;
      // the other partitions' aggregation over empty input must not emit
      // defaults.
      if (sink.group_keys.empty()) {
        for (size_t w = 1; w < parts_; ++w) out[w].clear();
      }
      break;
    }
    case PhysOpKind::kUnion:
      if (!sink.union_distinct) {
        out = std::move(in);
        break;
      }
      [[fallthrough]];
    case PhysOpKind::kDedup:
      out = per_partition(Exchange(std::move(in), p.exchange, sink),
                          [&](const auto& s) { return k_.Dedup(sink, s); });
      break;
    case PhysOpKind::kOrder: {
      // Local top-k per partition, gathered to partition 0 and k-way
      // merged there — output-identical to re-sorting the concatenation,
      // without the O(N log N) re-sort of already-sorted runs.
      BatchParts local = per_partition(
          in, [&](const auto& s) { return k_.SortLimit(sink, s); });
      count_gather(local);
      std::vector<Batch> runs;
      for (auto& stream : local) {
        for (Batch& b : stream) runs.push_back(std::move(b));
      }
      out.resize(parts_);
      if (runs.size() > 1) {
        out[0].push_back(k_.MergeSortedLimit(sink, runs));
      } else {
        out[0] = std::move(runs);
      }
      break;
    }
    case PhysOpKind::kLimit: {
      // Keeps the first N rows in partition order; copies only those.
      count_gather(in);
      std::vector<Batch> all;
      for (auto& stream : in) {
        for (Batch& b : stream) all.push_back(std::move(b));
      }
      Batch head = ConcatBatches(all, sink.out_cols.size(),
                                 static_cast<size_t>(sink.limit));
      out.resize(parts_);
      if (!head.empty()) out[0].push_back(std::move(head));
      break;
    }
    default:
      throw std::logic_error("MorselExecutor: unexpected breaker kind");
  }
  // Every emitted row counts once, charged to the partition holding it;
  // the output is re-chunked into the next pipeline's morsels.
  for (size_t w = 0; w < parts_; ++w) {
    const size_t n = TotalBatchRows(out[w]);
    stats_.rows_produced += n;
    stats_.tuples_materialized += n;
    if (!stats_.partition_rows.empty()) stats_.partition_rows[w] += n;
    cancel_.AddRows(n);
    if (out[w].size() == 1) {
      out[w] = SplitBatch(std::move(out[w][0]), opts_.batch_rows);
    }
  }
  return out;
}

void MorselExecutor::RunPipeline(const Pipeline& p, const PipelinePlan& plan) {
  const auto t0 = std::chrono::steady_clock::now();
  // Pipelines run sequentially, so the counter deltas over this call are
  // exactly this pipeline's dispatches (workers within the pipeline have
  // joined before the snapshot below).
  const uint64_t vec0 = k_.vectorized_dispatches();
  const uint64_t gen0 = k_.generic_dispatches();
  PipelineStat ps;
  ps.id = p.id;
  ps.desc = p.ToString();
  ps.factorized = p.factorized;
  ps.flatten_points = p.flatten_points;

  BatchParts in;
  if (p.source == nullptr) {
    // A union splices its two materialized children, the right one mapped
    // into the union's column order: per partition on a distributed plan,
    // the whole left input before the whole right one otherwise.
    const PhysOp& op = *p.sink;
    in.resize(parts_);
    for (int c = 0; c < 2; ++c) {
      BatchParts side = TakeResult(plan.InputOf(&op, c), plan);
      for (size_t w = 0; w < parts_; ++w) {
        for (Batch& b : side[w]) {
          in[distributed_ ? w : 0].push_back(
              c == 0 ? std::move(b)
                     : MapColumns(std::move(b), op.children[1]->out_cols,
                                  op.out_cols));
        }
      }
    }
  } else if (!p.source_is_scan && p.ops.empty()) {
    // Nothing to stream through (a breaker directly over another result,
    // or the exchange of one): hand the materialized batches straight to
    // the sink instead of copying them morsel-by-morsel.
    in = TakeResult(p.source_pipe, plan);
    for (const auto& stream : in) ps.morsels += stream.size();
  } else {
    BuildJoinTables(p, plan);
    in = RunChain(p, &ps);
  }

  BatchParts& res = results_[static_cast<size_t>(p.id)];
  if (p.sink_is_breaker()) {
    res = RunBreaker(p, std::move(in));
  } else {
    // Collect: the chain's batches as they are, partition-major in morsel
    // order so the result is identical for any thread count. A flatten or
    // an exchange is where a factorized chain's deferred materialization
    // finally happens (free for flat, selection-less batches).
    for (auto& stream : in) {
      for (Batch& b : stream) {
        if (b.factorized()) stats_.tuples_materialized += b.size();
        if (p.exchange.kind == ExchangeSpec::Kind::kNone) b.Flatten();
      }
    }
    res = Exchange(std::move(in), p.exchange, *p.sink);
  }

  for (const auto& stream : res) ps.rows_out += TotalBatchRows(stream);
  ps.vec_dispatch = k_.vectorized_dispatches() - vec0;
  ps.gen_dispatch = k_.generic_dispatches() - gen0;
  const auto t1 = std::chrono::steady_clock::now();
  ps.ms =
      std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0).count() /
      1000.0;
  stats_.pipelines.push_back(std::move(ps));
}

}  // namespace gopt
