#include "src/exec/batch.h"

#include <cassert>
#include <iterator>

namespace gopt {

void Batch::AppendRow(const Row& r) {
  assert(!sel_active_);
  assert(!factorized_);
  assert(r.size() == cols_.size());
  for (size_t c = 0; c < cols_.size(); ++c) cols_[c].push_back(r[c]);
}

void Batch::GatherRow(size_t i, Row* out) const {
  const uint32_t p = PhysIndex(i);
  out->resize(cols_.size());
  if (factorized_) {
    const uint32_t g = GroupOf(p);
    for (size_t c = 0; c < cols_.size(); ++c)
      (*out)[c] = group_col_[c] ? gcols_[c][g] : cols_[c][p];
    return;
  }
  for (size_t c = 0; c < cols_.size(); ++c) (*out)[c] = cols_[c][p];
}

void Batch::InitFactorized(std::vector<uint8_t> is_group) {
  assert(is_group.size() == cols_.size());
  assert(num_phys_rows() == 0 && !sel_active_);
  factorized_ = true;
  group_col_ = std::move(is_group);
  gcols_.assign(cols_.size(), {});
  goff_.assign(1, 0);
}

void Batch::CloseGroup(uint32_t run_len) {
  assert(factorized_ && run_len > 0);
  goff_.push_back(goff_.back() + run_len);
}

void Batch::CopyLayoutFrom(const Batch& src) {
  assert(factorized_ && src.factorized_);
  goff_ = src.goff_;
  sel_ = src.sel_;
  sel_active_ = src.sel_active_;
}

void Batch::FlattenGroups() {
  if (!factorized_) return;
  const size_t n = num_phys_rows();
  for (size_t c = 0; c < cols_.size(); ++c) {
    if (!group_col_[c]) continue;
    std::vector<Value> flat;
    flat.reserve(n);
    for (size_t g = 0; g + 1 < goff_.size(); ++g) {
      const Value& v = gcols_[c][g];
      for (uint32_t p = goff_[g]; p < goff_[g + 1]; ++p) flat.push_back(v);
    }
    cols_[c] = std::move(flat);
  }
  factorized_ = false;
  group_col_.clear();
  gcols_.clear();
  goff_.clear();
}

void Batch::Flatten() {
  if (!sel_active_) {
    FlattenGroups();
    return;
  }
  if (factorized_) {
    // One-pass dense gather of the selected rows, resolving groups.
    std::vector<std::vector<Value>> dense(cols_.size());
    for (size_t c = 0; c < cols_.size(); ++c) {
      dense[c].reserve(sel_.size());
      if (group_col_[c]) {
        for (uint32_t p : sel_) dense[c].push_back(gcols_[c][GroupOf(p)]);
      } else {
        for (uint32_t p : sel_) dense[c].push_back(std::move(cols_[c][p]));
      }
    }
    cols_ = std::move(dense);
    factorized_ = false;
    group_col_.clear();
    gcols_.clear();
    goff_.clear();
    sel_.clear();
    sel_active_ = false;
    return;
  }
  // Identity selection: every physical row is active, in order — the
  // columns are already dense, so just drop the selection vector.
  bool identity = sel_.size() == num_phys_rows();
  if (identity) {
    for (size_t i = 0; i < sel_.size(); ++i) {
      if (sel_[i] != i) { identity = false; break; }
    }
  }
  if (!identity) {
    std::vector<std::vector<Value>> dense(cols_.size());
    for (size_t c = 0; c < cols_.size(); ++c) {
      dense[c].reserve(sel_.size());
      for (uint32_t p : sel_) dense[c].push_back(std::move(cols_[c][p]));
    }
    cols_ = std::move(dense);
  }
  sel_.clear();
  sel_active_ = false;
}

namespace {

/// Kind tag and accessor for each supported TypedView element type.
template <typename T>
struct TypedAccess;
template <>
struct TypedAccess<int64_t> {
  static constexpr Value::Kind kKind = Value::Kind::kInt;
  static int64_t Get(const Value& v) { return v.AsInt(); }
};
template <>
struct TypedAccess<double> {
  static constexpr Value::Kind kKind = Value::Kind::kDouble;
  static double Get(const Value& v) { return v.AsDouble(); }
};
template <>
struct TypedAccess<VertexId> {
  static constexpr Value::Kind kKind = Value::Kind::kVertex;
  static VertexId Get(const Value& v) { return v.AsVertex().id; }
};

}  // namespace

template <typename T>
TypedView<T> Batch::ExtractTyped(size_t c) const {
  TypedView<T> view;
  if (factorized_) return view;  // group columns have no per-row backing
  const std::vector<Value>& col = cols_[c];
  view.vals.reserve(col.size());
  for (const Value& v : col) {
    if (v.kind() != TypedAccess<T>::kKind) return view;  // ok stays false
    view.vals.push_back(TypedAccess<T>::Get(v));
  }
  view.ok = true;
  return view;
}

template TypedView<int64_t> Batch::ExtractTyped<int64_t>(size_t) const;
template TypedView<double> Batch::ExtractTyped<double>(size_t) const;
template TypedView<VertexId> Batch::ExtractTyped<VertexId>(size_t) const;

Batch Batch::GatherPhys(const std::vector<uint32_t>& phys) const {
  Batch out(cols_.size());
  for (size_t c = 0; c < cols_.size(); ++c) {
    out.cols_[c].reserve(phys.size());
    if (factorized_ && group_col_[c]) {
      for (uint32_t p : phys) out.cols_[c].push_back(gcols_[c][GroupOf(p)]);
    } else {
      for (uint32_t p : phys) out.cols_[c].push_back(cols_[c][p]);
    }
  }
  return out;
}

Batch Batch::FromRows(const std::vector<Row>& rows, size_t num_cols) {
  Batch b(num_cols);
  for (auto& c : b.cols_) c.reserve(rows.size());
  for (const Row& r : rows) b.AppendRow(r);
  return b;
}

void Batch::AppendRowsTo(std::vector<Row>* out) const {
  // No reserve here: an exact per-call reserve would pin capacity and
  // force a reallocation per batch when concatenating many (callers that
  // know the total, like RowsFromBatches, reserve it up front; everyone
  // else gets geometric growth).
  const size_t n = size();
  for (size_t i = 0; i < n; ++i) {
    Row r;
    GatherRow(i, &r);
    out->push_back(std::move(r));
  }
}

std::vector<Row> Batch::ToRows() const {
  std::vector<Row> out;
  AppendRowsTo(&out);
  return out;
}

uint64_t Batch::materialized_tuples() const {
  if (!factorized_) return num_phys_rows();
  uint64_t t = num_groups();
  for (size_t c = 0; c < cols_.size(); ++c) {
    if (!group_col_[c] && !cols_[c].empty()) return t + num_phys_rows();
  }
  return t;
}

uint64_t Batch::materialized_cells() const {
  uint64_t cells = 0;
  for (const auto& c : cols_) cells += c.size();
  for (const auto& g : gcols_) cells += g.size();
  return cells;
}

Batch ConcatBatches(const std::vector<Batch>& batches, size_t num_cols,
                    size_t max_rows) {
  const size_t n = std::min(max_rows, TotalBatchRows(batches));
  Batch out(num_cols);
  for (size_t c = 0; c < num_cols; ++c) {
    std::vector<Value>& col = out.col(c);
    col.reserve(n);
    for (const Batch& b : batches) {
      const size_t take = std::min(b.size(), n - col.size());
      if (!b.has_selection() && !b.col_is_group(c)) {
        col.insert(col.end(), b.col(c).begin(),
                   b.col(c).begin() + static_cast<std::ptrdiff_t>(take));
      } else {
        for (size_t i = 0; i < take; ++i) col.push_back(b.At(i, c));
      }
    }
  }
  return out;
}

std::vector<Batch> SplitBatch(Batch b, size_t batch_rows) {
  std::vector<Batch> out;
  if (batch_rows == 0) batch_rows = kDefaultBatchRows;
  b.Flatten();
  const size_t n = b.size();
  if (n <= batch_rows) {
    if (n > 0) out.push_back(std::move(b));
    return out;
  }
  for (size_t begin = 0; begin < n; begin += batch_rows) {
    const auto first = static_cast<std::ptrdiff_t>(begin);
    const auto last =
        static_cast<std::ptrdiff_t>(std::min(n, begin + batch_rows));
    Batch chunk(b.num_cols());
    for (size_t c = 0; c < b.num_cols(); ++c) {
      std::vector<Value>& col = b.col(c);
      chunk.col(c).assign(std::make_move_iterator(col.begin() + first),
                          std::make_move_iterator(col.begin() + last));
    }
    out.push_back(std::move(chunk));
  }
  return out;
}

Batch MapColumns(Batch b, const std::vector<std::string>& from,
                 const std::vector<std::string>& to) {
  if (from == to) return b;
  Batch out(to.size());
  for (size_t c = 0; c < to.size(); ++c) {
    const auto src = std::find(from.begin(), from.end(), to[c]);
    std::vector<Value>& col = out.col(c);
    col.reserve(b.size());
    for (size_t i = 0; i < b.size(); ++i) {
      col.push_back(src == from.end()
                        ? Value()
                        : b.At(i, static_cast<size_t>(src - from.begin())));
    }
  }
  return out;
}

std::vector<Row> RowsFromBatches(const std::vector<Batch>& batches) {
  std::vector<Row> out;
  out.reserve(TotalBatchRows(batches));
  for (const Batch& b : batches) b.AppendRowsTo(&out);
  return out;
}

size_t TotalBatchRows(const std::vector<Batch>& batches) {
  size_t n = 0;
  for (const Batch& b : batches) n += b.size();
  return n;
}

}  // namespace gopt
