// Row-to-batch construction for tests: the runtime itself never builds a
// Batch from rows, so the helper lives with the tests that do.
#pragma once

#include <vector>

#include "src/exec/batch.h"

namespace gopt {

/// Columnar form of `rows` (flat, no selection); every row must have
/// `num_cols` values. BatchFromRows(R, n).ToRows() == R.
inline Batch BatchFromRows(const std::vector<Row>& rows, size_t num_cols) {
  Batch b(num_cols);
  for (size_t c = 0; c < num_cols; ++c) {
    b.col(c).reserve(rows.size());
    for (const Row& r : rows) b.col(c).push_back(r[c]);
  }
  return b;
}

}  // namespace gopt
