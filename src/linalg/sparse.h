#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "linalg/dense_matrix.h"
#include "linalg/vector_ops.h"

namespace ntr::linalg {

/// Coordinate-format accumulator: stamp (row, col, value) contributions in
/// any order (duplicates sum, as circuit stamping requires), then freeze
/// into CSR.
class TripletBuilder {
 public:
  TripletBuilder(std::size_t rows, std::size_t cols) : rows_(rows), cols_(cols) {}

  void add(std::size_t r, std::size_t c, double v);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }

  struct Triplet {
    std::size_t r, c;
    double v;
  };
  [[nodiscard]] std::span<const Triplet> triplets() const { return entries_; }

 private:
  std::size_t rows_, cols_;
  std::vector<Triplet> entries_;
};

/// Compressed sparse row matrix.
class CsrMatrix {
 public:
  CsrMatrix() = default;
  explicit CsrMatrix(const TripletBuilder& builder);

  [[nodiscard]] std::size_t rows() const { return row_ptr_.empty() ? 0 : row_ptr_.size() - 1; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] std::size_t nnz() const { return values_.size(); }

  /// y = A x
  [[nodiscard]] Vector multiply(std::span<const double> x) const;

  [[nodiscard]] double at(std::size_t r, std::size_t c) const;

  [[nodiscard]] DenseMatrix to_dense() const;

 private:
  std::size_t cols_ = 0;
  std::vector<std::size_t> row_ptr_;
  std::vector<std::size_t> col_idx_;
  std::vector<double> values_;
};

}  // namespace ntr::linalg
