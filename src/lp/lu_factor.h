// Sparse LU factorization of a simplex basis, kept current across basis
// changes with a product-form eta file.
//
// Factorize() runs right-looking Gaussian elimination on the m x m basis B.
// Pivots come from threshold Markowitz selection: column singletons and
// row singletons first (they cause no fill), then the entry minimizing
// (r_i - 1)(c_j - 1) among those with |a_ij| >= kThreshold * max_i |a_ij|
// in their column. Elimination step s records the multipliers of one L
// column and one row of U, so after m steps
//     L_{m-1} ... L_0 B = U   (U triangular up to row/column permutation).
// Each basis change then appends one eta column E (the FTRAN'd entering
// column): B_new = B E, so B_new^{-1} = E^{-1} B^{-1}. Ftran/Btran apply
// L, U and the etas in turn; the simplex refactorizes after a fixed number
// of updates to bound the eta file and its rounding drift.
//
// Vectors on the row side are indexed by constraint row; vectors on the
// basis side by basis position k (the slot of basic[k]).

#ifndef GEOPRIV_LP_LU_FACTOR_H_
#define GEOPRIV_LP_LU_FACTOR_H_

#include <span>
#include <vector>

namespace geopriv::lp {

class LuFactor {
 public:
  // Factorizes the basis whose column k is column basic[k] of the CSC
  // matrix (col_start, row_index, value) with m rows. Clears the eta file.
  // Returns false when the basis is numerically singular.
  bool Factorize(int m, std::span<const int> col_start,
                 std::span<const int> row_index, std::span<const double> value,
                 std::span<const int> basic);

  // x <- B^{-1} x: row-indexed in, position-indexed out.
  void Ftran(std::vector<double>* x);
  // y <- B^{-T} y: position-indexed in, row-indexed out.
  void Btran(std::vector<double>* y);

  // Records the basis change that puts the entering column into position
  // `pos`; `w` is that column FTRAN'd through the current factor.
  void Update(int pos, const std::vector<double>& w);

  // Eta columns appended since the last Factorize().
  int num_updates() const { return static_cast<int>(etas_.size()); }

 private:
  // One sparse entry; `index` is a row or a basis position by context.
  struct Entry {
    int index;
    double value;
  };
  // Eta column: the basis change that replaced position `pos`, whose
  // FTRAN'd column had `pivot` there and eta_entries_[begin, end)
  // elsewhere.
  struct Eta {
    int pos;
    int begin;
    int end;
    double pivot;
  };

  // Position of the entry with `index` in `entries` (which must hold it).
  static int PositionOf(const std::vector<Entry>& entries, int index);
  bool Eliminate(int m);
  bool PickPivot(int* row, int* col);
  double ActiveValue(int row, int col) const;
  // Eliminates on (row, col), recording U row and L column; returns the
  // pivot value.
  double PivotOn(int row, int col);

  int m_ = 0;

  // Active submatrix during elimination: columns with values (index =
  // row) plus a row-major pattern (stale entries of eliminated columns are
  // skipped). Inner vectors keep their capacity across factorizations.
  std::vector<std::vector<Entry>> active_cols_;
  std::vector<std::vector<int>> row_cols_;
  std::vector<int> row_count_;
  std::vector<char> row_done_;
  std::vector<char> col_done_;
  std::vector<int> col_singletons_;
  std::vector<int> row_singletons_;
  std::vector<int> slot_;  // row -> index in the column being updated

  // Factor. Step s pivoted on (pivot_row_[s], pivot_col_[s]) with value
  // 1 / inv_diag_[s]. L columns (index = row) are stored only for steps
  // with multipliers.
  std::vector<int> pivot_row_;
  std::vector<int> pivot_col_;
  std::vector<double> inv_diag_;
  std::vector<int> l_row_;    // pivot row of each stored L column
  std::vector<int> l_start_;  // size = stored L columns + 1
  std::vector<Entry> l_entries_;
  // Off-diagonal U by step (row-wise; index = basis position) and its
  // transpose by basis position (column-wise; index = row).
  std::vector<int> urow_start_;
  std::vector<Entry> urow_entries_;
  std::vector<int> ucol_start_;
  std::vector<Entry> ucol_entries_;

  std::vector<Eta> etas_;
  std::vector<Entry> eta_entries_;

  std::vector<double> work_;
};

}  // namespace geopriv::lp

#endif  // GEOPRIV_LP_LU_FACTOR_H_
