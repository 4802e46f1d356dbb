#include "lp/lu_factor.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

namespace geopriv::lp {

namespace {

// Threshold partial pivoting: a pivot must be at least this fraction of
// the largest magnitude left in its column.
constexpr double kThreshold = 0.1;
// A column whose largest remaining magnitude falls below this makes the
// basis numerically singular.
constexpr double kSingularTol = 1e-12;

}  // namespace

bool LuFactor::Factorize(int m, std::span<const int> col_start,
                         std::span<const int> row_index,
                         std::span<const double> value,
                         std::span<const int> basic) {
  m_ = m;
  etas_.clear();
  eta_entries_.clear();
  active_cols_.resize(m);
  row_cols_.resize(m);
  for (int k = 0; k < m; ++k) {
    active_cols_[k].clear();
    row_cols_[k].clear();
  }
  row_count_.assign(m, 0);
  int nonzeros = 0;
  for (int k = 0; k < m; ++k) {
    const int j = basic[k];
    for (int p = col_start[j]; p < col_start[j + 1]; ++p) {
      if (value[p] == 0.0) continue;
      const int r = row_index[p];
      active_cols_[k].push_back({r, value[p]});
      row_cols_[r].push_back(k);
      ++row_count_[r];
      ++nonzeros;
    }
  }
  // Without fill, L and U together hold at most the basis' nonzeros.
  l_entries_.reserve(nonzeros);
  urow_entries_.reserve(nonzeros);
  return Eliminate(m);
}

bool LuFactor::Eliminate(int m) {
  row_done_.assign(m, 0);
  col_done_.assign(m, 0);
  slot_.assign(m, -1);
  col_singletons_.clear();
  row_singletons_.clear();
  col_singletons_.reserve(m);
  row_singletons_.reserve(m);
  for (int k = 0; k < m; ++k) {
    if (active_cols_[k].empty() || row_count_[k] == 0) return false;
    if (active_cols_[k].size() == 1) col_singletons_.push_back(k);
    if (row_count_[k] == 1) row_singletons_.push_back(k);
  }
  pivot_row_.resize(m);
  pivot_col_.resize(m);
  inv_diag_.resize(m);
  l_row_.clear();
  l_start_.assign(1, 0);
  l_entries_.clear();
  urow_start_.assign(1, 0);
  urow_entries_.clear();
  for (int s = 0; s < m; ++s) {
    int r = -1;
    int c = -1;
    if (!PickPivot(&r, &c)) return false;
    pivot_row_[s] = r;
    pivot_col_[s] = c;
    inv_diag_[s] = 1.0 / PivotOn(r, c);
  }
  // Column-wise copy of U's off-diagonals for Ftran. row_count_ is dead
  // after elimination and doubles as the fill cursor.
  ucol_start_.assign(m + 1, 0);
  for (const Entry& e : urow_entries_) ++ucol_start_[e.index + 1];
  for (int j = 0; j < m; ++j) ucol_start_[j + 1] += ucol_start_[j];
  ucol_entries_.resize(urow_entries_.size());
  row_count_.assign(ucol_start_.begin(), ucol_start_.end() - 1);
  for (int s = 0; s < m; ++s) {
    for (int e = urow_start_[s]; e < urow_start_[s + 1]; ++e) {
      const Entry& u = urow_entries_[e];
      ucol_entries_[row_count_[u.index]++] = {pivot_row_[s], u.value};
    }
  }
  return true;
}

int LuFactor::PositionOf(const std::vector<Entry>& entries, int index) {
  int p = 0;
  while (entries[p].index != index) ++p;
  return p;
}

double LuFactor::ActiveValue(int row, int col) const {
  return active_cols_[col][PositionOf(active_cols_[col], row)].value;
}

bool LuFactor::PickPivot(int* row, int* col) {
  // Column singletons: no multipliers, hence no fill and no growth.
  while (!col_singletons_.empty()) {
    const int c = col_singletons_.back();
    col_singletons_.pop_back();
    if (col_done_[c] || active_cols_[c].size() != 1) continue;
    if (std::abs(active_cols_[c][0].value) < kSingularTol) return false;
    *row = active_cols_[c][0].index;
    *col = c;
    return true;
  }
  // Row singletons: no U entries, hence no fill; still threshold-tested so
  // the multipliers stay bounded.
  while (!row_singletons_.empty()) {
    const int r = row_singletons_.back();
    row_singletons_.pop_back();
    if (row_done_[r] || row_count_[r] != 1) continue;
    int c = -1;
    for (int j : row_cols_[r]) {
      if (!col_done_[j]) {
        c = j;
        break;
      }
    }
    double col_max = 0.0;
    for (const Entry& e : active_cols_[c]) {
      col_max = std::max(col_max, std::abs(e.value));
    }
    const double a = std::abs(ActiveValue(r, c));
    if (a >= kThreshold * col_max && a >= kSingularTol) {
      *row = r;
      *col = c;
      return true;
    }
  }
  // Markowitz search over the active submatrix. Singletons are gone, so
  // cost 1 (a row and a column of two entries each) is the least possible
  // and ends the search at once.
  int64_t best_cost = std::numeric_limits<int64_t>::max();
  double best_abs = 0.0;
  for (int c = 0; c < m_; ++c) {
    if (col_done_[c]) continue;
    const std::vector<Entry>& entries = active_cols_[c];
    double col_max = 0.0;
    for (const Entry& e : entries) col_max = std::max(col_max, std::abs(e.value));
    if (col_max < kSingularTol) return false;
    const int64_t col_cost = static_cast<int64_t>(entries.size()) - 1;
    for (const Entry& e : entries) {
      const double a = std::abs(e.value);
      if (a < kThreshold * col_max) continue;
      const int64_t cost = (row_count_[e.index] - 1) * col_cost;
      if (cost < best_cost || (cost == best_cost && a > best_abs)) {
        best_cost = cost;
        best_abs = a;
        *row = e.index;
        *col = c;
      }
    }
    if (best_cost <= 1) break;
  }
  return best_cost != std::numeric_limits<int64_t>::max();
}

double LuFactor::PivotOn(int r, int c) {
  const std::vector<Entry>& pivot_col = active_cols_[c];
  const int pp = PositionOf(pivot_col, r);
  const double pivot = pivot_col[pp].value;
  row_done_[r] = 1;
  col_done_[c] = 1;

  // Row r of U: its entries in the other active columns, which lose row r.
  const size_t u_begin = urow_entries_.size();
  for (int j : row_cols_[r]) {
    if (col_done_[j]) continue;
    std::vector<Entry>& entries = active_cols_[j];
    const int p = PositionOf(entries, r);
    urow_entries_.push_back({j, entries[p].value});
    entries[p] = entries.back();
    entries.pop_back();
    if (entries.size() == 1) col_singletons_.push_back(j);
  }
  urow_start_.push_back(static_cast<int>(urow_entries_.size()));

  // Column c of L: the multipliers of the other active rows, which lose
  // column c.
  const size_t l_begin = l_entries_.size();
  for (size_t p = 0; p < pivot_col.size(); ++p) {
    if (static_cast<int>(p) == pp) continue;
    const int i = pivot_col[p].index;
    l_entries_.push_back({i, pivot_col[p].value / pivot});
    if (--row_count_[i] == 1) row_singletons_.push_back(i);
  }
  if (l_entries_.size() == l_begin) return pivot;
  l_row_.push_back(r);
  l_start_.push_back(static_cast<int>(l_entries_.size()));

  // Schur complement: a_ij -= l_i * u_rj over the multiplier rows i and
  // U columns j, appending fill where a_ij was structurally zero.
  for (size_t e = u_begin; e < urow_entries_.size(); ++e) {
    const int j = urow_entries_[e].index;
    const double u = urow_entries_[e].value;
    std::vector<Entry>& entries = active_cols_[j];
    const size_t original = entries.size();
    for (size_t p = 0; p < original; ++p) {
      slot_[entries[p].index] = static_cast<int>(p);
    }
    for (size_t q = l_begin; q < l_entries_.size(); ++q) {
      const int i = l_entries_[q].index;
      const double delta = l_entries_[q].value * u;
      if (slot_[i] >= 0) {
        entries[slot_[i]].value -= delta;
      } else {
        entries.push_back({i, -delta});
        row_cols_[i].push_back(j);
        ++row_count_[i];
      }
    }
    for (size_t p = 0; p < original; ++p) slot_[entries[p].index] = -1;
  }
  return pivot;
}

void LuFactor::Ftran(std::vector<double>* x) {
  std::vector<double>& v = *x;
  const int num_l = static_cast<int>(l_row_.size());
  for (int k = 0; k < num_l; ++k) {
    const double pivot_value = v[l_row_[k]];
    if (pivot_value == 0.0) continue;
    for (int e = l_start_[k]; e < l_start_[k + 1]; ++e) {
      v[l_entries_[e].index] -= l_entries_[e].value * pivot_value;
    }
  }
  work_.swap(v);  // work_: row-indexed; v: refilled by position below
  v.resize(m_);
  for (int s = m_ - 1; s >= 0; --s) {
    const int c = pivot_col_[s];
    double val = work_[pivot_row_[s]];
    if (val != 0.0) {
      val *= inv_diag_[s];
      for (int e = ucol_start_[c]; e < ucol_start_[c + 1]; ++e) {
        work_[ucol_entries_[e].index] -= ucol_entries_[e].value * val;
      }
    }
    v[c] = val;
  }
  for (const Eta& eta : etas_) {
    if (v[eta.pos] == 0.0) continue;
    const double xp = v[eta.pos] / eta.pivot;
    for (int e = eta.begin; e < eta.end; ++e) {
      v[eta_entries_[e].index] -= eta_entries_[e].value * xp;
    }
    v[eta.pos] = xp;
  }
}

void LuFactor::Btran(std::vector<double>* y) {
  std::vector<double>& v = *y;
  for (auto eta = etas_.rbegin(); eta != etas_.rend(); ++eta) {
    // Four partial sums: one running sum waits on each add in turn. The
    // etas of the OPT duals hold ~80% of m entries each, and every pivot
    // runs this loop over all of them.
    const Entry* entries = eta_entries_.data();
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    int e = eta->begin;
    for (; e + 4 <= eta->end; e += 4) {
      s0 += entries[e].value * v[entries[e].index];
      s1 += entries[e + 1].value * v[entries[e + 1].index];
      s2 += entries[e + 2].value * v[entries[e + 2].index];
      s3 += entries[e + 3].value * v[entries[e + 3].index];
    }
    for (; e < eta->end; ++e) s0 += entries[e].value * v[entries[e].index];
    const double dot = (s0 + s1) + (s2 + s3);
    v[eta->pos] = (v[eta->pos] - dot) / eta->pivot;
  }
  work_.swap(v);  // work_: position-indexed; v: refilled by row below
  v.resize(m_);
  for (int s = 0; s < m_; ++s) {
    double val = work_[pivot_col_[s]];
    if (val != 0.0) {
      val *= inv_diag_[s];
      for (int e = urow_start_[s]; e < urow_start_[s + 1]; ++e) {
        work_[urow_entries_[e].index] -= urow_entries_[e].value * val;
      }
    }
    v[pivot_row_[s]] = val;
  }
  for (int k = static_cast<int>(l_row_.size()) - 1; k >= 0; --k) {
    double sum = 0.0;
    for (int e = l_start_[k]; e < l_start_[k + 1]; ++e) {
      sum += l_entries_[e].value * v[l_entries_[e].index];
    }
    v[l_row_[k]] -= sum;
  }
}

void LuFactor::Update(int pos, const std::vector<double>& w) {
  const int begin = static_cast<int>(eta_entries_.size());
  for (int i = 0; i < m_; ++i) {
    if (i != pos && w[i] != 0.0) eta_entries_.push_back({i, w[i]});
  }
  etas_.push_back(
      {pos, begin, static_cast<int>(eta_entries_.size()), w[pos]});
}

}  // namespace geopriv::lp
