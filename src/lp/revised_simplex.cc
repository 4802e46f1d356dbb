#include "lp/revised_simplex.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "base/stopwatch.h"
#include "lp/lu_factor.h"

namespace geopriv::lp {

namespace {

// Smallest acceptable pivot, relative to the entering column's largest
// FTRAN'd entry once that exceeds 1: a pivot that small against its own
// column is rounding noise, and taking it makes the basis singular.
constexpr double kPivotTol = 1e-9;
constexpr double kZeroTol = 1e-11;
// Consecutive degenerate pivots before switching to Bland's rule.
constexpr int kDegenerateLimit = 200;
// The pivot element is computed twice per basis change: from the FTRAN'd
// entering column and from the BTRAN'd pivot row. A relative disagreement
// beyond this means the factor has drifted: an updated factor is rebuilt
// before the step is taken, a fresh one right after it.
constexpr double kPivotDriftTol = 1e-8;

// Internal solver state for one Solve() call.
class Core {
 public:
  Core(const Model& model, const SolverOptions& options)
      : model_(model), options_(options), m_(model.num_constraints()) {}

  LpSolution Run(const Basis* warm, Basis* out_basis);

 private:
  // kRefactor: the step was abandoned because the factor has drifted;
  // rebuild it and price again.
  enum class StepResult { kOptimal, kUnbounded, kContinue, kRefactor };

  void BuildColumns();
  void AddArtificial(int row, double sign);
  void ColdStart();
  bool TryWarmStart(const Basis& warm);
  bool Refactorize();
  void ComputeBasicValues();
  void ComputeReducedCosts(const std::vector<double>& cost);
  int ChooseEntering(bool bland) const;
  double EnteringDirection(int j) const;
  double ColumnDot(int j, const std::vector<double>& row_vector) const;
  SolveStatus RunPhase(const std::vector<double>& cost);
  StepResult Iterate(bool bland);
  double Objective(const std::vector<double>& cost) const;
  void FillStats(LpSolution* result) const;

  int NumVars() const { return static_cast<int>(col_start_.size()) - 1; }
  // Rate at which moving nonbasic j off its bound improves the objective:
  // -d_j at its lower bound, d_j at its upper, |d_j| when free, and 0 for
  // basic and fixed variables (which never enter).
  double Improvement(int j) const {
    if (fixed_[j]) return 0.0;
    switch (status_[j]) {
      case VarStatus::kAtLower:
        return -d_[j];
      case VarStatus::kAtUpper:
        return d_[j];
      case VarStatus::kFree:
        return std::abs(d_[j]);
      case VarStatus::kBasic:
        return 0.0;
    }
    return 0.0;
  }

  const Model& model_;
  const SolverOptions& options_;
  const int m_;
  int n_slack_end_ = 0;  // structural + slack count (artificials follow)

  // Constraint matrix with one slack column per row (and phase-1
  // artificials appended), column-major.
  std::vector<int> col_start_;
  std::vector<int> row_index_;
  std::vector<double> value_;
  std::vector<double> lb_;
  std::vector<double> ub_;
  std::vector<char> fixed_;  // lb == ub: never enters the basis
  std::vector<double> rhs_;

  std::vector<int> basis_;          // var index basic in each position
  std::vector<VarStatus> status_;   // per variable
  std::vector<double> x_;           // per variable
  LuFactor factor_;
  int iterations_ = 0;
  int refactorizations_ = 0;
  double refactor_seconds_ = 0.0;
  Stopwatch stopwatch_;

  // Reduced costs d_j = c_j - pi' A_j (zero for basic variables), updated
  // from the pivot row after every basis change and recomputed from fresh
  // duals at every refactorization; the phase objective, updated by each
  // step's d_q * delta x_q.
  std::vector<double> d_;
  double objective_ = 0.0;
  // True while d_ and x_ come straight from a fresh factorization, i.e.
  // no step has updated them incrementally since.
  bool fresh_ = false;
  // Set when the factor must be rebuilt before the next step (pivot drift,
  // or an optimality or unboundedness claim awaiting confirmation).
  bool refactor_due_ = false;
  // Entering variable for the next step, chosen by the last pricing pass,
  // and the rule it was chosen under.
  int next_enter_ = -1;
  bool next_bland_ = false;

  // Scratch buffers reused across iterations.
  std::vector<double> w_;    // FTRAN'd entering column (by basis position)
  std::vector<double> rho_;  // BTRAN'd unit vector: pivot row of B^{-1}
  // Devex reference weights (Forrest-Goldfarb), one per variable. Reset to
  // 1 at the start of a solve; grown multiplicatively on pivots. Pricing
  // picks the eligible column maximizing d_j^2 / weight_j, which
  // approximates steepest-edge at negligible cost and cuts the iteration
  // count several fold on degenerate instances versus Dantzig pricing.
  std::vector<double> devex_;

  void ResetDevex() { devex_.assign(NumVars(), 1.0); }
};

void Core::BuildColumns() {
  const int n = model_.num_variables();
  n_slack_end_ = n + m_;
  lb_.resize(n_slack_end_);
  ub_.resize(n_slack_end_);
  rhs_.resize(m_);
  for (int j = 0; j < n; ++j) {
    lb_[j] = model_.lower_bound(j);
    ub_[j] = model_.upper_bound(j);
  }
  // Count, then fill row by row, so each column's entries come out in row
  // order and a variable repeated within one row merges into one entry.
  col_start_.assign(n_slack_end_ + 1, 0);
  for (int i = 0; i < m_; ++i) {
    for (const Coefficient& t : model_.row(i)) ++col_start_[t.var + 1];
    ++col_start_[n + i + 1];
  }
  for (int j = 0; j < n_slack_end_; ++j) col_start_[j + 1] += col_start_[j];
  row_index_.resize(col_start_.back());
  value_.resize(col_start_.back());
  std::vector<int> fill(col_start_.begin(), col_start_.end() - 1);
  for (int i = 0; i < m_; ++i) {
    rhs_[i] = model_.rhs(i);
    for (const Coefficient& t : model_.row(i)) {
      int& q = fill[t.var];
      if (q > col_start_[t.var] && row_index_[q - 1] == i) {
        value_[q - 1] += t.value;
        continue;
      }
      row_index_[q] = i;
      value_[q] = t.value;
      ++q;
    }
    const int slack = n + i;
    row_index_[fill[slack]] = i;
    value_[fill[slack]++] = 1.0;
    switch (model_.constraint_sense(i)) {
      case ConstraintSense::kLessEqual:
        lb_[slack] = 0.0;
        ub_[slack] = kInfinity;
        break;
      case ConstraintSense::kEqual:
        lb_[slack] = 0.0;
        ub_[slack] = 0.0;
        break;
      case ConstraintSense::kGreaterEqual:
        lb_[slack] = -kInfinity;
        ub_[slack] = 0.0;
        break;
    }
  }
  fixed_.resize(n_slack_end_);
  for (int j = 0; j < n_slack_end_; ++j) fixed_[j] = lb_[j] == ub_[j];
  // Squeeze out the slots that merged duplicates left unused.
  int out = 0;
  for (int j = 0; j < n_slack_end_; ++j) {
    const int begin = col_start_[j];
    col_start_[j] = out;
    for (int q = begin; q < fill[j]; ++q) {
      row_index_[out] = row_index_[q];
      value_[out++] = value_[q];
    }
  }
  col_start_[n_slack_end_] = out;
  row_index_.resize(out);
  value_.resize(out);
}

void Core::AddArtificial(int row, double sign) {
  row_index_.push_back(row);
  value_.push_back(sign);
  col_start_.push_back(static_cast<int>(row_index_.size()));
  lb_.push_back(0.0);
  ub_.push_back(kInfinity);
  fixed_.push_back(0);
}

double Core::ColumnDot(int j, const std::vector<double>& row_vector) const {
  double sum = 0.0;
  for (int p = col_start_[j]; p < col_start_[j + 1]; ++p) {
    sum += row_vector[row_index_[p]] * value_[p];
  }
  return sum;
}

// Initial nonbasic value for a variable given its bounds.
double InitialValue(double lb, double ub) {
  if (std::isfinite(lb)) return lb;
  if (std::isfinite(ub)) return ub;
  return 0.0;
}

VarStatus InitialStatus(double lb, double ub) {
  if (std::isfinite(lb)) return VarStatus::kAtLower;
  if (std::isfinite(ub)) return VarStatus::kAtUpper;
  return VarStatus::kFree;
}

void Core::ColdStart() {
  const int n = model_.num_variables();
  status_.assign(n_slack_end_, VarStatus::kAtLower);
  x_.assign(n_slack_end_, 0.0);
  for (int j = 0; j < n; ++j) {
    status_[j] = InitialStatus(lb_[j], ub_[j]);
    x_[j] = InitialValue(lb_[j], ub_[j]);
  }
  // Residual per row given nonbasic structural values.
  std::vector<double> residual(rhs_);
  for (int j = 0; j < n; ++j) {
    if (x_[j] == 0.0) continue;
    for (int p = col_start_[j]; p < col_start_[j + 1]; ++p) {
      residual[row_index_[p]] -= value_[p] * x_[j];
    }
  }
  basis_.assign(m_, -1);
  for (int i = 0; i < m_; ++i) {
    const int slack = n + i;
    const double r = residual[i];
    if (r >= lb_[slack] - kZeroTol && r <= ub_[slack] + kZeroTol) {
      // Slack basis is feasible for this row.
      basis_[i] = slack;
      status_[slack] = VarStatus::kBasic;
      x_[slack] = r;
    } else {
      // Park the slack at its nearest bound and cover the remainder with an
      // artificial variable.
      const double v = std::clamp(r, lb_[slack], ub_[slack]);
      status_[slack] = (v == lb_[slack] && std::isfinite(lb_[slack]))
                           ? VarStatus::kAtLower
                           : VarStatus::kAtUpper;
      x_[slack] = v;
      const double rem = r - v;
      AddArtificial(i, rem >= 0.0 ? 1.0 : -1.0);
      status_.push_back(VarStatus::kBasic);
      x_.push_back(std::abs(rem));
      basis_[i] = NumVars() - 1;
    }
  }
  ResetDevex();
  // A slack/artificial basis is diagonal with +-1 entries: never singular.
  Refactorize();
}

bool Core::TryWarmStart(const Basis& warm) {
  if (static_cast<int>(warm.basic.size()) != m_) return false;
  std::vector<bool> used(n_slack_end_, false);
  for (int j : warm.basic) {
    if (j < 0 || j >= n_slack_end_ || used[j]) return false;
    used[j] = true;
  }
  basis_ = warm.basic;
  status_.assign(NumVars(), VarStatus::kAtLower);
  x_.assign(NumVars(), 0.0);
  for (int j = 0; j < NumVars(); ++j) {
    VarStatus s = j < static_cast<int>(warm.status.size())
                      ? warm.status[j]
                      : InitialStatus(lb_[j], ub_[j]);
    if (s == VarStatus::kBasic && !used[j]) {
      s = InitialStatus(lb_[j], ub_[j]);  // stale status for a new variable
    }
    switch (s) {
      case VarStatus::kBasic:
        x_[j] = 0.0;  // filled in by ComputeBasicValues
        break;
      case VarStatus::kAtLower:
        if (!std::isfinite(lb_[j])) s = InitialStatus(lb_[j], ub_[j]);
        x_[j] = InitialValue(lb_[j], ub_[j]);
        break;
      case VarStatus::kAtUpper:
        if (!std::isfinite(ub_[j])) s = InitialStatus(lb_[j], ub_[j]);
        x_[j] = std::isfinite(ub_[j]) ? ub_[j] : InitialValue(lb_[j], ub_[j]);
        break;
      case VarStatus::kFree:
        x_[j] = 0.0;
        break;
    }
    status_[j] = s;
  }
  for (int i = 0; i < m_; ++i) status_[basis_[i]] = VarStatus::kBasic;
  ResetDevex();
  if (!Refactorize()) return false;
  // The warm basis must be (near-)feasible; otherwise fall back to phase 1
  // from a cold start.
  for (int i = 0; i < m_; ++i) {
    const int j = basis_[i];
    if (x_[j] < lb_[j] - 1e-7 || x_[j] > ub_[j] + 1e-7) return false;
  }
  return true;
}

// Factorizes the current basis afresh (dropping the eta file) and
// recomputes the basic values from it. Returns false if the basis matrix
// is numerically singular.
bool Core::Refactorize() {
  const Stopwatch refactor_watch;
  ++refactorizations_;
  const bool ok = factor_.Factorize(m_, col_start_, row_index_, value_,
                                    basis_);
  if (ok) ComputeBasicValues();
  refactor_seconds_ += refactor_watch.ElapsedSeconds();
  return ok;
}

void Core::ComputeBasicValues() {
  std::vector<double>& r = w_;
  r.assign(rhs_.begin(), rhs_.end());
  for (int j = 0; j < NumVars(); ++j) {
    if (status_[j] == VarStatus::kBasic || x_[j] == 0.0) continue;
    for (int p = col_start_[j]; p < col_start_[j + 1]; ++p) {
      r[row_index_[p]] -= value_[p] * x_[j];
    }
  }
  factor_.Ftran(&r);
  for (int k = 0; k < m_; ++k) x_[basis_[k]] = r[k];
}

// Fresh duals pi = B^{-T} c_B, reduced costs and phase objective from the
// current factor, then a pricing pass for the next entering variable.
void Core::ComputeReducedCosts(const std::vector<double>& cost) {
  rho_.resize(m_);
  for (int k = 0; k < m_; ++k) rho_[k] = cost[basis_[k]];
  factor_.Btran(&rho_);
  d_.resize(NumVars());
  for (int j = 0; j < NumVars(); ++j) {
    d_[j] = status_[j] == VarStatus::kBasic ? 0.0
                                            : cost[j] - ColumnDot(j, rho_);
  }
  objective_ = Objective(cost);
  fresh_ = true;
  next_enter_ = ChooseEntering(next_bland_);
}

// Direction the entering variable moves in: +1 up, -1 down.
double Core::EnteringDirection(int j) const {
  switch (status_[j]) {
    case VarStatus::kAtLower:
      return 1.0;
    case VarStatus::kAtUpper:
      return -1.0;
    default:
      return d_[j] < 0.0 ? 1.0 : -1.0;
  }
}

// Pricing over the stored reduced costs: Bland's rule takes the first
// improving index, devex the one maximizing d_j^2 / weight_j.
int Core::ChooseEntering(bool bland) const {
  int enter = -1;
  double best_score = 0.0;
  for (int j = 0; j < NumVars(); ++j) {
    const double improvement = Improvement(j);
    if (improvement <= options_.optimality_tolerance) continue;
    if (bland) return j;
    const double weighted = improvement * improvement / devex_[j];
    if (weighted > best_score) {
      best_score = weighted;
      enter = j;
    }
  }
  return enter;
}

double Core::Objective(const std::vector<double>& cost) const {
  double obj = 0.0;
  for (int j = 0; j < NumVars(); ++j) obj += cost[j] * x_[j];
  return obj;
}

Core::StepResult Core::Iterate(bool bland) {
  if (next_bland_ != bland) {
    next_bland_ = bland;
    next_enter_ = ChooseEntering(bland);
  }
  const int enter = next_enter_;
  if (enter < 0) return StepResult::kOptimal;
  const double enter_dir = EnteringDirection(enter);

  // --- FTRAN: w = B^{-1} A_enter. ---
  w_.assign(m_, 0.0);
  for (int p = col_start_[enter]; p < col_start_[enter + 1]; ++p) {
    w_[row_index_[p]] = value_[p];
  }
  factor_.Ftran(&w_);

  // --- Ratio test. ---
  // Entering moves by t >= 0 in direction enter_dir; basic i changes by
  // -enter_dir * t * w_i.
  double t_best = kInfinity;
  int leave_row = -1;
  double leave_bound = 0.0;
  VarStatus leave_status = VarStatus::kAtLower;
  double best_pivot_mag = 0.0;
  double w_max = 1.0;
  for (int i = 0; i < m_; ++i) w_max = std::max(w_max, std::abs(w_[i]));
  const double pivot_tol = kPivotTol * w_max;
  for (int i = 0; i < m_; ++i) {
    const double dw = enter_dir * w_[i];
    if (std::abs(dw) <= pivot_tol) continue;
    const int bj = basis_[i];
    double bound;
    VarStatus new_status;
    if (dw > 0.0) {  // basic value decreases toward its lower bound
      bound = lb_[bj];
      new_status = VarStatus::kAtLower;
      if (!std::isfinite(bound)) continue;
    } else {  // increases toward its upper bound
      bound = ub_[bj];
      new_status = VarStatus::kAtUpper;
      if (!std::isfinite(bound)) continue;
    }
    double t = (x_[bj] - bound) / dw;
    if (t < 0.0) t = 0.0;  // tiny infeasibility from roundoff
    const bool better =
        t < t_best - 1e-10 ||
        (t < t_best + 1e-10 &&
         (bland ? bj < (leave_row >= 0 ? basis_[leave_row] : NumVars())
                : std::abs(w_[i]) > best_pivot_mag));
    if (better) {
      t_best = t;
      leave_row = i;
      leave_bound = bound;
      leave_status = new_status;
      best_pivot_mag = std::abs(w_[i]);
    }
  }
  // Bound flip of the entering variable itself.
  const double own_range = ub_[enter] - lb_[enter];
  const bool flip = std::isfinite(own_range) && own_range <= t_best;
  if (!flip && leave_row < 0) return StepResult::kUnbounded;
  // Pivot row rho = e_r' B^{-1} of a basis change, from the old factor.
  bool drifted = false;
  if (!flip) {
    rho_.assign(m_, 0.0);
    rho_[leave_row] = 1.0;
    factor_.Btran(&rho_);
    const double pivot = w_[leave_row];
    drifted = std::abs(ColumnDot(enter, rho_) - pivot) >
              kPivotDriftTol * (1.0 + std::abs(pivot));
    // Taking a pivot that drift may have made up can leave a singular
    // basis behind, so a drifted updated factor is rebuilt first.
    if (drifted && factor_.num_updates() > 0) return StepResult::kRefactor;
  }
  const double t = flip ? own_range : t_best;
  fresh_ = false;
  for (int i = 0; i < m_; ++i) {
    if (w_[i] != 0.0) x_[basis_[i]] -= enter_dir * t * w_[i];
  }
  x_[enter] += enter_dir * t;
  objective_ += d_[enter] * enter_dir * t;
  if (flip) {
    // Entering moves to its opposite bound; no basis change, so the
    // reduced costs stand and only the choice of entering variable moves.
    status_[enter] = status_[enter] == VarStatus::kAtLower
                         ? VarStatus::kAtUpper
                         : VarStatus::kAtLower;
    next_enter_ = ChooseEntering(bland);
    return StepResult::kContinue;
  }

  // --- Basis change. ---
  const double pivot = w_[leave_row];
  const int leaving = basis_[leave_row];
  x_[leaving] = leave_bound;
  status_[leaving] = leave_status;
  basis_[leave_row] = enter;
  status_[enter] = VarStatus::kBasic;

  // --- One pass over the pivot row alpha_j = rho' A_j: reduced-cost
  // update d_j -= theta * alpha_j, devex weight update, and pricing of the
  // next entering variable. ---
  const double theta = d_[enter] / pivot;
  const double gamma_q = std::max(devex_[enter], 1.0);
  const double inv_p2 = 1.0 / (pivot * pivot);
  const double devex_scale = inv_p2 * gamma_q;
  const double tol = options_.optimality_tolerance;
  int best = -1;
  double best_score = 0.0;  // largest improvement^2 / devex so far
  for (int j = 0; j < NumVars(); ++j) {
    if (j == leaving) continue;
    // Basic columns ride along instead of being branched around: their
    // alpha_j is 0 up to rounding (the entering one's is reset below),
    // and Improvement() keeps them out of the choice.
    const double alpha = ColumnDot(j, rho_);
    d_[j] -= theta * alpha;
    devex_[j] = std::max(devex_[j], alpha * alpha * devex_scale);
    const double improvement = Improvement(j);
    const double square = improvement > tol ? improvement * improvement : 0.0;
    if (square > best_score * devex_[j]) {
      best_score = square / devex_[j];
      best = j;
    }
  }
  d_[enter] = 0.0;
  devex_[enter] = 1.0;
  d_[leaving] = -theta;
  devex_[leaving] = std::max(gamma_q * inv_p2, 1.0);
  const double improvement = Improvement(leaving);
  if (improvement > tol &&
      improvement * improvement > best_score * devex_[leaving]) {
    best = leaving;
  }
  next_enter_ = best;
  // Guard against unbounded weight growth; Bland's rule prices on its own.
  if (devex_[leaving] > 1e12) {
    ResetDevex();
    next_enter_ = ChooseEntering(bland);
  } else if (bland) {
    next_enter_ = ChooseEntering(bland);
  }

  factor_.Update(leave_row, w_);
  if (drifted) refactor_due_ = true;
  return StepResult::kContinue;
}

SolveStatus Core::RunPhase(const std::vector<double>& cost) {
  ComputeReducedCosts(cost);
  double prev_obj = kInfinity;
  int degenerate = 0;
  bool bland = false;
  while (true) {
    if (iterations_ >= options_.max_iterations) {
      return SolveStatus::kIterationLimit;
    }
    if ((iterations_ & 63) == 0 &&
        stopwatch_.ElapsedSeconds() > options_.time_limit_seconds) {
      return SolveStatus::kTimeLimit;
    }
    if (refactor_due_ ||
        factor_.num_updates() >= options_.refactorization_interval) {
      refactor_due_ = false;
      if (!Refactorize()) return SolveStatus::kNumericalError;
      ComputeReducedCosts(cost);
    }
    const StepResult sr = Iterate(bland);
    if (sr == StepResult::kRefactor) {
      refactor_due_ = true;
      continue;
    }
    if (sr == StepResult::kOptimal || sr == StepResult::kUnbounded) {
      // Confirm against a fresh factor, basic values and reduced costs
      // before accepting: the incremental updates may have drifted, and
      // a drifted d_j can pick an entering column that is not improving.
      if (!fresh_) {
        refactor_due_ = true;
        continue;
      }
      if (sr == StepResult::kOptimal) return SolveStatus::kOptimal;
      ++iterations_;
      return SolveStatus::kUnbounded;
    }
    ++iterations_;
    degenerate = objective_ >= prev_obj - 1e-12 ? degenerate + 1 : 0;
    prev_obj = objective_;
    if (degenerate > kDegenerateLimit) bland = true;
  }
}

void Core::FillStats(LpSolution* result) const {
  result->iterations = iterations_;
  result->solve_seconds = stopwatch_.ElapsedSeconds();
  result->refactorizations = refactorizations_;
  result->refactor_seconds = refactor_seconds_;
}

LpSolution Core::Run(const Basis* warm, Basis* out_basis) {
  LpSolution result;
  const int n = model_.num_variables();

  BuildColumns();

  // Trivial case: no constraints — each variable sits at its best bound.
  if (m_ == 0) {
    result.x.assign(n, 0.0);
    const double sgn =
        model_.sense() == ObjectiveSense::kMinimize ? 1.0 : -1.0;
    for (int j = 0; j < n; ++j) {
      const double c = sgn * model_.objective_coefficient(j);
      double v;
      if (c > 0.0) {
        v = lb_[j];
      } else if (c < 0.0) {
        v = ub_[j];
      } else {
        v = InitialValue(lb_[j], ub_[j]);
      }
      if (!std::isfinite(v)) {
        result.status = SolveStatus::kUnbounded;
        return result;
      }
      result.x[j] = v;
      result.objective += model_.objective_coefficient(j) * v;
    }
    result.status = SolveStatus::kOptimal;
    return result;
  }

  const bool warm_ok =
      warm != nullptr && !warm->empty() && TryWarmStart(*warm);
  if (!warm_ok) ColdStart();

  const double sgn = model_.sense() == ObjectiveSense::kMinimize ? 1.0 : -1.0;

  // Phase 1 (only when artificials exist): minimize their sum.
  if (NumVars() > n_slack_end_) {
    std::vector<double> cost1(NumVars(), 0.0);
    for (int j = n_slack_end_; j < NumVars(); ++j) cost1[j] = 1.0;
    SolveStatus phase1 = RunPhase(cost1);
    // Phase 1 is bounded below by zero; unboundedness is numerical.
    if (phase1 == SolveStatus::kUnbounded) {
      phase1 = SolveStatus::kNumericalError;
    }
    if (phase1 != SolveStatus::kOptimal) {
      result.status = phase1;
      FillStats(&result);
      return result;
    }
    if (Objective(cost1) > 1e-6) {
      result.status = SolveStatus::kInfeasible;
      FillStats(&result);
      return result;
    }
    // Freeze artificials at zero so they never re-enter.
    for (int j = n_slack_end_; j < NumVars(); ++j) {
      lb_[j] = 0.0;
      ub_[j] = 0.0;
      fixed_[j] = 1;
      if (status_[j] != VarStatus::kBasic) {
        status_[j] = VarStatus::kAtLower;
        x_[j] = 0.0;
      }
    }
  }

  // Phase 2: true objective (internally always minimize).
  std::vector<double> cost2(NumVars(), 0.0);
  for (int j = 0; j < n; ++j) {
    cost2[j] = sgn * model_.objective_coefficient(j);
  }
  result.status = RunPhase(cost2);

  FillStats(&result);
  result.x.assign(x_.begin(), x_.begin() + n);
  result.objective = 0.0;
  for (int j = 0; j < n; ++j) {
    result.objective += model_.objective_coefficient(j) * x_[j];
  }
  if (result.status == SolveStatus::kOptimal) {
    // Duals with respect to the model's own objective coefficients.
    result.duals.resize(m_);
    for (int k = 0; k < m_; ++k) {
      result.duals[k] =
          basis_[k] < n ? model_.objective_coefficient(basis_[k]) : 0.0;
    }
    factor_.Btran(&result.duals);
    if (out_basis != nullptr) {
      out_basis->basic = basis_;
      out_basis->status.assign(status_.begin(),
                               status_.begin() + n_slack_end_);
    }
  }
  return result;
}

}  // namespace

LpSolution RevisedSimplex::Solve(const Model& model,
                                 const SolverOptions& options,
                                 const Basis* warm, Basis* out_basis) {
  LpSolution first = Core(model, options).Run(warm, out_basis);
  if (first.status != SolveStatus::kNumericalError) return first;
  // Numerical trouble (e.g. a drifted basis turned singular): retry once
  // from a cold start with frequent refactorization, within what is left
  // of the time and iteration limits (a spent budget stops it at its first
  // check). The result counts the work of both attempts.
  SolverOptions retry = options;
  retry.refactorization_interval =
      std::min(retry.refactorization_interval, 16);
  retry.time_limit_seconds -= first.solve_seconds;
  retry.max_iterations -= first.iterations;
  LpSolution result = Core(model, retry).Run(nullptr, out_basis);
  result.numerical_retries = 1;
  result.iterations += first.iterations;
  result.solve_seconds += first.solve_seconds;
  result.refactorizations += first.refactorizations;
  result.refactor_seconds += first.refactor_seconds;
  return result;
}

}  // namespace geopriv::lp
