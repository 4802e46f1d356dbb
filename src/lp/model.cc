#include "lp/model.h"

#include <cmath>
#include <string>

#include "base/check.h"
#include "lp/solution.h"

namespace geopriv::lp {

std::string SolveStatusToString(SolveStatus status) {
  switch (status) {
    case SolveStatus::kOptimal:
      return "optimal";
    case SolveStatus::kInfeasible:
      return "infeasible";
    case SolveStatus::kUnbounded:
      return "unbounded";
    case SolveStatus::kIterationLimit:
      return "iteration_limit";
    case SolveStatus::kTimeLimit:
      return "time_limit";
    case SolveStatus::kNumericalError:
      return "numerical_error";
  }
  return "unknown";
}

int Model::AddVariable(double lb, double ub, double objective) {
  GEOPRIV_CHECK_MSG(lb <= ub, "variable bounds must satisfy lb <= ub");
  obj_.push_back(objective);
  lb_.push_back(lb);
  ub_.push_back(ub);
  return static_cast<int>(obj_.size()) - 1;
}

int Model::AddConstraint(ConstraintSense sense, double rhs,
                         std::vector<Coefficient> terms) {
  for (const Coefficient& t : terms) {
    GEOPRIV_CHECK_MSG(t.var >= 0 && t.var < num_variables(),
                      "constraint references unknown variable");
  }
  row_sense_.push_back(sense);
  rhs_.push_back(rhs);
  rows_.push_back(std::move(terms));
  return static_cast<int>(rhs_.size()) - 1;
}

void Model::AddCoefficient(int constraint, int var, double value) {
  GEOPRIV_CHECK_MSG(constraint >= 0 && constraint < num_constraints(),
                    "unknown constraint");
  GEOPRIV_CHECK_MSG(var >= 0 && var < num_variables(), "unknown variable");
  rows_[constraint].push_back({var, value});
}

Status Model::Validate() const {
  for (int j = 0; j < num_variables(); ++j) {
    if (std::isnan(lb_[j]) || std::isnan(ub_[j]) || lb_[j] > ub_[j]) {
      return Status::InvalidArgument("invalid bounds on variable " +
                                     std::to_string(j));
    }
    if (!std::isfinite(obj_[j])) {
      return Status::InvalidArgument("non-finite objective coefficient");
    }
  }
  for (int i = 0; i < num_constraints(); ++i) {
    if (!std::isfinite(rhs_[i])) {
      return Status::InvalidArgument("non-finite right-hand side");
    }
    for (const Coefficient& t : rows_[i]) {
      if (t.var < 0 || t.var >= num_variables()) {
        return Status::InvalidArgument("coefficient references bad variable");
      }
      if (!std::isfinite(t.value)) {
        return Status::InvalidArgument("non-finite constraint coefficient");
      }
    }
  }
  return Status::OK();
}

}  // namespace geopriv::lp
