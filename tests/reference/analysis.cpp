#include "reference/analysis.h"

#include <algorithm>

#include "sched/utilization_ledger.h"

namespace rtcm::reference {

using sched::TaskSet;
using sched::TaskSpec;

std::map<ProcessorId, double> simultaneous_utilization(const TaskSet& set) {
  std::map<ProcessorId, double> out;
  for (const TaskSpec& t : set.tasks()) {
    for (std::size_t j = 0; j < t.subtasks.size(); ++j) {
      out[t.subtasks[j].primary] += t.subtask_utilization(j);
    }
  }
  return out;
}

double peak_simultaneous_utilization(const TaskSet& set) {
  double peak = 0;
  for (const auto& [proc, u] : simultaneous_utilization(set)) {
    peak = std::max(peak, u);
  }
  return peak;
}

TaskFootprint primary_footprint(const TaskSpec& task) {
  TaskFootprint fp;
  fp.task = task.id;
  fp.processors.reserve(task.subtasks.size());
  for (const auto& st : task.subtasks) fp.processors.push_back(st.primary);
  return fp;
}

FeasibilityReport analyze_feasibility(const TaskSet& set) {
  sched::UtilizationLedger ledger;
  for (const TaskSpec& t : set.tasks()) {
    for (std::size_t j = 0; j < t.subtasks.size(); ++j) {
      (void)ledger.add(t.subtasks[j].primary, t.subtask_utilization(j));
    }
  }

  FeasibilityReport report;
  report.feasible = true;
  for (const TaskSpec& t : set.tasks()) {
    const double lhs = aub_lhs(ledger, primary_footprint(t).processors);
    report.lhs.push_back(lhs);
    // Exact: an LHS of 2^40 + 1 units or more converts to a double > 1.
    if (lhs > 1.0 && report.feasible) {
      report.feasible = false;
      report.first_violation = t.id;
    }
  }
  return report;
}

}  // namespace rtcm::reference
