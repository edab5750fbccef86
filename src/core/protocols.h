// Facet interfaces between the middleware components (paper Figure 3).
//
// These are the "receptacle/facet" contracts: the AC component calls the LB
// component's Location facet; subtask components call the local IR
// component's Complete facet; the Last Subtask component reports end-to-end
// completions to whoever observes jobs (the metrics collector in this
// implementation).
#pragma once

#include <string_view>

#include "events/event.h"
#include "sched/task.h"
#include "sched/utilization_ledger.h"
#include "util/ids.h"
#include "util/time.h"

namespace rtcm::core {

/// Port names: a plan connection wires a receptacle to the facet of the same
/// name.
inline constexpr std::string_view kLocationPort = "Location";
inline constexpr std::string_view kCompletePort = "Complete";

/// LB facet ("Location"): propose a per-stage processor assignment for a
/// task against the current synthetic utilization.
class LocationService {
 public:
  virtual ~LocationService() = default;
  [[nodiscard]] virtual events::Placement propose_placement(
      const sched::TaskSpec& task,
      const sched::UtilizationLedger& ledger) = 0;
};

/// IR facet ("Complete"): a subtask component finished one subjob on this
/// processor.
class CompletionSink {
 public:
  virtual ~CompletionSink() = default;
  virtual void subjob_complete(const events::SubjobRef& ref,
                               sched::TaskKind kind,
                               Time absolute_deadline) = 0;
};

/// End-to-end completion observer (wired into every Last Subtask component).
class JobCompletionListener {
 public:
  virtual ~JobCompletionListener() = default;
  virtual void job_completed(TaskId task, JobId job, Time released,
                             Time completed, Time absolute_deadline) = 0;
};

}  // namespace rtcm::core
