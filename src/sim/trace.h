// Execution trace recording.
//
// Tests and debugging tools observe middleware behaviour through a trace of
// timestamped records rather than by peeking at private state.  Recording is
// opt-in; when disabled, record() is a no-op.
#pragma once

#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/ids.h"
#include "util/time.h"

namespace rtcm::sim {

enum class TraceKind {
  kJobArrival,      // job arrived at its task effector
  kAdmissionTest,   // AC evaluated the AUB condition
  kJobAdmitted,     // AC accepted
  kJobRejected,     // AC rejected
  kJobReleased,     // TE released the job (first subjob submitted)
  kSubjobComplete,  // a subjob finished executing
  kJobComplete,     // last subjob finished
  kDeadlineMiss,    // job completed after its absolute deadline
  kIdle,            // processor went idle
  kIdleReset,       // IR report removed contributions at the AC
  kReallocation,    // LB placed a subjob away from its primary processor
  kReconfigApplied,   // a reconfiguration changeset was applied
  kReconfigRejected,  // a reconfiguration was rejected and rolled back
  kTaskMigrated,      // a standing reservation moved to a new placement
  kNodeQuiesced,      // deferred passivation of a drained node completed
};

[[nodiscard]] const char* to_string(TraceKind kind);

struct TraceRecord {
  Time time;
  TraceKind kind;
  ProcessorId processor;  // invalid when not applicable
  TaskId task;            // invalid when not applicable
  JobId job;              // invalid when not applicable
  std::string detail;     // free-form extra context
};

class Trace {
 public:
  void enable() { enabled_ = true; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  void record(TraceRecord record) {
    if (enabled_) records_.push_back(std::move(record));
  }

  /// Record with a lazily-built detail string: `detail()` runs only when
  /// tracing is enabled.  Hot paths (admission tests, subjob completions)
  /// use this so disabled-trace runs — every bench and sweep cell — pay
  /// nothing for string formatting.
  template <typename DetailFn>
    requires std::is_invocable_r_v<std::string, DetailFn>
  void record_lazy(Time time, TraceKind kind, ProcessorId processor,
                   TaskId task, JobId job, DetailFn&& detail) {
    if (enabled_) {
      records_.push_back(
          {time, kind, processor, task, job, std::forward<DetailFn>(detail)()});
    }
  }

  [[nodiscard]] const std::vector<TraceRecord>& records() const {
    return records_;
  }
  [[nodiscard]] std::size_t count(TraceKind kind) const;
  /// All records of one kind, in time order.
  [[nodiscard]] std::vector<TraceRecord> of_kind(TraceKind kind) const;
  void clear() { records_.clear(); }

  /// Render records as one line each (for golden tests / debugging).
  [[nodiscard]] std::string render() const;

 private:
  bool enabled_ = false;
  std::vector<TraceRecord> records_;
};

}  // namespace rtcm::sim
