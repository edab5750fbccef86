// Deferrable Server (Strosnider, Lehoczky, Sha 1995) execution model.
//
// The paper's prior work evaluated two aperiodic scheduling techniques —
// the aperiodic utilization bound and the deferrable server — and this
// middleware's AC component can be configured for either (§2: other
// techniques "can be integrated within real-time component middleware in a
// similar way").  This class provides the *dispatching* half of the DS
// technique on a simulated processor:
//
//   - the server owns a budget that replenishes to full every period,
//   - aperiodic subjobs execute through the server at a priority above all
//     EDMS (periodic) priorities,
//   - execution consumes budget; when the budget is exhausted mid-job the
//     job is suspended until the next replenishment (implemented by
//     submitting budget-sized execution chunks to the processor),
//   - unused budget is retained while the server idles ("deferrable").
#pragma once

#include <cstdint>
#include <vector>

#include "sim/processor.h"
#include "sim/simulator.h"
#include "util/priority.h"
#include "util/time.h"

namespace rtcm::sim {

struct DeferrableServerParams {
  /// Execution budget per replenishment period.
  Duration budget = Duration::milliseconds(25);
  /// Replenishment period.
  Duration period = Duration::milliseconds(100);
  /// Dispatch priority of served work; must be more urgent than every EDMS
  /// level (EDMS levels start at 0).
  Priority priority = Priority(-1);

  [[nodiscard]] double utilization() const {
    return budget.ratio(period);
  }
};

struct DeferrableServerStats {
  std::uint64_t jobs_served = 0;
  std::uint64_t chunks_dispatched = 0;
  std::uint64_t replenishments = 0;
  /// Times a job had to wait for a replenishment mid-execution.
  std::uint64_t budget_exhaustions = 0;
};

class DeferrableServer {
 public:
  DeferrableServer(Simulator& sim, Processor& cpu,
                   DeferrableServerParams params);
  DeferrableServer(const DeferrableServer&) = delete;
  DeferrableServer& operator=(const DeferrableServer&) = delete;

  /// Begin the replenishment schedule (call once, before any submission).
  void start();

  /// Queue one aperiodic subjob for served execution.  The queue is ordered
  /// by ascending id: ids encode admission order (job id, then stage), so
  /// earlier-admitted work is never delayed by later admissions — the
  /// ordering the delay-bound analysis assumes.  The chunk currently
  /// executing is not preempted by a lower id.
  void submit(std::uint64_t id, Duration execution,
              CompletionFn on_complete);

  [[nodiscard]] const DeferrableServerParams& params() const {
    return params_;
  }
  [[nodiscard]] Duration budget_remaining() const { return budget_; }
  [[nodiscard]] std::size_t queued() const { return queue_.size(); }
  [[nodiscard]] const DeferrableServerStats& stats() const { return stats_; }

 private:
  struct Pending {
    std::uint64_t id;
    Duration remaining;
    CompletionFn on_complete;
  };

  /// Dispatch the next chunk if work and budget are available.
  void pump();
  void on_chunk_complete(Duration chunk);
  void replenish();

  Simulator& sim_;
  Processor& cpu_;
  DeferrableServerParams params_;
  Duration budget_;
  bool started_ = false;
  bool chunk_in_flight_ = false;
  /// Admission-ordered FIFO, head at the front.  A vector, not a deque: it
  /// keeps its capacity across drains, so a warm server queues without
  /// allocating (queues are a few subjobs deep, so front erases are cheap).
  std::vector<Pending> queue_;
  DeferrableServerStats stats_;
};

}  // namespace rtcm::sim
