// Outside-in per-layer measurement for the traced run.
//
// Nothing here reaches inside the library: layers are timed from the
// benchmark's side of the public API, in three ways.
//   - Setup calls (workload generation, runtime assembly, script scheduling,
//     arrival injection, teardown) are timed around the call.
//   - The run is driven one Simulator::step() at a time; each step's host
//     time is charged to the first StepClass whose public counter moved
//     during it.
//   - At 20/40/60/80% of the horizon, read-only public functions (channel
//     routing matches, the admission index's Equation-1 test, the load
//     balancer's placement) are probed on the live state for every task.
// Spans are kept in memory and written out once, at the end of the run.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/runtime.h"

namespace rtcm::e2e {

/// Latency histogram with ~3% resolution: exact below 64 ns, then 32
/// sub-buckets per power of two.  Fixed memory, so per-step timing of a
/// multi-million-step run costs no allocation.
class LogHistogram {
 public:
  LogHistogram();
  void add(std::uint64_t ns);
  [[nodiscard]] std::uint64_t count() const { return count_; }
  /// Midpoint of the bucket holding the p-th percentile (p in [0, 100]);
  /// 0 when empty.
  [[nodiscard]] double percentile(double p) const;

 private:
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
};

/// Where one simulator step's host time is charged: the first class, in
/// this order, whose public counter moved during the step.
enum class StepClass {
  kAdmit,      // AdmissionControl::counters().admission_tests
  kIdleReset,  // AdmissionControl::counters().subjobs_reset
  kArrive,     // MetricsCollector total arrivals
  kRelease,    // MetricsCollector total releases
  kComplete,   // MetricsCollector total completions
  kOther,
};
inline constexpr std::size_t kStepClasses = 6;
[[nodiscard]] const char* step_class_name(StepClass c);

/// Snapshot of the counters that classify a step.
struct StepCounters {
  std::uint64_t admission_tests = 0;
  std::uint64_t subjobs_reset = 0;
  std::uint64_t arrivals = 0;
  std::uint64_t releases = 0;
  std::uint64_t completions = 0;

  [[nodiscard]] static StepCounters read(core::SystemRuntime& runtime);
  [[nodiscard]] StepClass classify_since(const StepCounters& before) const;
};

/// Host-time distributions of the traced passes.
struct LayerStats {
  struct StepStats {
    LogHistogram ns;
    std::uint64_t total_ns = 0;
  };
  std::array<StepStats, kStepClasses> steps;
  LogHistogram route_ns;
  LogHistogram admission_test_ns;
  LogHistogram lb_place_ns;
  std::size_t fanout_max = 0;
  std::size_t footprints_max = 0;
  std::size_t subscriptions_max = 0;
  /// Probes that changed the federation's channel count (must stay 0).
  std::uint64_t probes_creating_channels = 0;
};

/// Run every read-only probe once per task on the live runtime.
void probe_layers(core::SystemRuntime& runtime, LayerStats& stats);

/// Every span of the fully recorded scenarios, plus count / total / self
/// time per span name over all traced scenarios.  Times are ns since the
/// run's origin.
class SpanLog {
 public:
  /// Add a span whose children cover `child_ns` of it; returns its id (0
  /// when `record` is false, which only aggregates it).  `label` names
  /// scenario spans.
  std::uint32_t add(bool record, std::uint32_t parent, std::string name,
                    std::int64_t start_ns, std::int64_t end_ns,
                    std::int64_t child_ns = 0, std::string label = "");
  /// Write {"spans": [...], "aggregates": {...}} to `path`.
  [[nodiscard]] Status write(const std::string& path) const;

 private:
  struct Span {
    std::uint32_t id = 0;
    std::uint32_t parent = 0;  // 0 = root
    std::string name;
    std::string label;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };
  struct Aggregate {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };
  std::vector<Span> spans_;
  std::map<std::string, Aggregate> aggregates_;
  std::uint32_t next_id_ = 1;
};

}  // namespace rtcm::e2e
