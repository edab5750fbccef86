#include "layer_trace.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "events/event.h"
#include "sched/aub.h"
#include "sched/load_balancer.h"

namespace rtcm::e2e {

namespace {

constexpr std::uint64_t kExact = 64;  // values below this get their own bucket
constexpr int kSubBits = 5;           // 32 sub-buckets per power of two
constexpr std::uint64_t kSubBuckets = 1u << kSubBits;
constexpr int kFirstOctave = 6;  // log2(kExact)

std::size_t bucket_of(std::uint64_t v) {
  if (v < kExact) return static_cast<std::size_t>(v);
  const int octave = std::bit_width(v) - 1;
  const std::uint64_t sub = (v >> (octave - kSubBits)) & (kSubBuckets - 1);
  return static_cast<std::size_t>(kExact +
                                  static_cast<std::uint64_t>(octave -
                                                             kFirstOctave) *
                                      kSubBuckets +
                                  sub);
}

double bucket_midpoint(std::size_t b) {
  if (b < kExact) return static_cast<double>(b);
  const std::size_t rel = b - kExact;
  const int octave = static_cast<int>(rel / kSubBuckets) + kFirstOctave;
  const double width = std::ldexp(1.0, octave - kSubBits);
  const double low = std::ldexp(1.0, octave) +
                     static_cast<double>(rel % kSubBuckets) * width;
  return low + width / 2;
}

using Clock = std::chrono::steady_clock;

/// Keeps the probed calls' results observable.
volatile std::uint64_t probe_sink = 0;

std::uint64_t elapsed_ns(Clock::time_point from) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - from)
          .count());
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

LogHistogram::LogHistogram()
    : buckets_(bucket_of(~std::uint64_t{0}) + 1, 0) {}

void LogHistogram::add(std::uint64_t ns) {
  ++buckets_[bucket_of(ns)];
  ++count_;
}

double LogHistogram::percentile(double p) const {
  if (count_ == 0) return 0.0;
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(p / 100.0 * static_cast<double>(count_))));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    seen += buckets_[b];
    if (seen >= rank) return bucket_midpoint(b);
  }
  return bucket_midpoint(buckets_.size() - 1);
}

const char* step_class_name(StepClass c) {
  switch (c) {
    case StepClass::kAdmit:
      return "core.ac.admit";
    case StepClass::kIdleReset:
      return "core.ac.idle_reset";
    case StepClass::kArrive:
      return "core.te.arrive";
    case StepClass::kRelease:
      return "core.te.release";
    case StepClass::kComplete:
      return "core.subtask.complete";
    case StepClass::kOther:
      return "sim.other";
  }
  return "sim.other";
}

StepCounters StepCounters::read(core::SystemRuntime& runtime) {
  const core::AdmissionControl::Counters& ac =
      runtime.admission_control()->counters();
  const core::TaskMetrics& total = runtime.metrics().total();
  return {ac.admission_tests, ac.subjobs_reset, total.arrivals, total.releases,
          total.completions};
}

StepClass StepCounters::classify_since(const StepCounters& before) const {
  if (admission_tests != before.admission_tests) return StepClass::kAdmit;
  if (subjobs_reset != before.subjobs_reset) return StepClass::kIdleReset;
  if (arrivals != before.arrivals) return StepClass::kArrive;
  if (releases != before.releases) return StepClass::kRelease;
  if (completions != before.completions) return StepClass::kComplete;
  return StepClass::kOther;
}

void probe_layers(core::SystemRuntime& runtime, LayerStats& stats) {
  // FederatedEventChannel::channel() creates a channel on first use, so only
  // processors that already host components are probed, and the channel
  // count is checked to be unchanged afterwards.
  events::FederatedEventChannel& federation = runtime.federation();
  const std::size_t channels_before = federation.channel_count();
  std::vector<ProcessorId> procs = runtime.app_processors();
  procs.push_back(runtime.task_manager());
  std::vector<const events::LocalEventChannel*> channels;
  for (const ProcessorId p : procs) {
    const events::LocalEventChannel& channel = federation.channel(p);
    channels.push_back(&channel);
    stats.subscriptions_max =
        std::max(stats.subscriptions_max, channel.subscription_count());
  }

  const core::SchedulingState& book =
      runtime.admission_control()->state();
  const sched::AdmissionIndex& index = book.admission_index();
  const sched::LoadBalancer balancer;  // the paper's lowest-utilization rule
  const Time now = runtime.simulator().now();
  std::uint64_t sink = 0;
  for (const sched::TaskSpec& task : runtime.tasks().tasks()) {
    std::vector<ProcessorId> primaries;
    std::vector<sched::CandidateStage> stages;
    for (std::size_t j = 0; j < task.subtasks.size(); ++j) {
      primaries.push_back(task.subtasks[j].primary);
      stages.push_back({task.subtasks[j].primary, task.subtask_utilization(j)});
    }
    // The first-stage Trigger a release would push: the most common event
    // on the wire, matched against every Subtask filter of every channel.
    const events::Event trigger{
        primaries.front(), now,
        events::TriggerPayload{task.id, JobId(), 0, primaries,
                               now + task.deadline, now}};

    Clock::time_point t0 = Clock::now();
    for (const events::LocalEventChannel* channel : channels) {
      sink += channel->matches(trigger) ? 1 : 0;
    }
    stats.route_ns.add(elapsed_ns(t0));

    t0 = Clock::now();
    const sched::AdmissionDecision decision =
        index.admission_test(book.ledger(), task.id, stages);
    stats.admission_test_ns.add(elapsed_ns(t0));
    sink += decision.admitted ? 1 : 0;

    t0 = Clock::now();
    const std::vector<ProcessorId> placement =
        balancer.place(task, book.ledger());
    stats.lb_place_ns.add(elapsed_ns(t0));
    sink += placement.size();
  }
  for (const ProcessorId p : procs) {
    stats.fanout_max = std::max(stats.fanout_max, index.fanout(p));
  }
  stats.footprints_max =
      std::max(stats.footprints_max, index.footprint_count());
  if (federation.channel_count() != channels_before) {
    ++stats.probes_creating_channels;
  }
  probe_sink = sink;
}

std::uint32_t SpanLog::add(bool record, std::uint32_t parent, std::string name,
                           std::int64_t start_ns, std::int64_t end_ns,
                           std::int64_t child_ns, std::string label) {
  Aggregate& agg = aggregates_[name];
  ++agg.count;
  agg.total_ns += end_ns - start_ns;
  agg.self_ns += end_ns - start_ns - child_ns;
  if (!record) return 0;
  const std::uint32_t id = next_id_++;
  spans_.push_back(
      {id, parent, std::move(name), std::move(label), start_ns, end_ns});
  return id;
}

Status SpanLog::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::error("cannot open span file " + path);
  std::fputs("{\"spans\": [", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n  {\"id\": %u, \"parent\": %u, \"name\": \"%s\", "
                 "\"label\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld}",
                 i == 0 ? "" : ",", s.id, s.parent, s.name.c_str(),
                 json_escape(s.label).c_str(),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  std::fputs("\n],\n\"aggregates\": {", f);
  bool first = true;
  for (const auto& [name, agg] : aggregates_) {
    std::fprintf(f,
                 "%s\n  \"%s\": {\"count\": %llu, \"total_ns\": %lld, "
                 "\"self_ns\": %lld}",
                 first ? "" : ",", name.c_str(),
                 static_cast<unsigned long long>(agg.count),
                 static_cast<long long>(agg.total_ns),
                 static_cast<long long>(agg.self_ns));
    first = false;
  }
  std::fputs("\n}}\n", f);
  if (std::fclose(f) != 0) {
    return Status::error("cannot write span file " + path);
  }
  return Status::ok();
}

}  // namespace rtcm::e2e
