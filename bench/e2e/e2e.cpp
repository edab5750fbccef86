// End-to-end benchmark driver (README.md has the metric definitions).
//
//   rtcm_e2e --workload=NAME --seed=S --seconds=T [--trace --spans=PATH]
//
// Runs one named workload on one thread.  A pass runs every scenario of the
// workload (workloads.h) back to back, split into the same public calls
// scenario::run_scenario makes so each call can be timed.  The pass repeats
// for about T seconds of host time; every pass must reproduce the first
// pass's deterministic outcome exactly.  Host times are per-scenario
// medians over the passes, summed over one pass.
//
// Untraced, it prints the end-to-end metrics.  With --trace it alternates
// untraced and traced passes and prints the per-layer metrics measured from
// outside the library (layer_trace.h), the tracing overhead, and writes the
// span file.  The last stdout line is one JSON object:
//   {"correct": B, "attempted": N, "failed": N, "metrics": {NAME: {"value":
//    X, "unit": U}, ...}}
// The exit code is nonzero when any output check failed.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/runtime.h"
#include "layer_trace.h"
#include "reconfig/manager.h"
#include "scenario/scenario.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/stats.h"
#include "workload/arrival.h"
#include "workload/burst.h"
#include "workload/generator.h"
#include "workloads.h"

namespace rtcm::e2e {
namespace {

using Clock = std::chrono::steady_clock;

std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

double seconds(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// Everything one scenario produces that is a pure function of its spec:
/// the paper's outcome plus every public layer counter.  Traced and
/// untraced passes must agree on all of it.
struct Outcome {
  std::string error;
  double accept_ratio = 0.0;
  std::uint64_t deadline_misses = 0;
  double aperiodic_response_ms = 0.0;
  std::uint64_t arrivals = 0;
  std::uint64_t releases = 0;
  std::uint64_t completions = 0;
  std::uint64_t rejections = 0;
  std::uint64_t reconfig_applied = 0;
  std::uint64_t reconfig_rejected = 0;
  std::uint64_t sim_events = 0;
  std::uint64_t pending_after_inject = 0;
  std::uint64_t preemptions = 0;
  std::uint64_t network_messages = 0;
  std::uint64_t events_pushed = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t channels = 0;
  std::uint64_t ac_tests = 0;
  std::uint64_t ac_admits = 0;
  std::uint64_t ac_rejects = 0;
  std::uint64_t ac_subjobs_reset = 0;
  std::uint64_t ac_reservation_moves = 0;
  std::uint64_t ac_migrations = 0;
  std::uint64_t lb_location_calls = 0;
  std::uint64_t ir_reports = 0;

  bool operator==(const Outcome&) const = default;
};

/// Host-time boundaries of one scenario, in call order.
enum Mark {
  kStart,
  kGenerated,   // workload::generate_workload
  kAssembled,   // SystemRuntime construction + assemble()
  kScheduled,   // ReconfigurationManager + schedule_script()
  kArrivalsMade,
  kInjected,    // inject_arrivals()
  kRan,         // run_until() or the traced step loop
  kCollected,   // outcome read from public accessors
  kTornDown,    // manager and runtime destroyed
  kMarks,
};

struct HostTimes {
  std::array<Clock::time_point, kMarks> at;
  [[nodiscard]] std::int64_t between(Mark a, Mark b) const {
    return ns_between(at[a], at[b]);
  }
};

using Window = std::pair<Clock::time_point, Clock::time_point>;

/// Per-layer state shared by the traced passes of a run.
struct Tracing {
  Clock::time_point origin;
  LayerStats stats;
  SpanLog spans;
  std::uint64_t events_past_end = 0;
  /// Record every span of group-head scenarios (first traced pass only).
  bool record_heads = false;
};

/// Drive the runtime one step at a time to `end`, charging each step's host
/// time to a StepClass and probing the layers at 20/40/60/80% of the
/// horizon.  Returns the probes' host-time windows.
std::vector<Window> drive_traced(core::SystemRuntime& runtime,
                                 Duration horizon, Time end,
                                 Tracing& tracing) {
  sim::Simulator& sim = runtime.simulator();
  std::array<Time, 4> probe_at{};
  for (std::size_t i = 0; i < probe_at.size(); ++i) {
    probe_at[i] = Time::epoch() + Duration(horizon.usec() *
                                           static_cast<std::int64_t>(i + 1) /
                                           5);
  }
  std::vector<Window> windows;
  std::size_t next_probe = 0;
  StepCounters before = StepCounters::read(runtime);
  Clock::time_point last = Clock::now();
  // The queue drains by itself once the last job completes; an event past
  // `end` would be one run_until() never runs, so it is counted as a
  // failure (the outcome comparison would catch it too).
  while (sim.step()) {
    const Clock::time_point now = Clock::now();
    const StepCounters after = StepCounters::read(runtime);
    LayerStats::StepStats& step =
        tracing.stats.steps[static_cast<std::size_t>(
            after.classify_since(before))];
    const auto ns = static_cast<std::uint64_t>(ns_between(last, now));
    step.ns.add(ns);
    step.total_ns += ns;
    before = after;
    last = now;
    if (sim.now() > end) ++tracing.events_past_end;
    if (next_probe < probe_at.size() && sim.now() >= probe_at[next_probe]) {
      while (next_probe < probe_at.size() &&
             sim.now() >= probe_at[next_probe]) {
        ++next_probe;
      }
      probe_layers(runtime, tracing.stats);
      windows.emplace_back(now, Clock::now());
      last = windows.back().second;
    }
  }
  return windows;
}

/// One scenario's span tree: the scenario, one child per timed call, and
/// the probes under sim.run.  `record` false only aggregates it.
void log_spans(const scenario::ScenarioSpec& spec, const HostTimes& t,
               const std::vector<Window>& probes, bool record,
               Tracing& tracing) {
  const auto rel = [&](Clock::time_point p) {
    return ns_between(tracing.origin, p);
  };
  SpanLog& log = tracing.spans;
  std::int64_t probe_ns = 0;
  for (const auto& [a, b] : probes) probe_ns += ns_between(a, b);
  // Children cover everything but the gap where a script would be
  // scheduled (when there is none) and the outcome collection.
  const std::int64_t child_ns =
      t.between(kStart, kRan) -
      (spec.reconfig.empty() ? t.between(kAssembled, kScheduled) : 0) +
      t.between(kCollected, kTornDown);
  const std::uint32_t root =
      log.add(record, 0, "scenario", rel(t.at[kStart]), rel(t.at[kTornDown]),
              child_ns, spec.name);
  const auto child = [&](const char* name, Mark a, Mark b,
                         std::int64_t grandchildren = 0) {
    return log.add(record, root, name, rel(t.at[a]), rel(t.at[b]),
                   grandchildren);
  };
  child("workload.generate", kStart, kGenerated);
  child("core.runtime.assemble", kGenerated, kAssembled);
  if (!spec.reconfig.empty()) {
    child("reconfig.schedule", kAssembled, kScheduled);
  }
  child("workload.arrivals", kScheduled, kArrivalsMade);
  child("sim.inject", kArrivalsMade, kInjected);
  const std::uint32_t run = child("sim.run", kInjected, kRan, probe_ns);
  for (const auto& [a, b] : probes) {
    log.add(record, run, "probe", rel(a), rel(b));
  }
  child("core.runtime.teardown", kCollected, kTornDown);
}

/// scenario::run_scenario, split into its public calls so each is timed.
Outcome run_split(const scenario::ScenarioSpec& spec, HostTimes& t,
                  Tracing* tracing, bool record) {
  Outcome out;
  t.at[kStart] = Clock::now();
  Rng rng(spec.seed);
  sched::TaskSet tasks =
      spec.workload.kind == scenario::WorkloadSpec::Kind::kGenerated
          ? workload::generate_workload(spec.workload.shape, rng)
          : spec.workload.tasks;
  t.at[kGenerated] = Clock::now();

  auto runtime =
      std::make_unique<core::SystemRuntime>(spec.config, std::move(tasks));
  Status status = runtime->assemble();
  t.at[kAssembled] = Clock::now();

  std::unique_ptr<reconfig::ReconfigurationManager> manager;
  if (status.is_ok() && !spec.reconfig.empty()) {
    manager = std::make_unique<reconfig::ReconfigurationManager>(*runtime);
    status = manager->schedule_script(spec.reconfig);
  }
  t.at[kScheduled] = Clock::now();

  Rng arrival_rng = rng.fork(1);
  const Time horizon = Time::epoch() + spec.horizon;
  std::vector<core::Arrival> arrivals;
  switch (spec.arrivals.kind) {
    case scenario::ArrivalModel::Kind::kPoisson:
      arrivals =
          workload::generate_arrivals(runtime->tasks(), horizon, arrival_rng);
      break;
    case scenario::ArrivalModel::Kind::kBursty:
      arrivals = workload::generate_bursty_arrivals(
          runtime->tasks(), horizon, spec.arrivals.burst, arrival_rng);
      break;
    case scenario::ArrivalModel::Kind::kTrace:
      arrivals = spec.arrivals.trace;
      break;
    case scenario::ArrivalModel::Kind::kNone:
      break;
  }
  t.at[kArrivalsMade] = Clock::now();

  if (status.is_ok()) status = runtime->inject_arrivals(arrivals);
  t.at[kInjected] = Clock::now();

  std::vector<Window> probes;
  if (status.is_ok()) {
    out.pending_after_inject = runtime->simulator().pending();
    const Time end = horizon + spec.drain;
    if (tracing != nullptr) {
      probes = drive_traced(*runtime, spec.horizon, end, *tracing);
    } else {
      runtime->run_until(end);
    }
  } else {
    out.error = status.message();
  }
  t.at[kRan] = Clock::now();

  if (status.is_ok()) {
    const core::MetricsCollector& metrics = runtime->metrics();
    out.accept_ratio = metrics.accepted_utilization_ratio();
    out.deadline_misses = metrics.total().deadline_misses;
    out.arrivals = metrics.total().arrivals;
    out.releases = metrics.total().releases;
    out.completions = metrics.total().completions;
    out.rejections = metrics.total().rejections;
    OnlineStats response;
    for (const auto& [task, tm] : metrics.per_task()) {
      if (runtime->tasks().find(task)->kind == sched::TaskKind::kAperiodic) {
        response.merge(tm.response_ms);
      }
    }
    out.aperiodic_response_ms = response.count() > 0 ? response.mean() : 0.0;
    if (manager) {
      out.reconfig_applied = manager->applied_count();
      out.reconfig_rejected = manager->rejected_count();
    }
    out.sim_events = runtime->simulator().executed();
    out.network_messages = runtime->network().stats().messages_sent;
    const events::FederationStats& fed = runtime->federation().stats();
    out.events_pushed = fed.events_pushed;
    out.deliveries = fed.local_deliveries + fed.remote_deliveries;
    out.channels = runtime->federation().channel_count();
    std::vector<ProcessorId> procs = runtime->app_processors();
    procs.push_back(runtime->task_manager());
    for (const ProcessorId p : procs) {
      out.preemptions += runtime->processor(p).stats().preemptions;
    }
    for (const ProcessorId p : runtime->app_processors()) {
      out.ir_reports += runtime->idle_resetter(p)->reports_pushed();
    }
    const core::AdmissionControl::Counters& ac =
        runtime->admission_control()->counters();
    out.ac_tests = ac.admission_tests;
    out.ac_admits = ac.admits;
    out.ac_rejects = ac.rejects;
    out.ac_subjobs_reset = ac.subjobs_reset;
    out.ac_reservation_moves = ac.reservation_moves;
    out.ac_migrations = ac.migrations;
    out.lb_location_calls = runtime->load_balancer()->location_calls();
  }
  t.at[kCollected] = Clock::now();

  // The manager may still have events queued in the runtime's simulator,
  // so it goes first (the order ScenarioResult's members encode).
  manager.reset();
  runtime.reset();
  t.at[kTornDown] = Clock::now();

  if (tracing != nullptr) log_spans(spec, t, probes, record, *tracing);
  return out;
}

struct Pass {
  bool traced = false;
  std::int64_t wall_ns = 0;
  std::vector<Outcome> outcomes;
  std::vector<HostTimes> times;

  [[nodiscard]] std::uint64_t sum(std::uint64_t Outcome::*field) const {
    std::uint64_t total = 0;
    for (const Outcome& o : outcomes) total += o.*field;
    return total;
  }
};

Pass run_pass(const std::vector<PassScenario>& scenarios, Tracing* tracing) {
  Pass pass;
  pass.traced = tracing != nullptr;
  pass.outcomes.reserve(scenarios.size());
  pass.times.resize(scenarios.size());
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const bool record =
        tracing != nullptr && tracing->record_heads && scenarios[i].group_head;
    pass.outcomes.push_back(
        run_split(scenarios[i].spec, pass.times[i], tracing, record));
  }
  pass.wall_ns = ns_between(start, Clock::now());
  if (tracing != nullptr) tracing->record_heads = false;
  return pass;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

/// Each scenario's host seconds between two marks, as its median over
/// `passes`.  The median drops the executions a noisy neighbour slowed,
/// which a median of pass totals cannot separate from the scenarios' own
/// spread.
std::vector<double> scenario_seconds(const std::vector<const Pass*>& passes,
                                     Mark a, Mark b) {
  std::vector<double> out;
  std::vector<double> repeats(passes.size());
  for (std::size_t i = 0; i < passes.front()->times.size(); ++i) {
    for (std::size_t p = 0; p < passes.size(); ++p) {
      repeats[p] = seconds(passes[p]->times[i].between(a, b));
    }
    out.push_back(median(repeats));
  }
  return out;
}

/// Host seconds between two marks for one pass of the workload.
double pass_seconds(const std::vector<const Pass*>& passes, Mark a, Mark b) {
  double total = 0.0;
  for (const double s : scenario_seconds(passes, a, b)) total += s;
  return total;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// The process's own peak resident set (VmHWM).  getrusage's ru_maxrss is
/// not used: Linux carries it across execve, so it would report the
/// launching process's peak when that was larger.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  long long kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lld kB", &kib) == 1) break;
  }
  std::fclose(f);
  return static_cast<double>(kib) / 1024.0;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  void add(std::string name, double value, std::string unit) {
    std::printf("  %-34s %.6g %s\n", name.c_str(), value, unit.c_str());
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }
  void print_json(bool correct, std::uint64_t attempted,
                  std::uint64_t failed) const {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                  metrics_[i].value, metrics_[i].unit.c_str());
    }
    std::printf("}}\n");
  }

 private:
  std::vector<Metric> metrics_;
};

/// Output checks over every pass; returns the number of failed scenario
/// executions (a scenario fails once however many checks it trips).
///
/// Under aUB an admitted job never misses its deadline, so a miss fails,
/// except in the few cells known to miss on the library as it stands
/// (workloads.cpp), which are reported.
std::uint64_t check_passes(const std::vector<Pass>& passes,
                           const std::vector<PassScenario>& scenarios) {
  std::uint64_t failed = 0;
  const std::vector<Outcome>& reference = passes.front().outcomes;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    if (scenarios[i].known_misses && reference[i].deadline_misses != 0) {
      std::fprintf(stderr,
                   "NOTE %s: %llu admitted jobs missed deadlines (known "
                   "defect)\n",
                   scenarios[i].spec.name.c_str(),
                   static_cast<unsigned long long>(
                       reference[i].deadline_misses));
    }
  }
  for (const Pass& pass : passes) {
    for (std::size_t i = 0; i < pass.outcomes.size(); ++i) {
      const Outcome& o = pass.outcomes[i];
      std::string why;
      if (!o.error.empty()) {
        why = o.error;
      } else if (o.arrivals != o.releases + o.rejections) {
        why = "arrivals != releases + rejections after the drain";
      } else if (o.deadline_misses != 0 && !scenarios[i].known_misses) {
        why = "admitted jobs missed deadlines";
      } else if (!(o == reference[i])) {
        why = pass.traced ? "traced pass diverged from the untraced outcome"
                          : "pass diverged from the first pass";
      }
      if (!why.empty()) {
        ++failed;
        std::fprintf(stderr, "FAIL %s: %s\n", scenarios[i].spec.name.c_str(),
                     why.c_str());
      }
    }
  }
  return failed;
}

/// The split-up run must match scenario::run_scenario bit for bit on the
/// paper's outcome, for the first seed of every (combo, variant) group.
std::uint64_t check_against_library(const std::vector<PassScenario>& scenarios,
                                    const std::vector<Outcome>& reference,
                                    std::uint64_t& attempted) {
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    if (!scenarios[i].group_head) continue;
    ++attempted;
    const auto lib = scenario::run_scenario(scenarios[i].spec);
    const Outcome& mine = reference[i];
    if (!lib.is_ok() || lib.value().accept_ratio != mine.accept_ratio ||
        lib.value().deadline_misses != mine.deadline_misses ||
        lib.value().aperiodic_response_ms != mine.aperiodic_response_ms) {
      ++failed;
      std::fprintf(stderr, "FAIL %s: split-up run differs from run_scenario\n",
                   scenarios[i].spec.name.c_str());
    }
  }
  return failed;
}

void report_end_to_end(Report& r, const std::vector<const Pass*>& untraced,
                       double peak_rss) {
  const Pass& first = *untraced.front();
  r.add("wall_s", pass_seconds(untraced, kStart, kTornDown), "s");
  r.add("setup_s", pass_seconds(untraced, kStart, kInjected), "s");
  r.add("arrivals_per_s",
        ratio(static_cast<double>(first.sum(&Outcome::arrivals)),
              pass_seconds(untraced, kInjected, kRan)),
        "1/s");
  Samples scenario_ms;
  for (const double s : scenario_seconds(untraced, kStart, kTornDown)) {
    scenario_ms.add(s * 1e3);
  }
  r.add("scenario_ms_p50", scenario_ms.percentile(50), "ms");
  r.add("peak_rss_mb", peak_rss, "MB");
  double accept = 0.0;
  double response = 0.0;
  for (const Outcome& o : first.outcomes) {
    accept += o.accept_ratio;
    response += o.aperiodic_response_ms;
  }
  const auto n = static_cast<double>(first.outcomes.size());
  r.add("accept_ratio", accept / n, "ratio");
  r.add("aperiodic_response_ms", response / n, "ms");
  // Not a bounded metric: with 24-36 scenarios per pass it rests on 2-3
  // samples and spreads past any usable bound (README.md).
  std::printf("  (scenario_ms over %zu scenarios, each a median of %zu "
              "executions; p90 %.6g ms)\n",
              scenario_ms.count(), untraced.size(),
              scenario_ms.percentile(90));
}

void report_layers(Report& r, const std::vector<const Pass*>& untraced,
                   const std::vector<const Pass*>& traced,
                   const Tracing& tracing) {
  const Pass& ref = *traced.front();
  const auto setup = [&](const char* name, Mark a, Mark b) {
    r.add(name, pass_seconds(traced, a, b), "s");
  };
  setup("workload.generate_s", kStart, kGenerated);
  setup("core.runtime.assemble_s", kGenerated, kAssembled);
  setup("reconfig.schedule_s", kAssembled, kScheduled);
  setup("workload.arrivals_s", kScheduled, kArrivalsMade);
  setup("sim.inject_s", kArrivalsMade, kInjected);
  setup("core.runtime.teardown_s", kCollected, kTornDown);

  std::uint64_t step_ns = 0;
  for (const LayerStats::StepStats& s : tracing.stats.steps) {
    step_ns += s.total_ns;
  }
  const auto passes = static_cast<double>(traced.size());
  for (std::size_t c = 0; c < kStepClasses; ++c) {
    const LayerStats::StepStats& s = tracing.stats.steps[c];
    const std::string name = step_class_name(static_cast<StepClass>(c));
    r.add(name + ".count", static_cast<double>(s.ns.count()) / passes,
          "count");
    r.add(name + ".share",
          ratio(static_cast<double>(s.total_ns), static_cast<double>(step_ns)),
          "ratio");
    r.add(name + ".ns_p50", s.ns.percentile(50), "ns");
    r.add(name + ".ns_p99", s.ns.percentile(99), "ns");
  }

  const LayerStats& st = tracing.stats;
  r.add("events.route_ns_p50", st.route_ns.percentile(50), "ns");
  r.add("events.route_ns_p99", st.route_ns.percentile(99), "ns");
  r.add("sched.admission_test_ns_p50", st.admission_test_ns.percentile(50),
        "ns");
  r.add("sched.admission_test_ns_p99", st.admission_test_ns.percentile(99),
        "ns");
  r.add("sched.lb_place_ns_p50", st.lb_place_ns.percentile(50), "ns");
  r.add("sched.lb_place_ns_p99", st.lb_place_ns.percentile(99), "ns");
  r.add("sched.fanout_max", static_cast<double>(st.fanout_max), "count");
  r.add("sched.footprints_max", static_cast<double>(st.footprints_max),
        "count");

  const auto count = [&](const char* name, std::uint64_t Outcome::*field) {
    const auto v = static_cast<double>(ref.sum(field));
    r.add(name, v, "count");
    return v;
  };
  const double events = count("sim.events", &Outcome::sim_events);
  // Host speed is taken from the untraced passes: tracing slows each step.
  r.add("sim.events_per_s",
        ratio(events, pass_seconds(untraced, kInjected, kRan)), "1/s");
  std::uint64_t pending_max = 0;
  std::uint64_t channel_visits = 0;
  for (const Outcome& o : ref.outcomes) {
    pending_max = std::max(pending_max, o.pending_after_inject);
    channel_visits += o.events_pushed * o.channels;
  }
  r.add("sim.pending_max", static_cast<double>(pending_max), "count");
  count("sim.preemptions", &Outcome::preemptions);
  count("sim.network.messages", &Outcome::network_messages);
  count("events.pushed", &Outcome::events_pushed);
  const double deliveries = count("events.deliveries", &Outcome::deliveries);
  r.add("events.channel_visits", static_cast<double>(channel_visits), "count");
  r.add("events.delivery_ratio",
        ratio(deliveries, static_cast<double>(channel_visits)), "ratio");
  r.add("events.subscriptions_max",
        static_cast<double>(st.subscriptions_max), "count");
  const double tests = count("core.ac.tests", &Outcome::ac_tests);
  const double admits = count("core.ac.admits", &Outcome::ac_admits);
  count("core.ac.rejects", &Outcome::ac_rejects);
  r.add("core.ac.admit_ratio", ratio(admits, tests), "ratio");
  count("core.ac.subjobs_reset", &Outcome::ac_subjobs_reset);
  count("core.ac.reservation_moves", &Outcome::ac_reservation_moves);
  count("core.ac.migrations", &Outcome::ac_migrations);
  count("core.lb.location_calls", &Outcome::lb_location_calls);
  count("core.ir.reports", &Outcome::ir_reports);
  count("core.deadline_misses", &Outcome::deadline_misses);
  count("reconfig.applied", &Outcome::reconfig_applied);
  count("reconfig.rejected", &Outcome::reconfig_rejected);

  r.add("trace_overhead_pct",
        (pass_seconds(traced, kStart, kTornDown) /
             pass_seconds(untraced, kStart, kTornDown) -
         1.0) * 100.0,
        "%");
}

int run(int argc, char** argv) {
  const Flags flags = Flags::parse(argc, argv);
  const std::string name = flags.get_string("workload", "");
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  // No default run length: BENCHMARK.json's run_seconds is the one value.
  const double budget_s = flags.get_double("seconds", 0.0);
  const bool trace = flags.get_bool("trace", false);
  const std::string spans_path = flags.get_string("spans", "");
  flags.reject_unknown({"workload", "seed", "seconds", "trace", "spans"});
  for (const std::string& error : flags.errors()) {
    std::fprintf(stderr, "%s\n", error.c_str());
  }
  if (!flags.errors().empty() || flags.get_int("seed", 1) < 0 ||
      budget_s <= 0.0) {
    std::fprintf(stderr, "usage: rtcm_e2e --workload=NAME [--seed=S>=0] "
                         "--seconds=T>0 [--trace --spans=PATH]\n");
    return 2;
  }
  const auto workload = find_workload(name);
  if (!workload.is_ok()) {
    std::fprintf(stderr, "%s\n", workload.message().c_str());
    return 2;
  }
  const auto scenarios = pass_scenarios(workload.value(), seed);
  if (!scenarios.is_ok()) {
    std::fprintf(stderr, "%s\n", scenarios.message().c_str());
    return 2;
  }

  std::printf("workload %s, scenario seeds %llu..%llu, %zu scenarios per "
              "pass, %s, %.0f s budget\n",
              name.c_str(),
              static_cast<unsigned long long>(
                  scenarios.value().front().spec.seed),
              static_cast<unsigned long long>(
                  scenarios.value().back().spec.seed),
              scenarios.value().size(), trace ? "traced" : "untraced",
              budget_s);

  // A pass starts only when one more of the last pass's length still fits
  // the budget, so a run takes about --seconds.  Untraced runs make at
  // least three passes so the per-scenario medians have a middle; traced
  // runs alternate untraced and traced passes, starting untraced.
  const std::size_t min_passes = trace ? 2 : 3;
  Tracing tracing;
  tracing.origin = Clock::now();
  tracing.record_heads = true;
  const Clock::time_point deadline =
      tracing.origin + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(budget_s));
  std::vector<Pass> passes;
  double peak_rss = 0.0;
  while (passes.size() < min_passes ||
         Clock::now() + std::chrono::nanoseconds(passes.back().wall_ns) <=
             deadline) {
    const bool traced = trace && passes.size() % 2 == 1;
    passes.push_back(
        run_pass(scenarios.value(), traced ? &tracing : nullptr));
    // Every pass keeps its records (about 1 MB on fig5-paper), so a reading
    // after the last pass would grow with the number of passes the host fit.
    if (passes.size() == 1) peak_rss = peak_rss_mb();
  }

  std::uint64_t attempted = 0;
  for (const Pass& p : passes) attempted += p.outcomes.size();
  std::uint64_t failed = check_passes(passes, scenarios.value());
  failed += check_against_library(scenarios.value(), passes.front().outcomes,
                                  attempted);
  if (tracing.events_past_end > 0 ||
      tracing.stats.probes_creating_channels > 0) {
    ++failed;
    std::fprintf(stderr,
                 "FAIL traced run: %llu steps past the end, %llu probes "
                 "created a channel\n",
                 static_cast<unsigned long long>(tracing.events_past_end),
                 static_cast<unsigned long long>(
                     tracing.stats.probes_creating_channels));
  }

  std::vector<const Pass*> untraced;
  std::vector<const Pass*> traced;
  for (const Pass& p : passes) (p.traced ? traced : untraced).push_back(&p);
  std::uint64_t misses = 0;
  std::uint64_t releases = 0;
  for (const Outcome& o : passes.front().outcomes) {
    misses += o.deadline_misses;
    releases += o.releases;
  }
  std::printf("pass wall s:");
  for (const Pass& p : passes) {
    std::printf(" %.3f%s", seconds(p.wall_ns), p.traced ? "t" : "");
  }
  std::printf("\n%zu passes (%zu traced), %llu scenario runs, %llu failed; "
              "deadline_miss_ratio %.6g, failed_ratio %.6g\n",
              passes.size(), traced.size(),
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              ratio(static_cast<double>(misses),
                    static_cast<double>(releases)),
              ratio(static_cast<double>(failed),
                    static_cast<double>(attempted)));

  Report report;
  if (trace) {
    report_layers(report, untraced, traced, tracing);
    if (!spans_path.empty()) {
      if (Status s = tracing.spans.write(spans_path); !s.is_ok()) {
        std::fprintf(stderr, "%s\n", s.message().c_str());
        ++failed;
      } else {
        std::printf("spans written to %s\n", spans_path.c_str());
      }
    }
  } else {
    report_end_to_end(report, untraced, peak_rss);
  }
  report.print_json(failed == 0, attempted, failed);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace rtcm::e2e

int main(int argc, char** argv) { return rtcm::e2e::run(argc, argv); }
