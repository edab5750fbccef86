// Differential test of the arrival timeline.
//
// SystemRuntime::inject_arrivals puts a trace on the simulator's arrival
// timeline: no event slot, callback or heap entry per arrival.  The
// reference here is what injection did before the timeline existed: one
// closure per arrival, scheduled through simulator().schedule_at, that
// hands the job to the task's arrival TE, with job ids assigned in trace
// order.  Each arrival consumes one seq either way, so the two runs must
// dispatch the same events in the same order: the rendered traces must be
// byte-identical, and so must the event counts and metrics.
//
// Coverage: the 15 Figure-5 combinations, the huge topology, a burst
// overload under the drain-storm reconfiguration script, and one
// deferrable-server cell, all at seed 1.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/runtime.h"
#include "reconfig/manager.h"
#include "scenario/library.h"
#include "scenario/scenario.h"
#include "sweep/sweep.h"
#include "util/rng.h"
#include "workload/arrival.h"
#include "workload/burst.h"
#include "workload/generator.h"

namespace rtcm {
namespace {

struct Run {
  std::string trace;
  std::uint64_t executed = 0;
  std::size_t pending = 0;
  std::uint64_t arrivals = 0;
  std::uint64_t releases = 0;
  std::uint64_t completions = 0;
  std::uint64_t reconfig_applied = 0;
};

/// scenario::run_scenario with tracing on; `timeline` chooses whether the
/// arrivals go through inject_arrivals or one closure each.
Run run(scenario::ScenarioSpec spec, bool timeline) {
  spec.config.enable_trace = true;
  Rng rng(spec.seed);
  sched::TaskSet tasks = workload::generate_workload(spec.workload.shape, rng);
  core::SystemRuntime runtime(spec.config, std::move(tasks));
  EXPECT_TRUE(runtime.assemble().is_ok());
  std::unique_ptr<reconfig::ReconfigurationManager> manager;
  if (!spec.reconfig.empty()) {
    manager = std::make_unique<reconfig::ReconfigurationManager>(runtime);
    EXPECT_TRUE(manager->schedule_script(spec.reconfig).is_ok());
  }
  Rng arrival_rng = rng.fork(1);
  const Time horizon = Time::epoch() + spec.horizon;
  const std::vector<core::Arrival> arrivals =
      spec.arrivals.kind == scenario::ArrivalModel::Kind::kBursty
          ? workload::generate_bursty_arrivals(
                runtime.tasks(), horizon, spec.arrivals.burst, arrival_rng)
          : workload::generate_arrivals(runtime.tasks(), horizon,
                                        arrival_rng);
  EXPECT_FALSE(arrivals.empty());
  if (timeline) {
    EXPECT_TRUE(runtime.inject_arrivals(arrivals).is_ok());
  } else {
    std::int32_t next_job = 0;
    for (const core::Arrival& a : arrivals) {
      core::TaskEffector* te = runtime.arrival_effector(a.task);
      const JobId job(next_job++);
      runtime.simulator().schedule_at(
          a.time, [te, task = a.task, job] { te->job_arrived(task, job); });
    }
  }
  runtime.run_until(horizon + spec.drain);

  Run out;
  out.trace = runtime.trace().render();
  out.executed = runtime.simulator().executed();
  out.pending = runtime.simulator().pending();
  const core::TaskMetrics& total = runtime.metrics().total();
  out.arrivals = total.arrivals;
  out.releases = total.releases;
  out.completions = total.completions;
  if (manager) out.reconfig_applied = manager->applied_count();
  return out;
}

Run expect_equivalent(const scenario::ScenarioSpec& spec) {
  SCOPED_TRACE(spec.name);
  const Run timeline = run(spec, true);
  const Run closures = run(spec, false);
  EXPECT_GT(timeline.arrivals, 0u);
  EXPECT_GT(timeline.completions, 0u);
  EXPECT_EQ(timeline.executed, closures.executed);
  EXPECT_EQ(timeline.pending, closures.pending);
  EXPECT_EQ(timeline.arrivals, closures.arrivals);
  EXPECT_EQ(timeline.releases, closures.releases);
  EXPECT_EQ(timeline.completions, closures.completions);
  EXPECT_EQ(timeline.reconfig_applied, closures.reconfig_applied);
  EXPECT_FALSE(timeline.trace.empty());
  EXPECT_TRUE(timeline.trace == closures.trace) << "rendered traces differ";
  return timeline;
}

scenario::ScenarioSpec cell(const std::string& combo,
                            const sweep::ShapeSpec& shape,
                            const sweep::SweepParams& params) {
  auto spec = sweep::cell_spec({combo, shape.name, "", 1}, shape.shape, params);
  EXPECT_TRUE(spec.is_ok()) << spec.message();
  return std::move(spec).value();
}

/// Every combination of a library grid at seed 1.
std::vector<scenario::ScenarioSpec> grid(const std::string& name) {
  auto entry = scenario::find_grid(name);
  EXPECT_TRUE(entry.is_ok()) << entry.message();
  std::vector<scenario::ScenarioSpec> specs;
  if (!entry.is_ok()) return specs;
  const sweep::ShapeSpec& shape = entry.value().grid.shapes.front();
  for (const core::StrategyCombination& combo : entry.value().grid.combos) {
    specs.push_back(cell(combo.label(), shape, entry.value().params));
  }
  return specs;
}

TEST(ArrivalTimelineEquivalenceTest, Fig5AllCombos) {
  const auto specs = grid("fig5");
  ASSERT_EQ(specs.size(), 15u);
  for (const scenario::ScenarioSpec& spec : specs) expect_equivalent(spec);
}

TEST(ArrivalTimelineEquivalenceTest, HugeTopology) {
  const auto specs = grid("huge-topology");
  ASSERT_FALSE(specs.empty());
  for (const scenario::ScenarioSpec& spec : specs) expect_equivalent(spec);
}

// 8 processors, 240 tasks of 1-3 stages, 20 bursts of 8 jobs per
// aperiodic task, and a strategy swap, LB policy swap, drain and undrain
// at 30, 45, 60 and 80% of the horizon.
TEST(ArrivalTimelineEquivalenceTest, BurstOverloadStorm) {
  workload::WorkloadShape shape;
  for (std::int32_t p = 0; p < 8; ++p) {
    shape.primary_processors.push_back(ProcessorId(p));
  }
  shape.periodic_tasks = 60;
  shape.aperiodic_tasks = 180;
  shape.min_subtasks = 1;
  shape.max_subtasks = 3;
  shape.min_deadline = Duration::seconds(2);
  shape.max_deadline = Duration::seconds(10);
  shape.per_processor_utilization = 0.5;

  sweep::SweepParams params;
  workload::BurstShape burst;
  burst.bursts = 20;
  burst.jobs_per_burst = 8;
  burst.intra_gap = Duration::milliseconds(5);
  burst.inter_gap = Duration::seconds(4);
  params.base.arrivals = scenario::ArrivalModel::bursty(burst);
  scenario::ScenarioSpec spec = cell("J_J_J", {"dense-8p", shape}, params);

  const auto at = [&spec](std::int64_t percent) {
    return Time::epoch() + Duration(spec.horizon.usec() * percent / 100);
  };
  const ProcessorId drained(7);
  spec.reconfig.resize(4);
  spec.reconfig[0].at = at(30);
  spec.reconfig[0].label = "go-J_N_J";
  spec.reconfig[0].strategies =
      core::StrategyCombination::parse("J_N_J").value();
  spec.reconfig[1].at = at(45);
  spec.reconfig[1].label = "lb-primary";
  spec.reconfig[1].lb_policy = "primary";
  spec.reconfig[2].at = at(60);
  spec.reconfig[2].label = "drain";
  spec.reconfig[2].drain = {drained};
  spec.reconfig[3].at = at(80);
  spec.reconfig[3].label = "undrain";
  spec.reconfig[3].undrain = {drained};
  EXPECT_EQ(expect_equivalent(spec).reconfig_applied, spec.reconfig.size());
}

TEST(ArrivalTimelineEquivalenceTest, DeferrableServerCell) {
  auto entry = scenario::find_grid("fig5");
  ASSERT_TRUE(entry.is_ok()) << entry.message();
  scenario::ScenarioSpec spec = cell(
      "J_T_T", entry.value().grid.shapes.front(), entry.value().params);
  spec.config.analysis = core::AperiodicAnalysis::kDeferrableServer;
  spec.config.ds_server.budget = Duration::milliseconds(20);
  spec.config.ds_server.period = Duration::milliseconds(100);
  expect_equivalent(spec);
}

}  // namespace
}  // namespace rtcm
