// Whole-system integration tests: assemble() vs an XML-round-tripped plan
// launch, and the paper's Figure 5 / Figure 6 orderings on reduced
// workloads.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>

#include "config/engine.h"
#include "config/plan_builder.h"
#include "config/workload_spec.h"
#include "core/runtime.h"
#include "dance/plan_xml.h"
#include "reconfig/manager.h"
#include "test_helpers.h"
#include "workload/arrival.h"
#include "workload/generator.h"

namespace rtcm {
namespace {

struct RunResult {
  double ratio = 0;
  std::uint64_t releases = 0;
  std::uint64_t rejections = 0;
  std::uint64_t completions = 0;
  std::uint64_t misses = 0;

  bool operator==(const RunResult&) const = default;
};

RunResult drive(core::SystemRuntime& rt, std::uint64_t seed, Time horizon) {
  Rng arrival_rng = Rng(seed).fork(1);
  RTCM_EXPECT_OK(rt.inject_arrivals(
      workload::generate_arrivals(rt.tasks(), horizon, arrival_rng)));
  rt.run_until(horizon + Duration::seconds(15));
  RunResult result;
  result.ratio = rt.metrics().accepted_utilization_ratio();
  result.releases = rt.metrics().total().releases;
  result.rejections = rt.metrics().total().rejections;
  result.completions = rt.metrics().total().completions;
  result.misses = rt.metrics().total().deadline_misses;
  return result;
}

RunResult run_direct(const std::string& combo, std::uint64_t seed,
                     const workload::WorkloadShape& shape, Time horizon) {
  Rng rng(seed);
  auto tasks = workload::generate_workload(shape, rng);
  core::SystemConfig config;
  config.strategies = core::StrategyCombination::parse(combo).value();
  core::SystemRuntime rt(config, std::move(tasks));
  EXPECT_TRUE(rt.assemble().is_ok());
  return drive(rt, seed, horizon);
}

// --- DAnCE pipeline equivalence ----------------------------------------------
//
// assemble() launches the plan built for the runtime's own configuration.
// The same plan written to XML, parsed back and launched with assemble(plan)
// into a fresh runtime must drive a byte-identical run.

struct TracedRun {
  RunResult result;
  std::string trace;
};

TracedRun drive_traced(core::SystemRuntime& rt, std::uint64_t seed,
                       Time horizon) {
  TracedRun run;
  run.result = drive(rt, seed, horizon);
  run.trace = rt.trace().render();
  return run;
}

/// Assemble `config` over `tasks` from `plan` (or, when null, with
/// assemble()), and separately from the XML round trip of the plan the
/// first runtime launched; both runs must match byte for byte.
void expect_round_trip_equivalent(core::SystemConfig config,
                                  const sched::TaskSet& tasks,
                                  const dance::DeploymentPlan* plan,
                                  std::uint64_t seed, Time horizon,
                                  const std::string& what) {
  SCOPED_TRACE(what);
  config.enable_trace = true;
  core::SystemRuntime direct(config, tasks);
  ASSERT_TRUE((plan == nullptr ? direct.assemble() : direct.assemble(*plan))
                  .is_ok());
  const auto parsed = dance::plan_from_xml(dance::plan_to_xml(direct.plan()));
  ASSERT_TRUE(parsed.is_ok()) << parsed.message();
  EXPECT_EQ(parsed.value(), direct.plan());

  core::SystemRuntime launched(config, tasks);
  ASSERT_TRUE(launched.assemble(parsed.value()).is_ok());
  const TracedRun a = drive_traced(direct, seed, horizon);
  const TracedRun b = drive_traced(launched, seed, horizon);
  EXPECT_EQ(a.result, b.result);
  EXPECT_GT(a.result.releases, 0u);
  // Every released job ran to completion: none was placed on a node that
  // hosts no instance of its stage.
  EXPECT_EQ(a.result.releases, a.result.completions);
  EXPECT_FALSE(a.trace.empty());
  EXPECT_TRUE(a.trace == b.trace) << "rendered traces differ";
}

TEST(DanceEquivalenceTest, PlanLaunchedSystemMatchesDirectAssembly) {
  const Time horizon(Duration::seconds(30).usec());
  const std::uint64_t seed = 23;
  Rng rng(seed);
  const auto tasks =
      workload::generate_workload(workload::random_workload_shape(), rng);
  for (const core::StrategyCombination& combo : core::valid_combinations()) {
    core::SystemConfig config;
    config.strategies = combo;
    expect_round_trip_equivalent(config, tasks, nullptr, seed, horizon,
                                 combo.label());
  }
}

TEST(DanceEquivalenceTest, DsModePlanMatchesDirectAssembly) {
  const Time horizon(Duration::seconds(30).usec());
  Rng rng(31);
  const auto tasks =
      workload::generate_workload(workload::random_workload_shape(), rng);
  core::SystemConfig config;
  config.strategies = core::StrategyCombination::parse("J_T_T").value();
  config.analysis = core::AperiodicAnalysis::kDeferrableServer;
  config.ds_server.budget = Duration::milliseconds(20);
  config.ds_server.period = Duration::milliseconds(100);
  // hop_overhead stays zero: the plan budgets comm_latency per hop.
  core::SystemRuntime probe(config, tasks);
  ASSERT_TRUE(probe.assemble().is_ok());
  const auto* ac = probe.plan().find_instance("Central-AC");
  ASSERT_NE(ac, nullptr);
  EXPECT_EQ(ac->properties.get_string("Analysis").value(), "DS");
  EXPECT_EQ(ac->properties.get_int("DS_HopOverhead").value(),
            config.comm_latency.usec());
  expect_round_trip_equivalent(config, tasks, nullptr, 31, horizon, "DS");
}

TEST(DanceEquivalenceTest, DrainedPlanMatchesOnRoundTrip) {
  // P2 hosts only replicas, and the plan drains it: it keeps its TE and IR
  // but no Subtask instance.  The launched runtime tells the AC, so even a
  // balancing strategy (LB per Job) never places a stage on P2 and the
  // workload runs on the primaries alone.
  constexpr const char* kSpec =
      "task a periodic deadline=400ms period=400ms\n"
      "  subtask exec=30ms primary=P0 replicas=P2\n"
      "  subtask exec=20ms primary=P1 replicas=P2\n"
      "task b aperiodic deadline=300ms mean_interarrival=600ms\n"
      "  subtask exec=25ms primary=P1 replicas=P0,P2\n";
  auto tasks = config::parse_workload_spec(kSpec);
  ASSERT_TRUE(tasks.is_ok()) << tasks.message();
  core::SystemConfig config;
  config.strategies = core::StrategyCombination::parse("J_N_J").value();
  config::PlanBuilderInput input =
      config::plan_input(config, tasks.value(), ProcessorId(3));
  input.drained = {ProcessorId(2)};
  const auto plan = config::build_deployment_plan(input);
  ASSERT_TRUE(plan.is_ok()) << plan.message();
  for (const auto& inst : plan.value().instances) {
    if (inst.node == ProcessorId(2)) {
      EXPECT_TRUE(inst.id == "TE@P2" || inst.id == "IR@P2") << inst.id;
    }
  }
  {
    // The AC, and a reconfiguration manager built over the runtime, start
    // from the plan's drained set.
    core::SystemRuntime runtime(config, tasks.value());
    ASSERT_TRUE(runtime.assemble(plan.value()).is_ok());
    const std::set<ProcessorId> drained = {ProcessorId(2)};
    EXPECT_EQ(runtime.admission_control()->drained(), drained);
    reconfig::ReconfigurationManager manager(runtime);
    EXPECT_EQ(manager.drained(), drained);
    // Re-deriving the live plan from the manager's state changes nothing.
    EXPECT_EQ(manager.apply_now(config::ModeChange{}).reconfigured, 0u);
    EXPECT_EQ(manager.current_plan(), plan.value());
  }
  expect_round_trip_equivalent(config, tasks.value(), &plan.value(), 5,
                               Time(Duration::seconds(20).usec()),
                               "drained P2");
}

TEST(DanceEquivalenceTest, EngineLaunchMatchesDirectAssembly) {
  // A fixed workload through the configuration engine (explicit strategies).
  constexpr const char* kSpec =
      "task a periodic deadline=400ms period=400ms\n"
      "  subtask exec=30ms primary=P0 replicas=P1\n"
      "  subtask exec=20ms primary=P1\n"
      "task b aperiodic deadline=300ms mean_interarrival=600ms\n"
      "  subtask exec=25ms primary=P1 replicas=P0\n";
  config::EngineInput input;
  input.workload_spec = kSpec;
  input.explicit_strategies = core::StrategyCombination::parse("J_J_T").value();
  const auto out = config::ConfigurationEngine().configure(input);
  ASSERT_TRUE(out.is_ok()) << out.message();

  core::SystemConfig base;
  base.enable_trace = true;
  auto launched_rt = config::ConfigurationEngine::launch(out.value(), base);
  ASSERT_TRUE(launched_rt.is_ok()) << launched_rt.message();
  const Time horizon(Duration::seconds(20).usec());
  const TracedRun launched = drive_traced(*launched_rt.value(), 99, horizon);

  auto tasks = config::parse_workload_spec(kSpec);
  ASSERT_TRUE(tasks.is_ok());
  core::SystemConfig config;
  config.enable_trace = true;
  config.strategies = core::StrategyCombination::parse("J_J_T").value();
  core::SystemRuntime direct_rt(config, std::move(tasks).value());
  ASSERT_TRUE(direct_rt.assemble().is_ok());
  EXPECT_EQ(direct_rt.plan(), out.value().plan);
  const TracedRun direct = drive_traced(direct_rt, 99, horizon);

  EXPECT_EQ(direct.result, launched.result);
  EXPECT_TRUE(direct.trace == launched.trace) << "rendered traces differ";
}

// --- Deadline-guarantee property (AUB correctness end to end) ----------------

class DeadlineGuaranteeTest
    : public ::testing::TestWithParam<std::tuple<std::string, std::uint64_t>> {
};

TEST_P(DeadlineGuaranteeTest, NoAdmittedJobMissesItsDeadline) {
  const auto& [combo, seed] = GetParam();
  const RunResult result =
      run_direct(combo, seed, workload::random_workload_shape(),
                 Time(Duration::seconds(20).usec()));
  EXPECT_EQ(result.misses, 0u);
  EXPECT_EQ(result.releases, result.completions);
  EXPECT_GT(result.releases, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    CombosAndSeeds, DeadlineGuaranteeTest,
    ::testing::Combine(::testing::Values("T_N_N", "T_T_T", "J_N_J", "J_J_N",
                                         "J_J_J"),
                       ::testing::Values(1u, 2u, 3u)),
    [](const ::testing::TestParamInfo<std::tuple<std::string, std::uint64_t>>&
           info) {
      return std::get<0>(info.param) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

// --- Jittered network --------------------------------------------------------

TEST(JitteredNetworkTest, SystemHealthyUnderLatencyVariance) {
  // Base 322 us + up to 200 us per-message jitter.  Paper-scale deadlines
  // (>= 250 ms) absorb the variance: admitted jobs still meet deadlines.
  Rng rng(31);
  auto tasks =
      workload::generate_workload(workload::random_workload_shape(), rng);
  core::SystemConfig config;
  config.strategies = core::StrategyCombination::parse("J_J_T").value();
  config.comm_jitter = Duration::microseconds(200);
  config.comm_jitter_seed = 31;
  core::SystemRuntime rt(config, std::move(tasks));
  ASSERT_TRUE(rt.assemble().is_ok());
  const RunResult result = drive(rt, 31, Time(Duration::seconds(30).usec()));
  EXPECT_GT(result.releases, 0u);
  EXPECT_EQ(result.misses, 0u);
  EXPECT_EQ(result.releases, result.completions);
}

TEST(JitteredNetworkTest, JitterModelDrivenSimulationMeetsDeadlines) {
  // Drive a full simulation whose network uses UniformJitterLatency by
  // constructing the pieces directly (the SystemConfig path uses a constant
  // model; this exercises the pluggable LatencyModel seam end to end).
  sim::Simulator simulator;
  sim::Network network(simulator,
                       std::make_unique<sim::UniformJitterLatency>(
                           Duration::microseconds(322),
                           Duration::microseconds(200), /*seed=*/5));
  Time delivered_min = Time::max();
  Time delivered_max = Time::epoch();
  int count = 0;
  for (int i = 0; i < 200; ++i) {
    network.send(ProcessorId(0), ProcessorId(1), [&] {
      delivered_min = std::min(delivered_min, simulator.now());
      delivered_max = std::max(delivered_max, simulator.now());
      ++count;
    });
  }
  simulator.run_all();
  EXPECT_EQ(count, 200);
  EXPECT_GE(delivered_min, Time(322));
  EXPECT_LE(delivered_max, Time(522));
  EXPECT_GT(delivered_max - delivered_min, Duration(50));  // jitter visible
}

// --- Figure 5 orderings (reduced) --------------------------------------------

double mean_ratio(const std::string& combo,
                  const workload::WorkloadShape& shape, int seeds) {
  double sum = 0;
  for (int seed = 1; seed <= seeds; ++seed) {
    sum += run_direct(combo, static_cast<std::uint64_t>(seed), shape,
                      Time(Duration::seconds(60).usec()))
               .ratio;
  }
  return sum / seeds;
}

TEST(Figure5ShapeTest, IrPerJobSignificantlyOutperforms) {
  const auto shape = workload::random_workload_shape();
  const double ir_none = mean_ratio("J_N_N", shape, 5);
  const double ir_task = mean_ratio("J_T_N", shape, 5);
  const double ir_job = mean_ratio("J_J_N", shape, 5);
  // Paper: enabling idle resetting increases accepted utilization, and IR
  // per job significantly outperforms IR per task and no IR.
  EXPECT_GE(ir_task, ir_none - 0.02);
  EXPECT_GT(ir_job, ir_none + 0.05);
  EXPECT_GT(ir_job, ir_task + 0.05);
}

TEST(Figure5ShapeTest, BalancedWorkloadMakesLbSecondary) {
  const auto shape = workload::random_workload_shape();
  // Paper: "the difference is small when we only change the configuration
  // of the LB component" on balanced random workloads.
  const double lb_none = mean_ratio("J_J_N", shape, 5);
  const double lb_task = mean_ratio("J_J_T", shape, 5);
  const double lb_job = mean_ratio("J_J_J", shape, 5);
  EXPECT_NEAR(lb_task, lb_none, 0.12);
  EXPECT_NEAR(lb_job, lb_none, 0.12);
}

// --- Figure 6 orderings (reduced) --------------------------------------------

TEST(Figure6ShapeTest, LoadBalancingWinsOnImbalancedWorkloads) {
  const auto shape = workload::imbalanced_workload_shape();
  // Paper: LB per task provides a significant improvement over no LB...
  for (const std::string prefix : {"T_N", "J_J"}) {
    const double none = mean_ratio(prefix + "_N", shape, 5);
    const double task = mean_ratio(prefix + "_T", shape, 5);
    EXPECT_GT(task, none + 0.05) << prefix;
    // ...and there is not much difference between LB per task and per job.
    const double job = mean_ratio(prefix + "_J", shape, 5);
    EXPECT_NEAR(job, task, 0.12) << prefix;
  }
}

// --- Poisson background plus bursty foreground -------------------------------

TEST(MixedLoadTest, BurstOverloadOnTopOfPoissonBackgroundStaysSafe) {
  // An imbalanced workload driving normal Poisson/periodic traffic, with one
  // aperiodic task additionally slammed by bursts on top of its own stream:
  // conservation and the no-miss guarantee must survive the combination.
  auto tasks = rtcm::testing::make_imbalanced_workload(55);
  TaskId bursty_task;
  for (const sched::TaskSpec& t : tasks.tasks()) {
    if (t.kind == sched::TaskKind::kAperiodic) {
      bursty_task = t.id;
      break;
    }
  }
  ASSERT_TRUE(bursty_task.valid());

  core::SystemConfig config;
  config.strategies = core::StrategyCombination::parse("J_J_J").value();
  core::SystemRuntime rt(config, std::move(tasks));
  ASSERT_TRUE(rt.assemble().is_ok());

  const Time horizon(Duration::seconds(10).usec());
  Rng arrival_rng = Rng(55).fork(1);
  auto trace = workload::generate_arrivals(rt.tasks(), horizon, arrival_rng);
  rtcm::testing::BurstShape burst;
  burst.bursts = 5;
  burst.jobs_per_burst = 15;
  burst.intra_gap = Duration::milliseconds(1);
  burst.inter_gap = Duration::seconds(2);
  const auto bursts = rtcm::testing::make_bursty_arrivals(bursty_task, burst);
  const std::uint64_t background = trace.size();
  trace.insert(trace.end(), bursts.begin(), bursts.end());
  std::stable_sort(trace.begin(), trace.end(),
                   [](const core::Arrival& a, const core::Arrival& b) {
                     return a.time < b.time;
                   });

  RTCM_EXPECT_OK(rt.inject_arrivals(trace));
  rt.run_until(horizon + Duration::seconds(15));
  const auto& total = rt.metrics().total();
  EXPECT_EQ(total.arrivals, background + 75u);
  EXPECT_EQ(total.arrivals, total.releases + total.rejections);
  EXPECT_EQ(total.releases, total.completions);
  EXPECT_EQ(total.deadline_misses, 0u);
  EXPECT_GT(total.rejections, 0u);  // the bursts must overload admission
}

}  // namespace
}  // namespace rtcm
