// Scenario API: spec validation, deterministic JSON round trips, builder
// ergonomics, library determinism, and the headline contract — a sweep
// whose cells are round-tripped through their JSON form is byte-identical
// to the direct sweep.  `ctest -L scenario` selects this layer.
#include <chrono>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "scenario/builder.h"
#include "scenario/library.h"
#include "scenario/scenario.h"
#include "sweep/report.h"
#include "sweep/sweep.h"
#include "test_helpers.h"

namespace rtcm {
namespace {

scenario::ScenarioSpec small_generated_spec() {
  scenario::ScenarioSpec spec;
  spec.name = "small-generated";
  spec.seed = 3;
  spec.horizon = Duration::seconds(10);
  spec.drain = Duration::seconds(5);
  spec.config.strategies = core::StrategyCombination::parse("J_T_N").value();
  spec.workload = scenario::WorkloadSpec::generated(
      workload::random_workload_shape());
  return spec;
}

scenario::ScenarioSpec explicit_spec() {
  auto built =
      scenario::ScenarioBuilder("explicit")
          .task(scenario::TaskBuilder::periodic(0, "pipeline",
                                                Duration::milliseconds(400))
                    .stage(Duration::milliseconds(30), 0, {1})
                    .stage(Duration::milliseconds(20), 1))
          .task(scenario::TaskBuilder::aperiodic(1, "alert",
                                                 Duration::milliseconds(300))
                    .mean_interarrival(Duration::milliseconds(900))
                    .stage(Duration::milliseconds(25), 1, {0}))
          .strategies("J_J_T")
          .horizon(Duration::seconds(5))
          .drain(Duration::seconds(2))
          .build();
  EXPECT_TRUE(built.is_ok()) << built.message();
  return built.value();
}

// --- Validation --------------------------------------------------------------

TEST(ScenarioValidation, AcceptsDefaultedGeneratedSpec) {
  EXPECT_TRUE(scenario::validate(small_generated_spec()).is_ok());
}

TEST(ScenarioValidation, RejectsNegativeLatencies) {
  auto spec = small_generated_spec();
  spec.config.comm_latency = Duration::microseconds(-1);
  const Status s = scenario::validate(spec);
  EXPECT_FALSE(s.is_ok());
  EXPECT_NE(s.message().find("comm_latency"), std::string::npos);

  spec = small_generated_spec();
  spec.config.comm_jitter = Duration::microseconds(-5);
  EXPECT_NE(scenario::validate(spec).message().find("comm_jitter"),
            std::string::npos);

  spec = small_generated_spec();
  spec.config.loopback_latency = Duration::microseconds(-5);
  EXPECT_NE(scenario::validate(spec).message().find("loopback_latency"),
            std::string::npos);
}

TEST(ScenarioValidation, RejectsUnknownLbPolicy) {
  auto spec = small_generated_spec();
  spec.config.lb_policy = "round-robin";
  const Status s = scenario::validate(spec);
  EXPECT_FALSE(s.is_ok());
  EXPECT_NE(s.message().find("round-robin"), std::string::npos);
}

TEST(ScenarioValidation, RejectsBadHorizonAndDrain) {
  auto spec = small_generated_spec();
  spec.horizon = Duration::zero();
  EXPECT_FALSE(scenario::validate(spec).is_ok());
  spec = small_generated_spec();
  spec.drain = Duration::microseconds(-1);
  EXPECT_FALSE(scenario::validate(spec).is_ok());
}

TEST(ScenarioValidation, RejectsDegenerateGeneratedShape) {
  auto spec = small_generated_spec();
  spec.workload.shape.per_processor_utilization = 1.5;
  EXPECT_FALSE(scenario::validate(spec).is_ok());
  spec = small_generated_spec();
  spec.workload.shape.primary_processors.clear();
  EXPECT_FALSE(scenario::validate(spec).is_ok());
  spec = small_generated_spec();
  spec.workload.shape.max_subtasks = 0;
  EXPECT_FALSE(scenario::validate(spec).is_ok());
}

TEST(ScenarioValidation, RejectsSeedsBeyondJsonExactRange) {
  // json::Value stores numbers as doubles; a seed past 2^53 would come back
  // changed from a round trip, so validation refuses it up front.
  auto spec = small_generated_spec();
  spec.seed = (1ull << 53) + 1;
  const Status s = scenario::validate(spec);
  EXPECT_FALSE(s.is_ok());
  EXPECT_NE(s.message().find("2^53"), std::string::npos);

  spec = small_generated_spec();
  spec.config.lb_seed = (1ull << 60);
  EXPECT_FALSE(scenario::validate(spec).is_ok());
  spec = small_generated_spec();
  spec.config.comm_jitter_seed = ~0ull;
  EXPECT_FALSE(scenario::validate(spec).is_ok());
  spec = small_generated_spec();
  spec.seed = 1ull << 53;  // exactly representable
  EXPECT_TRUE(scenario::validate(spec).is_ok());
}

TEST(ScenarioValidation, RejectsEmptyExplicitWorkload) {
  scenario::ScenarioSpec spec = small_generated_spec();
  spec.workload = scenario::WorkloadSpec::explicit_tasks(sched::TaskSet{});
  EXPECT_FALSE(scenario::validate(spec).is_ok());
}

TEST(ScenarioValidation, RejectsInvalidReconfigStrategySwap) {
  auto spec = small_generated_spec();
  config::ModeChange change;
  change.at = Time(Duration::seconds(1).usec());
  change.label = "bad-swap";
  core::StrategyCombination invalid;
  invalid.ac = core::AcStrategy::kPerTask;
  invalid.ir = core::IrStrategy::kPerJob;  // the contradictory pairing
  change.strategies = invalid;
  spec.reconfig.push_back(change);
  const Status s = scenario::validate(spec);
  EXPECT_FALSE(s.is_ok());
  EXPECT_NE(s.message().find("bad-swap"), std::string::npos);
}

// --- SystemConfig validation at assemble time (core::validate_config) -------

TEST(SystemConfigValidation, AssembleRejectsNegativeCommLatency) {
  core::SystemConfig config;
  config.comm_latency = Duration::microseconds(-10);
  core::SystemRuntime runtime(config, testing::make_imbalanced_workload(1));
  const Status s = runtime.assemble();
  EXPECT_FALSE(s.is_ok());
  EXPECT_NE(s.message().find("comm_latency"), std::string::npos);
}

TEST(SystemConfigValidation, AssembleRejectsUnknownLbPolicy) {
  core::SystemConfig config;
  config.lb_policy = "mystery";
  core::SystemRuntime runtime(config, testing::make_imbalanced_workload(1));
  const Status s = runtime.assemble();
  EXPECT_FALSE(s.is_ok());
  EXPECT_NE(s.message().find("mystery"), std::string::npos);
}

TEST(SystemConfigValidation, RejectsMalformedDeferrableServer) {
  core::SystemConfig config;
  config.analysis = core::AperiodicAnalysis::kDeferrableServer;
  config.ds_server.budget = Duration::milliseconds(200);
  config.ds_server.period = Duration::milliseconds(100);
  EXPECT_FALSE(core::validate_config(config).is_ok());
  config.ds_server.budget = Duration::zero();
  EXPECT_FALSE(core::validate_config(config).is_ok());
  config.ds_server.budget = Duration::milliseconds(20);
  EXPECT_TRUE(core::validate_config(config).is_ok());
}

TEST(SystemConfigValidation, NegativeJitterAndLoopbackAreRejected) {
  core::SystemConfig config;
  config.comm_jitter = Duration::microseconds(-1);
  EXPECT_FALSE(core::validate_config(config).is_ok());
  config = core::SystemConfig{};
  config.loopback_latency = Duration::microseconds(-1);
  EXPECT_FALSE(core::validate_config(config).is_ok());
  EXPECT_TRUE(core::validate_config(core::SystemConfig{}).is_ok());
}

// --- JSON round trip ---------------------------------------------------------

TEST(ScenarioJson, GeneratedSpecRoundTripIsFixedPoint) {
  const auto spec = small_generated_spec();
  const std::string bytes = scenario::to_json(spec).dump();
  // Serialization is deterministic: same spec, same bytes.
  EXPECT_EQ(bytes, scenario::to_json(spec).dump());

  const auto restored = scenario::spec_from_text(bytes);
  ASSERT_TRUE(restored.is_ok()) << restored.message();
  EXPECT_EQ(scenario::to_json(restored.value()).dump(), bytes);
  EXPECT_EQ(restored.value().name, spec.name);
  EXPECT_EQ(restored.value().seed, spec.seed);
  EXPECT_EQ(restored.value().config.strategies.label(), "J_T_N");
}

TEST(ScenarioJson, ExplicitSpecRoundTripPreservesTasks) {
  const auto spec = explicit_spec();
  const std::string bytes = scenario::to_json(spec).dump();
  const auto restored = scenario::spec_from_text(bytes);
  ASSERT_TRUE(restored.is_ok()) << restored.message();
  EXPECT_EQ(scenario::to_json(restored.value()).dump(), bytes);

  const sched::TaskSet& tasks = restored.value().workload.tasks;
  ASSERT_EQ(tasks.size(), 2u);
  EXPECT_EQ(tasks.find(TaskId(0))->name, "pipeline");
  EXPECT_EQ(tasks.find(TaskId(0))->subtasks.size(), 2u);
  EXPECT_EQ(tasks.find(TaskId(1))->kind, sched::TaskKind::kAperiodic);
  EXPECT_EQ(tasks.find(TaskId(1))->mean_interarrival,
            Duration::milliseconds(900));
}

TEST(ScenarioJson, ArrivalModelsAndReconfigRoundTrip) {
  auto spec = small_generated_spec();
  workload::BurstShape burst;
  burst.bursts = 5;
  burst.jobs_per_burst = 7;
  burst.intra_gap = Duration::milliseconds(3);
  spec.arrivals = scenario::ArrivalModel::bursty(burst);
  spec.reconfig = testing::ReconfigScriptBuilder()
                      .swap_strategies(Time(Duration::seconds(2).usec()),
                                       "J_N_J")
                      .drain(Time(Duration::seconds(3).usec()), 4)
                      .undrain(Time(Duration::seconds(6).usec()), 4)
                      .build();
  const std::string bytes = scenario::to_json(spec).dump();
  const auto restored = scenario::spec_from_text(bytes);
  ASSERT_TRUE(restored.is_ok()) << restored.message();
  EXPECT_EQ(scenario::to_json(restored.value()).dump(), bytes);
  EXPECT_EQ(restored.value().arrivals.kind,
            scenario::ArrivalModel::Kind::kBursty);
  EXPECT_EQ(restored.value().arrivals.burst.jobs_per_burst, 7u);
  ASSERT_EQ(restored.value().reconfig.size(), 3u);
  EXPECT_EQ(restored.value().reconfig[0].strategies->label(), "J_N_J");
  ASSERT_EQ(restored.value().reconfig[1].drain.size(), 1u);
  EXPECT_EQ(restored.value().reconfig[1].drain[0], ProcessorId(4));

  // Explicit arrival traces round-trip too.
  spec = explicit_spec();
  spec.arrivals = scenario::ArrivalModel::explicit_trace(
      {{TaskId(0), Time(0)}, {TaskId(1), Time(1000)}});
  const std::string trace_bytes = scenario::to_json(spec).dump();
  const auto trace_restored = scenario::spec_from_text(trace_bytes);
  ASSERT_TRUE(trace_restored.is_ok()) << trace_restored.message();
  EXPECT_EQ(scenario::to_json(trace_restored.value()).dump(), trace_bytes);
  ASSERT_EQ(trace_restored.value().arrivals.trace.size(), 2u);
  EXPECT_EQ(trace_restored.value().arrivals.trace[1].time, Time(1000));
}

TEST(ScenarioJson, ParseRejectsGarbage) {
  EXPECT_FALSE(scenario::spec_from_text("not json").is_ok());
  EXPECT_FALSE(scenario::spec_from_text("{}").is_ok());  // no schema_version
  EXPECT_FALSE(
      scenario::spec_from_text(R"({"schema_version": 99})").is_ok());
  // Unknown strategy labels are refused, not defaulted.
  auto doc = scenario::to_json(small_generated_spec());
  json::Value config = doc.get("config");
  config.set("strategies", "X_Y_Z");
  doc.set("config", config);
  EXPECT_FALSE(scenario::spec_from_json(doc).is_ok());
}

TEST(ScenarioJson, HostileShapeCountsFailWithStatus) {
  // Single-field edits to scenarios/fig5_random_cell.json that once aborted
  // the process with std::length_error: a task count far past any real
  // grid, and a negative count that a cast turned into SIZE_MAX.
  const auto with_shape_field = [](const char* field, std::int64_t value) {
    json::Value doc = scenario::to_json(small_generated_spec());
    json::Value workload = doc.get("workload");
    json::Value shape = workload.get("shape");
    shape.set(field, value);
    workload.set("shape", shape);
    doc.set("workload", workload);
    return doc;
  };

  const auto huge = scenario::spec_from_json(
      with_shape_field("periodic_tasks", 1000000000000000000));
  ASSERT_TRUE(huge.is_ok()) << huge.message();
  const Status huge_status = scenario::validate(huge.value());
  EXPECT_FALSE(huge_status.is_ok());
  EXPECT_NE(huge_status.message().find("tasks"), std::string::npos)
      << huge_status.message();
  EXPECT_FALSE(scenario::run_scenario(huge.value()).is_ok());

  for (const char* field : {"periodic_tasks", "aperiodic_tasks",
                            "min_subtasks", "max_subtasks"}) {
    const auto negative = scenario::spec_from_json(with_shape_field(field, -1));
    ASSERT_FALSE(negative.is_ok()) << field;
    EXPECT_NE(negative.message().find(field), std::string::npos)
        << negative.message();
  }

  auto spec = small_generated_spec();
  spec.workload.shape.max_subtasks = 1000000000000000000;
  EXPECT_FALSE(scenario::validate(spec).is_ok());
}

TEST(ScenarioJson, HostileBurstCountsFailWithStatus) {
  // The edit to scenarios/bursty_overload.json that once grew RSS without
  // bound ("bursts": 10^15), a product that overflows 64 bits, and one just
  // past the bound; each must be refused before any arrival is generated.
  const auto with_burst = [](std::int64_t bursts, std::int64_t jobs) {
    auto spec = small_generated_spec();
    spec.arrivals = scenario::ArrivalModel::bursty(workload::BurstShape{});
    json::Value doc = scenario::to_json(spec);
    json::Value arrivals = doc.get("arrivals");
    arrivals.set("bursts", bursts);
    arrivals.set("jobs_per_burst", jobs);
    doc.set("arrivals", arrivals);
    auto parsed = scenario::spec_from_json(doc);
    EXPECT_TRUE(parsed.is_ok()) << parsed.message();
    return std::move(parsed).value();
  };
  for (const auto& [bursts, jobs] :
       {std::pair<std::int64_t, std::int64_t>{1000000000000000, 8},
        {std::int64_t{1} << 62, 8},
        {8, std::int64_t{1} << 62},
        {1001, 100}}) {
    const auto spec = with_burst(bursts, jobs);
    const Status status = scenario::validate(spec);
    ASSERT_FALSE(status.is_ok()) << bursts << " x " << jobs;
    EXPECT_NE(status.message().find("jobs per aperiodic task"),
              std::string::npos)
        << status.message();
    EXPECT_FALSE(scenario::run_scenario(spec).is_ok());
  }
  // The library's largest burst layout (burst-overload's 20 x 8) and the
  // bound itself stay valid.
  EXPECT_TRUE(scenario::validate(with_burst(20, 8)).is_ok());
  EXPECT_TRUE(scenario::validate(with_burst(1000, 100)).is_ok());
}

TEST(ScenarioJson, HostileHorizonFailsWithStatus) {
  // The edit to scenarios/fig5_random_cell.json that once ran for ~49 s and
  // then died with std::bad_alloc: a 10^18 us horizon over 250 ms release
  // gaps.  The arrival trace is sized from the spec and refused before any
  // arrival is generated.
  std::ifstream file(RTCM_SCENARIO_DIR "/fig5_random_cell.json");
  std::stringstream text;
  text << file.rdbuf();
  const auto fixture = json::Value::parse(text.str());
  ASSERT_TRUE(fixture.is_ok()) << fixture.message();
  const auto fixture_spec = scenario::spec_from_json(fixture.value());
  ASSERT_TRUE(fixture_spec.is_ok()) << fixture_spec.message();
  EXPECT_TRUE(scenario::validate(fixture_spec.value()).is_ok());

  json::Value doc = fixture.value();
  doc.set("horizon_us", std::int64_t{1000000000000000000});
  const auto spec = scenario::spec_from_json(doc);
  ASSERT_TRUE(spec.is_ok()) << spec.message();
  const auto started = std::chrono::steady_clock::now();
  const auto run = scenario::run_scenario(spec.value());
  EXPECT_LT(std::chrono::steady_clock::now() - started,
            std::chrono::seconds(1));
  ASSERT_FALSE(run.is_ok());
  EXPECT_NE(run.message().find("arrivals"), std::string::npos) << run.message();

  // An interarrival factor that rounds every mean gap to zero would never
  // leave the generator's loop.
  auto zero_gap = fixture_spec.value();
  zero_gap.workload.shape.aperiodic_interarrival_factor = 1e-9;
  const Status status = scenario::validate(zero_gap);
  ASSERT_FALSE(status.is_ok());
  EXPECT_NE(status.message().find("release gaps"), std::string::npos)
      << status.message();
}

// --- Running -----------------------------------------------------------------

TEST(ScenarioRun, GeneratedSpecProducesMetricsAndRuntime) {
  auto result = scenario::run_scenario(small_generated_spec());
  ASSERT_TRUE(result.is_ok()) << result.message();
  const scenario::ScenarioResult& outcome = result.value();
  EXPECT_GT(outcome.accept_ratio, 0.0);
  EXPECT_LE(outcome.accept_ratio, 1.0);
  EXPECT_GT(outcome.arrivals, 0u);
  ASSERT_NE(outcome.runtime, nullptr);
  EXPECT_TRUE(outcome.runtime->assembled());
  EXPECT_EQ(outcome.runtime->config().strategies.label(), "J_T_N");
}

TEST(ScenarioRun, RunIsDeterministicInTheSpec) {
  const auto spec = small_generated_spec();
  auto first = scenario::run_scenario(spec);
  auto second = scenario::run_scenario(spec);
  ASSERT_TRUE(first.is_ok());
  ASSERT_TRUE(second.is_ok());
  EXPECT_EQ(first.value().accept_ratio, second.value().accept_ratio);
  EXPECT_EQ(first.value().arrivals, second.value().arrivals);
  EXPECT_EQ(first.value().completions, second.value().completions);
  EXPECT_EQ(first.value().deadline_misses, second.value().deadline_misses);
}

TEST(ScenarioRun, ExplicitTraceArrivalsAreReplayedVerbatim) {
  auto spec = explicit_spec();
  spec.arrivals = scenario::ArrivalModel::explicit_trace(
      {{TaskId(0), Time(0)},
       {TaskId(1), Time(Duration::milliseconds(50).usec())},
       {TaskId(0), Time(Duration::milliseconds(400).usec())}});
  auto result = scenario::run_scenario(spec);
  ASSERT_TRUE(result.is_ok()) << result.message();
  EXPECT_EQ(result.value().arrivals, 3u);
}

TEST(ScenarioRun, NoneArrivalModelRunsZeroJobs) {
  auto spec = explicit_spec();
  spec.arrivals = scenario::ArrivalModel::none();
  auto result = scenario::run_scenario(spec);
  ASSERT_TRUE(result.is_ok()) << result.message();
  EXPECT_EQ(result.value().arrivals, 0u);
  EXPECT_EQ(result.value().accept_ratio, 1.0);  // nothing arrived
}

TEST(ScenarioRun, BurstyModelStressesAdmission) {
  auto spec = small_generated_spec();
  workload::BurstShape burst;
  burst.bursts = 3;
  burst.jobs_per_burst = 10;
  spec.arrivals = scenario::ArrivalModel::bursty(burst);
  auto result = scenario::run_scenario(spec);
  ASSERT_TRUE(result.is_ok()) << result.message();
  // 4 aperiodic tasks x 30 burst jobs, plus the periodic releases.
  EXPECT_GE(result.value().arrivals, 120u);
  // Run is a pure function of the spec even under bursts.
  auto again = scenario::run_scenario(spec);
  ASSERT_TRUE(again.is_ok());
  EXPECT_EQ(result.value().completions, again.value().completions);
}

TEST(ScenarioRun, ReconfigScriptRunsInsideTheScenario) {
  auto spec = small_generated_spec();
  spec.workload = scenario::WorkloadSpec::generated(
      workload::imbalanced_workload_shape());
  spec.reconfig = testing::ReconfigScriptBuilder()
                      .swap_lb_policy(Time(Duration::seconds(2).usec()),
                                      "primary")
                      .swap_strategies(Time(Duration::seconds(4).usec()),
                                       "J_N_J")
                      .build();
  auto result = scenario::run_scenario(spec);
  ASSERT_TRUE(result.is_ok()) << result.message();
  EXPECT_EQ(result.value().reconfig_applied, 2u);
  EXPECT_EQ(result.value().reconfig_rejected, 0u);
  ASSERT_EQ(result.value().reconfig_history.size(), 2u);
  EXPECT_TRUE(result.value().reconfig_history[0].applied);
  EXPECT_EQ(result.value().runtime->config().strategies.label(), "J_N_J");
}

TEST(ScenarioRun, ManagerOutlivesRunForFurtherDriving) {
  // A mode change scheduled past horizon+drain is still pending inside the
  // returned runtime's simulator when run() finishes; the result owns the
  // manager, so driving the runtime further dispatches it safely (ASan
  // guards the lifetime) and the late step applies.
  auto spec = small_generated_spec();  // horizon 10s + drain 5s
  config::ModeChange late;
  late.at = Time(Duration::seconds(20).usec());
  late.label = "late-swap";
  late.lb_policy = "primary";
  spec.reconfig = {late};
  auto result = scenario::run_scenario(spec);
  ASSERT_TRUE(result.is_ok()) << result.message();
  EXPECT_EQ(result.value().reconfig_applied, 0u);
  ASSERT_NE(result.value().reconfig_manager, nullptr);

  result.value().runtime->run_for(Duration::seconds(10));
  EXPECT_EQ(result.value().reconfig_manager->applied_count(), 1u);
}

TEST(ScenarioRun, InvalidSpecFailsCleanly) {
  auto spec = small_generated_spec();
  spec.config.lb_policy = "nope";
  EXPECT_FALSE(scenario::run_scenario(spec).is_ok());
}

// --- Builders ----------------------------------------------------------------

TEST(ScenarioBuilder, CollectsBadStrategyLabel) {
  const auto built = scenario::ScenarioBuilder("bad").strategies("Q_Q_Q")
                         .workload(workload::random_workload_shape())
                         .build();
  EXPECT_FALSE(built.is_ok());
  EXPECT_NE(built.message().find("bad"), std::string::npos);
}

TEST(ScenarioBuilder, CollectsWorkloadSpecParseErrors) {
  const auto built = scenario::ScenarioBuilder("bad-spec")
                         .workload_spec_text("task ???")
                         .build();
  EXPECT_FALSE(built.is_ok());
}

TEST(ScenarioBuilder, TaskBuilderMatchesHandWrittenSpec) {
  const sched::TaskSpec built =
      scenario::TaskBuilder::periodic(7, "conveyor",
                                      Duration::milliseconds(200))
          .stage(Duration::milliseconds(10), 1, {0, 2})
          .build();
  EXPECT_EQ(built.id, TaskId(7));
  EXPECT_EQ(built.period, Duration::milliseconds(200));  // defaults to D
  ASSERT_EQ(built.subtasks.size(), 1u);
  EXPECT_EQ(built.subtasks[0].primary, ProcessorId(1));
  ASSERT_EQ(built.subtasks[0].replicas.size(), 2u);
  EXPECT_TRUE(sched::TaskSet::validate(built).is_ok());
}

// --- Sweep integration: round-tripped specs are byte-identical ---------------

sweep::Report report_of(std::vector<sweep::CellResult> cells) {
  sweep::Report report;
  report.name = "fig5";
  report.git_sha = "test";
  report.cells = std::move(cells);
  return report;
}

TEST(ScenarioSweep, RoundTrippedFigure5GridIsByteIdenticalToDirectSweep) {
  const auto entry = scenario::find_grid("fig5");
  ASSERT_TRUE(entry.is_ok());
  sweep::Grid grid = entry.value().grid;
  grid.seeds = 2;
  sweep::SweepParams params = entry.value().params;
  params.base.horizon = Duration::seconds(10);
  params.base.drain = Duration::seconds(5);

  const auto direct = sweep::run_sweep(grid, params);

  // Re-run every cell from its serialized spec: JSON -> spec -> run.
  std::vector<sweep::CellResult> replayed;
  for (const sweep::Cell& cell : grid.cells()) {
    const auto spec =
        sweep::cell_spec(cell, grid.shapes[0].shape, params);
    ASSERT_TRUE(spec.is_ok()) << spec.message();
    const std::string bytes = scenario::to_json(spec.value()).dump();
    const auto restored = scenario::spec_from_text(bytes);
    ASSERT_TRUE(restored.is_ok()) << restored.message();
    auto outcome = scenario::run_scenario(restored.value());
    ASSERT_TRUE(outcome.is_ok()) << outcome.message();
    sweep::CellResult result;
    result.cell = cell;
    result.accept_ratio = outcome.value().accept_ratio;
    result.deadline_misses = outcome.value().deadline_misses;
    result.aperiodic_response_ms = outcome.value().aperiodic_response_ms;
    result.reconfig_applied = outcome.value().reconfig_applied;
    result.reconfig_rejected = outcome.value().reconfig_rejected;
    replayed.push_back(std::move(result));
  }

  EXPECT_EQ(report_of(direct).deterministic_dump(),
            report_of(std::move(replayed)).deterministic_dump());
}

// --- Library -----------------------------------------------------------------

TEST(ScenarioLibrary, EveryEntryRunsCleanAndDeterministically) {
  for (const scenario::NamedGrid& entry : scenario::library()) {
    sweep::Grid grid = entry.grid;
    grid.seeds = 1;
    sweep::SweepParams params = entry.params;
    params.base.horizon = Duration::seconds(5);
    params.base.drain = Duration::seconds(2);

    const auto first = sweep::run_sweep(grid, params);
    const auto second = sweep::run_sweep(grid, params);
    ASSERT_EQ(first.size(), grid.cells().size()) << entry.name;
    for (const auto& cell : first) {
      EXPECT_TRUE(cell.error.empty())
          << entry.name << ": " << cell.error;
    }
    sweep::Report a;
    a.name = entry.name;
    a.cells = first;
    sweep::Report b;
    b.name = entry.name;
    b.cells = second;
    EXPECT_EQ(a.deterministic_dump(), b.deterministic_dump()) << entry.name;
  }
}

TEST(ScenarioLibrary, HugeTopologyRunsCleanAndDeterministically) {
  // The admission-index scale entry: 80 processors and 240 tasks per cell —
  // far beyond the paper's 5-node runs.  One seed, shortened horizon; the
  // run must stay error-free, exercise real admission traffic, and remain
  // byte-deterministic across reruns (the incremental index must not
  // introduce any ordering sensitivity).
  const auto entry = scenario::find_grid("huge-topology");
  ASSERT_TRUE(entry.is_ok());
  sweep::Grid grid = entry.value().grid;
  grid.seeds = 1;
  sweep::SweepParams params = entry.value().params;
  params.base.horizon = Duration::seconds(10);
  params.base.drain = Duration::seconds(2);

  const auto first = sweep::run_sweep(grid, params);
  const auto second = sweep::run_sweep(grid, params);
  ASSERT_EQ(first.size(), grid.cells().size());
  for (const auto& cell : first) {
    ASSERT_TRUE(cell.error.empty()) << cell.error;
    EXPECT_GT(cell.accept_ratio, 0.0) << cell.cell.combo;
    EXPECT_LE(cell.accept_ratio, 1.0) << cell.cell.combo;
  }
  sweep::Report a;
  a.name = entry.value().name;
  a.cells = first;
  sweep::Report b;
  b.name = entry.value().name;
  b.cells = second;
  EXPECT_EQ(a.deterministic_dump(), b.deterministic_dump());
}

TEST(ScenarioLibrary, FindGridReportsKnownNames) {
  EXPECT_TRUE(scenario::find_grid("bursty").is_ok());
  EXPECT_TRUE(scenario::find_grid("drain-storm").is_ok());
  EXPECT_TRUE(scenario::find_grid("long-horizon").is_ok());
  EXPECT_TRUE(scenario::find_grid("huge-topology").is_ok());
  const auto missing = scenario::find_grid("fig7");
  EXPECT_FALSE(missing.is_ok());
  EXPECT_NE(missing.message().find("fig5"), std::string::npos);
  EXPECT_GE(scenario::library_names().size(), 7u);
}

TEST(ScenarioLibrary, DrainStormCellsApplyTheirScript) {
  const auto entry = scenario::find_grid("drain-storm");
  ASSERT_TRUE(entry.is_ok());
  sweep::Grid grid = entry.value().grid;
  grid.seeds = 1;
  sweep::SweepParams params = entry.value().params;
  params.base.horizon = Duration::seconds(10);
  params.base.drain = Duration::seconds(5);
  const auto results = sweep::run_sweep(grid, params);
  bool saw_storm = false;
  for (const auto& cell : results) {
    ASSERT_TRUE(cell.error.empty()) << cell.error;
    if (cell.cell.variant == "storm") {
      saw_storm = true;
      EXPECT_GE(cell.reconfig_applied + cell.reconfig_rejected, 1u);
    } else {
      EXPECT_EQ(cell.reconfig_applied, 0u);
    }
  }
  EXPECT_TRUE(saw_storm);
}

}  // namespace
}  // namespace rtcm
