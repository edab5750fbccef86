// Differential test of keyed event routing.
//
// Before subscriptions carried keys, every consumer registered a predicate
// and the federation ran every predicate of every channel on every push.
// Those predicates live on here, verbatim, as a reference router: a
// RouteObserver shadows every push of whole scenario runs and checks that
// the keyed router picked exactly the channels the predicates pick, in the
// same send order, and that each channel's consumers (in call order) are
// exactly the subscriptions whose predicates accept the event.
//
// Coverage: all 15 Figure-5 combos, the huge topology, and the drain-storm
// reconfiguration script (strategy swap, policy swap, drain and undrain),
// which passivates Subtask instances mid-run, plus a mid-run install of a
// fresh Subtask instance — so the tables change under the router and the
// reference follows them.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/subtask_component.h"
#include "dance/deployment_plan.h"
#include "events/federated_channel.h"
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

using events::AcceptPayload;
using events::Event;
using events::EventType;
using events::LocalEventChannel;
using events::RejectPayload;
using events::SubscriptionId;
using events::SubscriptionKey;
using events::TriggerPayload;

using EventFilter = std::function<bool(const Event&)>;

/// The predicate each production subscription registered before keys;
/// null accepts every event of the subscription's type.
EventFilter reference_filter(const SubscriptionKey& key, ProcessorId me) {
  if (key == SubscriptionKey(key.type)) return nullptr;
  if (key == SubscriptionKey(EventType::kAccept).to_this_processor()) {
    // TaskEffector, Accept.
    return [me](const Event& e) {
      const auto& p = events::payload_as<AcceptPayload>(e);
      return p.arrival_processor == me ||
             (!p.placement.empty() && p.placement.front() == me);
    };
  }
  if (key == SubscriptionKey(EventType::kReject).to_this_processor()) {
    // TaskEffector, Reject.
    return [me](const Event& e) {
      return events::payload_as<RejectPayload>(e).arrival_processor == me;
    };
  }
  if (key.type == EventType::kTrigger && key.addressed && key.task.valid() &&
      key.stage != SubscriptionKey::kAnyStage) {
    // Subtask components.
    const TaskId task = key.task;
    const std::size_t stage = key.stage;
    return [task, stage, me](const Event& e) {
      const auto& p = events::payload_as<TriggerPayload>(e);
      return p.task == task && p.stage == stage &&
             stage < p.placement.size() && p.placement[stage] == me;
    };
  }
  ADD_FAILURE() << "no reference predicate for a production key of type "
                << events::to_string(key.type);
  return [](const Event&) { return false; };
}

/// Shadows every push with the predicate router over the same tables.
class ShadowRouter final : public events::RouteObserver {
 public:
  ShadowRouter(events::FederatedEventChannel& federation,
               std::vector<ProcessorId> processors)
      : federation_(federation) {
    std::sort(processors.begin(), processors.end());
    for (const ProcessorId p : processors) {
      tables_.push_back(Table{&federation.channel(p), {}});
    }
    channel_count_ = federation.channel_count();
    for (Table& table : tables_) refresh(table);
  }

  void routed(const Event& event,
              std::span<LocalEventChannel* const> sent_to) override {
    ++pushes_;
    // The reference examines every channel; one it cannot see would make
    // the comparison vacuous.
    if (federation_.channel_count() != channel_count_) {
      fail(event, "a channel appeared that the reference does not see");
      return;
    }
    std::size_t next = 0;
    for (Table& table : tables_) {
      if (table.channel->subscription_count() != table.entries.size()) {
        refresh(table);
      }
      expected_.clear();
      for (const Entry& entry : table.entries) {
        if (entry.type == event.type() &&
            (!entry.filter || entry.filter(event))) {
          expected_.push_back(entry.id);
        }
      }
      if (expected_.empty()) continue;
      if (next == sent_to.size() || sent_to[next] != table.channel) {
        fail(event, "destination " + table.channel->processor().to_string() +
                        " missing or out of send order");
        return;
      }
      ++next;
      table.channel->consumers(event, actual_);
      if (actual_ != expected_) {
        fail(event, "consumer order differs on " +
                        table.channel->processor().to_string());
        return;
      }
      ++deliveries_;
    }
    if (next != sent_to.size()) fail(event, "extra destinations");
  }

  [[nodiscard]] std::uint64_t pushes() const { return pushes_; }
  [[nodiscard]] std::uint64_t deliveries() const { return deliveries_; }
  [[nodiscard]] std::uint64_t mismatches() const { return mismatches_; }
  /// Tables re-read because subscriptions changed after assembly.
  [[nodiscard]] std::uint64_t table_changes() const { return changes_; }

 private:
  struct Entry {
    SubscriptionId id;
    EventType type;
    EventFilter filter;
  };
  struct Table {
    LocalEventChannel* channel;
    std::vector<Entry> entries;  // subscription order
  };

  // Production never unsubscribes, so a changed count means new entries.
  void refresh(Table& table) {
    if (!table.entries.empty()) ++changes_;
    table.entries.clear();
    for (const auto& [id, key] : table.channel->subscriptions()) {
      table.entries.push_back(
          {id, key.type, reference_filter(key, table.channel->processor())});
    }
  }

  void fail(const Event& event, const std::string& what) {
    if (mismatches_++ < 5) ADD_FAILURE() << event.to_string() << ": " << what;
  }

  events::FederatedEventChannel& federation_;
  std::vector<Table> tables_;
  std::size_t channel_count_ = 0;
  std::vector<SubscriptionId> expected_;
  std::vector<SubscriptionId> actual_;
  std::uint64_t pushes_ = 0;
  std::uint64_t deliveries_ = 0;
  std::uint64_t mismatches_ = 0;
  std::uint64_t changes_ = 0;
};

struct ShadowedRun {
  std::uint64_t pushes = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t table_changes = 0;
  std::uint64_t reconfig_applied = 0;
};

/// Mid-run, install a copy of the first Subtask instance under a new id on
/// a node that is not among its stage's candidates: a fresh component
/// subscribes while events flow, and no placement ever addresses it.
void install_extra_subtask(reconfig::ReconfigurationManager& manager,
                           const core::SystemRuntime& runtime) {
  dance::DeploymentPlan target = manager.current_plan();
  for (const dance::InstanceDeployment& inst : target.instances) {
    if (inst.type != core::FirstIntermediateSubtask::kTypeName &&
        inst.type != core::LastSubtask::kTypeName) {
      continue;
    }
    const sched::TaskSpec* task = runtime.tasks().find(TaskId(
        static_cast<std::int32_t>(inst.properties.get_int_or(
            core::SubtaskComponentBase::kTaskAttr, -1))));
    ASSERT_NE(task, nullptr);
    const std::vector<ProcessorId> candidates =
        task->subtasks[static_cast<std::size_t>(inst.properties.get_int_or(
                           core::SubtaskComponentBase::kStageAttr, 0))]
            .candidates();
    dance::InstanceDeployment extra = inst;
    extra.id += "-extra";
    for (const ProcessorId p : runtime.app_processors()) {
      if (std::find(candidates.begin(), candidates.end(), p) ==
          candidates.end()) {
        extra.node = p;
      }
    }
    ASSERT_NE(extra.node, inst.node);
    target.instances.push_back(std::move(extra));
    break;
  }
  const reconfig::ReconfigReport report =
      manager.apply_plan_now(target, "install-extra");
  EXPECT_TRUE(report.applied) << report.error;
  EXPECT_EQ(report.added, 1u);
}

/// scenario::run_scenario with a ShadowRouter installed once assembly is
/// done (assembly pushes nothing).  With `install_at`, a Subtask instance
/// is also installed at that time (install_extra_subtask).
ShadowedRun run_shadowed(const scenario::ScenarioSpec& spec,
                         std::optional<Time> install_at = std::nullopt) {
  Rng rng(spec.seed);
  sched::TaskSet tasks =
      spec.workload.kind == scenario::WorkloadSpec::Kind::kGenerated
          ? workload::generate_workload(spec.workload.shape, rng)
          : spec.workload.tasks;
  core::SystemRuntime runtime(spec.config, std::move(tasks));
  EXPECT_TRUE(runtime.assemble().is_ok());
  std::vector<ProcessorId> processors = runtime.app_processors();
  processors.push_back(runtime.task_manager());
  ShadowRouter shadow(runtime.federation(), processors);
  runtime.federation().set_route_observer(&shadow);

  std::unique_ptr<reconfig::ReconfigurationManager> manager;
  if (!spec.reconfig.empty()) {
    manager = std::make_unique<reconfig::ReconfigurationManager>(runtime);
    EXPECT_TRUE(manager->schedule_script(spec.reconfig).is_ok());
  }
  if (install_at) {
    if (!manager) {
      manager = std::make_unique<reconfig::ReconfigurationManager>(runtime);
    }
    runtime.simulator().schedule_at(*install_at, [&] {
      install_extra_subtask(*manager, runtime);
    });
  }
  Rng arrival_rng = rng.fork(1);
  const Time horizon = Time::epoch() + spec.horizon;
  std::vector<core::Arrival> arrivals;
  if (spec.arrivals.kind == scenario::ArrivalModel::Kind::kBursty) {
    arrivals = workload::generate_bursty_arrivals(
        runtime.tasks(), horizon, spec.arrivals.burst, arrival_rng);
  } else {
    arrivals =
        workload::generate_arrivals(runtime.tasks(), horizon, arrival_rng);
  }
  EXPECT_TRUE(runtime.inject_arrivals(arrivals).is_ok());
  runtime.run_until(horizon + spec.drain);
  runtime.federation().set_route_observer(nullptr);

  ShadowedRun out;
  out.pushes = shadow.pushes();
  out.deliveries = shadow.deliveries();
  out.mismatches = shadow.mismatches();
  out.table_changes = shadow.table_changes();
  if (manager) out.reconfig_applied = manager->applied_count();
  const events::FederationStats& stats = runtime.federation().stats();
  EXPECT_EQ(out.pushes, stats.events_pushed);
  EXPECT_EQ(out.deliveries, stats.local_deliveries + stats.remote_deliveries);
  return out;
}

/// Every (combo, variant) cell of a library grid on `seed`.
std::vector<scenario::ScenarioSpec> grid_specs(const std::string& name,
                                               std::uint64_t seed,
                                               const std::string& variant) {
  auto entry = scenario::find_grid(name);
  EXPECT_TRUE(entry.is_ok()) << entry.message();
  std::vector<scenario::ScenarioSpec> specs;
  if (!entry.is_ok()) return specs;
  const sweep::ShapeSpec& shape = entry.value().grid.shapes.front();
  for (const core::StrategyCombination& combo : entry.value().grid.combos) {
    const sweep::Cell cell{combo.label(), shape.name, variant, seed};
    auto spec = sweep::cell_spec(cell, shape.shape, entry.value().params);
    EXPECT_TRUE(spec.is_ok()) << spec.message();
    if (spec.is_ok()) specs.push_back(std::move(spec).value());
  }
  return specs;
}

TEST(RoutingEquivalenceTest, Fig5AllCombos) {
  const auto specs = grid_specs("fig5", 3, "");
  ASSERT_EQ(specs.size(), 15u);
  for (const scenario::ScenarioSpec& spec : specs) {
    const ShadowedRun run = run_shadowed(spec);
    EXPECT_EQ(run.mismatches, 0u) << spec.name;
    EXPECT_GT(run.deliveries, 0u) << spec.name;
  }
}

TEST(RoutingEquivalenceTest, HugeTopology) {
  const auto specs = grid_specs("huge-topology", 1, "");
  ASSERT_FALSE(specs.empty());
  for (const scenario::ScenarioSpec& spec : specs) {
    const ShadowedRun run = run_shadowed(spec);
    EXPECT_EQ(run.mismatches, 0u) << spec.name;
    EXPECT_GT(run.deliveries, 0u) << spec.name;
  }
}

TEST(RoutingEquivalenceTest, ReconfigurationStorm) {
  const auto specs = grid_specs("drain-storm", 1, "storm");
  ASSERT_FALSE(specs.empty());
  std::uint64_t table_changes = 0;
  for (const scenario::ScenarioSpec& spec : specs) {
    ASSERT_FALSE(spec.reconfig.empty());
    // Between the policy swap (45%) and the drain (60%).
    const ShadowedRun run = run_shadowed(
        spec, Time::epoch() + Duration(spec.horizon.usec() / 2));
    EXPECT_EQ(run.mismatches, 0u) << spec.name;
    EXPECT_EQ(run.reconfig_applied, spec.reconfig.size() + 1) << spec.name;
    table_changes += run.table_changes;
  }
  // The storm must actually change the tables under the router.
  EXPECT_GT(table_changes, 0u);
}

// With keys, the router examines only channels that take the event: on a
// Figure-5 run every examined channel is delivered to.
TEST(RoutingEquivalenceTest, Fig5VisitsOnlyDeliveringChannels) {
  const auto specs = grid_specs("fig5", 1, "");
  ASSERT_FALSE(specs.empty());
  auto result = scenario::run_scenario(specs.back());
  ASSERT_TRUE(result.is_ok()) << result.message();
  const events::FederationStats& stats =
      result.value().runtime->federation().stats();
  EXPECT_GT(stats.channel_visits, 0u);
  EXPECT_EQ(stats.channel_visits,
            stats.local_deliveries + stats.remote_deliveries);
}

}  // namespace
}  // namespace rtcm
