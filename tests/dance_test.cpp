// Deployment layer (`ctest -L deploy`): the XML reader/writer, the typed
// plan model, the plan_xml boundary (goldens captured from the plan
// builder, round trips, and one refusal per single-edit hostile input), and
// ExecutionManager launching plans into fake components.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "ccm/container.h"
#include "config/plan_builder.h"
#include "config/workload_spec.h"
#include "dance/deployment_plan.h"
#include "dance/engine.h"
#include "dance/plan_xml.h"
#include "dance/xml.h"
#include "events/federated_channel.h"
#include "sim/network.h"
#include "sim/processor.h"
#include "sim/simulator.h"
#include "sim/trace.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace rtcm::dance {
namespace {

// --- XML parser/serializer ---------------------------------------------------

TEST(XmlTest, ParsesElementsAttributesText) {
  const auto parsed = parse_xml(
      "<?xml version=\"1.0\"?>\n"
      "<root label=\"x\">\n"
      "  <child a=\"1\" b=\"two\">hello</child>\n"
      "  <child a=\"2\"/>\n"
      "</root>\n");
  ASSERT_TRUE(parsed.is_ok()) << parsed.message();
  const XmlNode& root = parsed.value();
  EXPECT_EQ(root.name, "root");
  EXPECT_EQ(root.attribute("label"), "x");
  ASSERT_EQ(root.children.size(), 2u);
  EXPECT_EQ(root.children[0].text, "hello");
  EXPECT_EQ(root.children[0].attribute("b"), "two");
  EXPECT_EQ(root.children_named("child").size(), 2u);
  EXPECT_EQ(root.child_text("child"), "hello");
  EXPECT_EQ(root.child("missing"), nullptr);
}

TEST(XmlTest, CommentsSkipped) {
  const auto parsed = parse_xml(
      "<!-- prolog comment -->\n"
      "<root><!-- inner --><x>1</x></root>");
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_EQ(parsed.value().child_text("x"), "1");
}

TEST(XmlTest, EntityEscapes) {
  const auto parsed =
      parse_xml("<r a=\"&lt;&amp;&gt;\">x &quot;y&quot; &apos;z&apos;</r>");
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_EQ(parsed.value().attribute("a"), "<&>");
  EXPECT_EQ(parsed.value().text, "x \"y\" 'z'");
}

TEST(XmlTest, SerializeRoundTrip) {
  XmlNode root;
  root.name = "Deployment:DeploymentPlan";
  root.attributes["label"] = "demo <&>";
  XmlNode child;
  child.name = "instance";
  child.attributes["id"] = "Central-AC";
  child.text = "";
  XmlNode inner;
  inner.name = "node";
  inner.text = "5";
  child.children.push_back(inner);
  root.children.push_back(child);

  const std::string xml = root.serialize();
  const auto reparsed = parse_xml(xml);
  ASSERT_TRUE(reparsed.is_ok()) << reparsed.message();
  EXPECT_EQ(reparsed.value().attribute("label"), "demo <&>");
  EXPECT_EQ(reparsed.value().children[0].child_text("node"), "5");
}

TEST(XmlTest, ErrorsCarryLineNumbers) {
  const auto r = parse_xml("<root>\n<child>\n</mismatch>\n</root>");
  EXPECT_FALSE(r.is_ok());
  EXPECT_NE(r.message().find("line 3"), std::string::npos);
}

TEST(XmlTest, RejectsMalformedDocuments) {
  EXPECT_FALSE(parse_xml("").is_ok());
  EXPECT_FALSE(parse_xml("no xml here").is_ok());
  EXPECT_FALSE(parse_xml("<a><b></a></b>").is_ok());
  EXPECT_FALSE(parse_xml("<a attr=unquoted></a>").is_ok());
  EXPECT_FALSE(parse_xml("<a>trailing</a><b/>").is_ok());
  EXPECT_FALSE(parse_xml("<a").is_ok());
}

TEST(XmlTest, XmlEscape) {
  EXPECT_EQ(xml_escape("a<b>&\"'"), "a&lt;b&gt;&amp;&quot;&apos;");
}

// --- DeploymentPlan validation -----------------------------------------------

const InstanceId kLb(ComponentKind::kLoadBalancer, ProcessorId(9));
const InstanceId kAc(ComponentKind::kAdmissionControl, ProcessorId(9));

DeploymentPlan small_plan() {
  DeploymentPlan plan;
  plan.label = "test";
  plan.instances.push_back({kLb, ccm::LbConfig{}});
  ccm::AcConfig ac;
  ac.lb = core::LbStrategy::kPerTask;
  ac.analysis = core::AperiodicAnalysis::kDeferrableServer;
  ac.ds.hop_overhead = Duration::milliseconds(2);
  plan.instances.push_back({kAc, ac});
  plan.connections.push_back({kAc, Port::kLocation, kLb});
  return plan;
}

TEST(PlanTest, ValidPlanPasses) {
  EXPECT_TRUE(small_plan().validate().is_ok());
}

TEST(PlanTest, FindInstanceAndNodes) {
  const auto plan = small_plan();
  ASSERT_NE(plan.find_instance(kAc), nullptr);
  EXPECT_EQ(plan.find_instance(kAc)->id.node, ProcessorId(9));
  EXPECT_EQ(plan.find_instance({ComponentKind::kAdmissionControl,
                                ProcessorId(8)}),
            nullptr);
}

TEST(PlanTest, RejectsEmptyPlan) {
  EXPECT_FALSE(DeploymentPlan{}.validate().is_ok());
}

TEST(PlanTest, RejectsDuplicateIds) {
  auto plan = small_plan();
  plan.instances.push_back(plan.instances[0]);
  const Status s = plan.validate();
  EXPECT_FALSE(s.is_ok());
  EXPECT_NE(s.message().find("duplicate instance 'Central-LB'"),
            std::string::npos);
}

TEST(PlanTest, RejectsMissingFields) {
  auto plan = small_plan();
  plan.instances[0].id.node = ProcessorId();
  EXPECT_FALSE(plan.validate().is_ok());

  plan = small_plan();
  plan.instances[0].config = ccm::TeConfig{};
  const Status s = plan.validate();
  EXPECT_FALSE(s.is_ok());
  EXPECT_NE(s.message().find("config of another kind"), std::string::npos);
}

TEST(PlanTest, RejectsDanglingConnections) {
  auto plan = small_plan();
  plan.connections.push_back(
      {kAc, Port::kLocation, {ComponentKind::kLoadBalancer, ProcessorId(3)}});
  EXPECT_FALSE(plan.validate().is_ok());

  // A port the endpoints do not have.
  plan = small_plan();
  plan.connections[0].port = Port::kComplete;
  const Status s = plan.validate();
  EXPECT_FALSE(s.is_ok());
  EXPECT_NE(s.message().find("'Central-AC' has no receptacle 'Complete'"),
            std::string::npos)
      << s.message();
}

// --- Plan <-> XML ------------------------------------------------------------

TEST(PlanXmlTest, RoundTripPreservesEverything) {
  const auto plan = small_plan();
  const std::string xml = plan_to_xml(plan);
  // Paper Figure 4 schema elements must appear.
  EXPECT_NE(xml.find("Deployment:DeploymentPlan"), std::string::npos);
  EXPECT_NE(xml.find("configProperty"), std::string::npos);
  EXPECT_NE(xml.find("tk_string"), std::string::npos);
  EXPECT_NE(xml.find("tk_long"), std::string::npos);
  EXPECT_NE(xml.find("<name>ac-location</name>"), std::string::npos);

  const auto reparsed = plan_from_xml(xml);
  ASSERT_TRUE(reparsed.is_ok()) << reparsed.message();
  EXPECT_EQ(reparsed.value(), plan);
  EXPECT_EQ(plan_to_xml(reparsed.value()), xml);
}

TEST(PlanXmlTest, RejectsWrongRoot) {
  EXPECT_FALSE(plan_from_xml("<NotAPlan/>").is_ok());
}

TEST(PlanXmlTest, RejectsInstanceWithoutId) {
  const auto r = plan_from_xml(
      "<Deployment:DeploymentPlan>"
      "<instance><node>1</node>"
      "<implementation>rtcm.LoadBalancer</implementation></instance>"
      "</Deployment:DeploymentPlan>");
  EXPECT_FALSE(r.is_ok());
}

TEST(PlanXmlTest, RejectsMalformedNode) {
  const auto r = plan_from_xml(
      "<Deployment:DeploymentPlan>"
      "<instance id=\"Central-LB\"><node>xyz</node>"
      "<implementation>rtcm.LoadBalancer</implementation></instance>"
      "</Deployment:DeploymentPlan>");
  EXPECT_FALSE(r.is_ok());
}

TEST(PlanXmlTest, RejectsUnknownPropertyKind) {
  const auto r = plan_from_xml(
      "<Deployment:DeploymentPlan>"
      "<instance id=\"Central-LB\"><node>1</node>"
      "<implementation>rtcm.LoadBalancer</implementation>"
      "<configProperty><name>Policy</name><value>"
      "<type><kind>tk_alien</kind></type><value><string>v</string></value>"
      "</value></configProperty></instance>"
      "</Deployment:DeploymentPlan>");
  EXPECT_FALSE(r.is_ok());
  EXPECT_NE(r.message().find("tk_alien"), std::string::npos);
}

TEST(PlanXmlTest, PaperFigure4PropertyShape) {
  // The exact nested configProperty structure from the paper's Figure 4.
  const auto r = plan_from_xml(
      "<Deployment:DeploymentPlan label=\"fig4\">"
      "<instance id=\"Central-AC\">"
      "<node>5</node>"
      "<implementation>rtcm.AdmissionControl</implementation>"
      "<configProperty>"
      "<name>LB_Strategy</name>"
      "<value><type><kind>tk_string</kind></type>"
      "<value><string>PT</string></value></value>"
      "</configProperty>"
      "</instance>"
      "</Deployment:DeploymentPlan>");
  ASSERT_TRUE(r.is_ok()) << r.message();
  const InstanceDeployment* ac = r.value().find_instance(
      {ComponentKind::kAdmissionControl, ProcessorId(5)});
  ASSERT_NE(ac, nullptr);
  // LB_Strategy as written; every other property at its default.
  ccm::AcConfig expected;
  expected.lb = core::LbStrategy::kPerTask;
  EXPECT_EQ(std::get<ccm::AcConfig>(ac->config), expected);
}

// --- Goldens: XML captured from the plan builder -----------------------------
//
// tests/data/plans/ holds plan_to_xml(build_deployment_plan(...)) for a
// Figure 5 AUB cell, a DS plan and a drained plan, as the string-attribute
// plan model emitted them.  The typed model must emit them byte for byte and
// parse each back to the same plan.

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

ProcessorId manager_for(const sched::TaskSet& tasks) {
  std::int32_t max_id = 0;
  for (const ProcessorId p : tasks.processors()) {
    max_id = std::max(max_id, p.value());
  }
  return ProcessorId(max_id + 1);
}

struct Golden {
  std::string file;
  DeploymentPlan plan;
};

std::vector<Golden> goldens() {
  std::vector<Golden> out;
  {
    Rng rng(1);
    const auto tasks =
        workload::generate_workload(workload::random_workload_shape(), rng);
    core::SystemConfig config;
    config.strategies = core::StrategyCombination::parse("J_J_T").value();
    out.push_back({"fig5_aub.xml",
                   config::build_deployment_plan(
                       config::plan_input(config, tasks, manager_for(tasks)))
                       .value()});
  }
  {
    Rng rng(31);
    const auto tasks =
        workload::generate_workload(workload::random_workload_shape(), rng);
    core::SystemConfig config;
    config.strategies = core::StrategyCombination::parse("J_T_T").value();
    config.analysis = core::AperiodicAnalysis::kDeferrableServer;
    config.ds_server.budget = Duration::milliseconds(20);
    config.ds_server.period = Duration::milliseconds(100);
    out.push_back({"ds.xml",
                   config::build_deployment_plan(
                       config::plan_input(config, tasks, manager_for(tasks)))
                       .value()});
  }
  {
    const auto tasks = config::parse_workload_spec(
                           "task a periodic deadline=400ms period=400ms\n"
                           "  subtask exec=30ms primary=P0 replicas=P2\n"
                           "  subtask exec=20ms primary=P1 replicas=P2\n"
                           "task b aperiodic deadline=300ms "
                           "mean_interarrival=600ms\n"
                           "  subtask exec=25ms primary=P1 replicas=P0,P2\n")
                           .value();
    core::SystemConfig config;
    config.strategies = core::StrategyCombination::parse("J_N_J").value();
    auto input = config::plan_input(config, tasks, ProcessorId(3));
    input.drained = {ProcessorId(2)};
    out.push_back(
        {"drained.xml", config::build_deployment_plan(input).value()});
  }
  return out;
}

TEST(PlanGoldenTest, BuilderPlansEmitTheCapturedXmlByteForByte) {
  for (const Golden& golden : goldens()) {
    SCOPED_TRACE(golden.file);
    const std::string expected =
        read_file(std::string(RTCM_PLAN_DIR) + "/" + golden.file);
    ASSERT_FALSE(expected.empty());
    EXPECT_TRUE(plan_to_xml(golden.plan) == expected)
        << "emitted XML differs from the golden";
  }
}

TEST(PlanGoldenTest, GoldensRoundTripThroughParseAndEmit) {
  for (const Golden& golden : goldens()) {
    SCOPED_TRACE(golden.file);
    const std::string xml =
        read_file(std::string(RTCM_PLAN_DIR) + "/" + golden.file);
    const auto parsed = plan_from_xml(xml);
    ASSERT_TRUE(parsed.is_ok()) << parsed.message();
    EXPECT_EQ(parsed.value(), golden.plan);
    EXPECT_TRUE(plan_to_xml(parsed.value()) == xml);
  }
}

// --- Hostile XML: one edit each, one Status each -----------------------------

/// One task, one stage on P0 (a Last Subtask), the task manager on P1.
std::string tiny_xml() {
  sched::TaskSet tasks;
  sched::TaskSpec task;
  task.id = TaskId(0);
  task.deadline = Duration::milliseconds(100);
  task.period = Duration::milliseconds(100);
  sched::SubtaskSpec stage;
  stage.primary = ProcessorId(0);
  stage.execution = Duration::milliseconds(10);
  task.subtasks.push_back(stage);
  EXPECT_TRUE(tasks.add(task).is_ok());
  config::PlanBuilderInput input;
  input.tasks = &tasks;
  input.task_manager = ProcessorId(1);
  return plan_to_xml(config::build_deployment_plan(input).value());
}

/// Replace the first occurrence of `from`.
std::string edit(std::string xml, const std::string& from,
                 const std::string& to) {
  const auto pos = xml.find(from);
  EXPECT_NE(pos, std::string::npos) << from;
  if (pos != std::string::npos) xml.replace(pos, from.size(), to);
  return xml;
}

/// Drop the configProperty named `name` (its first occurrence).
std::string without_property(std::string xml, const std::string& name) {
  const auto at = xml.find("<name>" + name + "</name>");
  const auto begin = xml.rfind("<configProperty>", at);
  const auto end = xml.find("</configProperty>", at);
  EXPECT_NE(at, std::string::npos) << name;
  if (at != std::string::npos) {
    xml.erase(begin, end + std::string("</configProperty>").size() - begin);
  }
  return xml;
}

/// Set the value text of the first property named `name`.
std::string with_value(std::string xml, const std::string& name,
                       const std::string& value) {
  const auto at = xml.find("<name>" + name + "</name>");
  EXPECT_NE(at, std::string::npos) << name;
  if (at == std::string::npos) return xml;
  // <value><type>...</type><value><long|string>TEXT</...></value></value>
  const auto inner = xml.find("<value>", xml.find("</type>", at));
  const auto open = xml.find('>', xml.find('<', inner + 7)) + 1;
  const auto close = xml.find("</", open);
  return xml.replace(open, close - open, value);
}

/// Repeat the <instance> element whose id is `id`.
std::string duplicated(std::string xml, const std::string& id) {
  const auto begin = xml.find("<instance id=\"" + id + "\">");
  const auto end = xml.find("</instance>", begin) + 11;
  return xml.insert(end, "\n" + xml.substr(begin, end - begin));
}

struct HostileCase {
  std::string what;
  std::string xml;
  /// Every one must appear in the refusal.
  std::vector<std::string> names;
};

TEST(PlanXmlHostileTest, EverySingleEditIsRefusedWithAStatus) {
  const std::string base = tiny_xml();
  ASSERT_TRUE(plan_from_xml(base).is_ok());
  const std::vector<HostileCase> cases = {
      {"unknown implementation",
       edit(base, "rtcm.TaskEffector", "rtcm.TaskAffector"),
       {"TE@P0", "rtcm.TaskAffector"}},
      {"property the kind does not have",
       edit(base, "<name>TE_Mode</name>", "<name>IR_Mode</name>"),
       {"TE@P0", "'IR_Mode'", "rtcm.TaskEffector"}},
      {"wrong tk kind",
       edit(base, "<kind>tk_long</kind>", "<kind>tk_double</kind>"),
       {"Central-LB", "'Seed'", "tk_double"}},
      {"unsupported tk kind",
       edit(base, "<kind>tk_string</kind>", "<kind>tk_alien</kind>"),
       {"Central-LB", "'Policy'", "tk_alien"}},
      {"missing required property", without_property(base, "Priority"),
       {"T0_S0@P0", "'Priority'"}},
      {"missing stage", without_property(base, "Stage"),
       {"T0_S0@P0", "'Stage'"}},
      {"strategy spelling", with_value(base, "TE_Mode", "PX"),
       {"TE@P0", "'TE_Mode'", "PX"}},
      {"malformed long", with_value(base, "Priority", "high"),
       {"T0_S0@P0", "'Priority'", "high"}},
      {"unknown LB policy", with_value(base, "Policy", "fastest"),
       {"Central-LB", "'Policy'", "fastest"}},
      {"stage out of range", with_value(base, "Stage", "4294967295"),
       {"'Stage'", "out of range"}},
      {"id disagrees with the identity",
       edit(base, "id=\"TE@P0\"", "id=\"TE@P7\""),
       {"TE@P7", "TE@P0"}},
      {"ProcessorID disagrees with the node",
       with_value(base, "ProcessorID", "3"), {"TE@P0", "'ProcessorID'"}},
      {"duplicate identity", duplicated(base, "IR@P0"),
       {"duplicate instance 'IR@P0'"}},
      {"port the endpoints do not have",
       edit(edit(base, "port=\"Location\"", "port=\"Complete\""),
            "port=\"Location\"", "port=\"Complete\""),
       {"Central-AC", "no receptacle 'Complete'"}},
      {"unknown port", edit(edit(base, "port=\"Complete\"", "port=\"Done\""),
                            "port=\"Complete\"", "port=\"Done\""),
       {"T0_S0@P0", "'Done'"}},
      {"facet and receptacle ports differ",
       edit(base, "port=\"Location\"", "port=\"Complete\""),
       {"Central-LB", "Complete", "Location"}},
      {"connection to an unknown instance",
       edit(base, "instance=\"Central-LB\"", "instance=\"Central-XX\""),
       {"Central-XX"}},
  };
  for (const HostileCase& c : cases) {
    SCOPED_TRACE(c.what);
    ASSERT_NE(c.xml, base);
    const auto parsed = plan_from_xml(c.xml);
    ASSERT_FALSE(parsed.is_ok());
    for (const std::string& name : c.names) {
      EXPECT_NE(parsed.message().find(name), std::string::npos)
          << "'" << name << "' missing from: " << parsed.message();
    }
  }
}

// --- ExecutionManager --------------------------------------------------------

/// Minimal component pair for launch-path tests: a fake IR providing the
/// Complete facet through a Pingable, and a fake Last Subtask whose Complete
/// receptacle wants one.
class Pingable {
 public:
  virtual ~Pingable() = default;
  virtual int ping() = 0;
};

class PingProvider : public ccm::Component, public Pingable {
 public:
  PingProvider() : Component(ComponentKind::kIdleResetter) {}
  int ping() override { return 1; }
};

/// Provides the Complete facet by kind but lacks the Pingable interface.
class FakePingProvider : public ccm::Component {
 public:
  FakePingProvider() : Component(ComponentKind::kIdleResetter) {}
};

class PingUser : public ccm::Component {
 public:
  PingUser() : Component(ComponentKind::kSubtaskLast) {}
  Status connect(Port port, ccm::Component& provider) override {
    if (port == Port::kComplete) return bind(ping_, port, provider);
    return Component::connect(port, provider);
  }
  Pingable* ping_ = nullptr;

 protected:
  Status on_configure(const ccm::ComponentConfig& config) override {
    if (std::get<ccm::SubtaskConfig>(config).execution <= Duration::zero()) {
      return Status::error("poisoned configuration");
    }
    return Status::ok();
  }
};

const InstanceId kProvider(ComponentKind::kIdleResetter, ProcessorId(0));
const InstanceId kUser(ComponentKind::kSubtaskLast, ProcessorId(1), TaskId(0),
                       0);

/// A deployment target creating the fakes with a switch on kind.
struct LaunchFixture : ::testing::Test, DeploymentTarget {
  LaunchFixture()
      : network(sim, std::make_unique<sim::ConstantLatency>(Duration(10))),
        federation(sim, network),
        cpu0(sim, ProcessorId(0)),
        cpu1(sim, ProcessorId(1)),
        container0(ccm::ContainerContext{sim, network, federation, cpu0, trace,
                                         ProcessorId(0)}),
        container1(ccm::ContainerContext{sim, network, federation, cpu1, trace,
                                         ProcessorId(1)}) {}

  ccm::Container* resolve(ProcessorId node) {
    if (node == ProcessorId(0)) return &container0;
    if (node == ProcessorId(1)) return &container1;
    return nullptr;
  }

  Result<ccm::Component*> install(const InstanceDeployment& inst) override {
    using R = Result<ccm::Component*>;
    ccm::Container* container = resolve(inst.id.node);
    if (container == nullptr) {
      return R::error("no container available for node " +
                      inst.id.node.to_string());
    }
    std::unique_ptr<ccm::Component> component;
    switch (inst.id.kind) {
      case ComponentKind::kIdleResetter:
        if (fake_provider) {
          component = std::make_unique<FakePingProvider>();
        } else {
          component = std::make_unique<PingProvider>();
        }
        break;
      case ComponentKind::kSubtaskLast:
        component = std::make_unique<PingUser>();
        break;
      default:
        return R::error("no fake for instance '" + inst.id.to_string() + "'");
    }
    ccm::Component* raw = component.get();
    if (Status s = dance::install(*container, inst, std::move(component));
        !s.is_ok()) {
      return R::error(s.message());
    }
    return raw;
  }

  ccm::Component* find(const InstanceId& id) override {
    ccm::Container* container = resolve(id.node);
    return container == nullptr ? nullptr : container->find(id);
  }

  DeploymentPlan ping_plan() {
    DeploymentPlan plan;
    plan.label = "ping";
    plan.instances.push_back({kProvider, ccm::IrConfig{}});
    plan.instances.push_back(
        {kUser, ccm::SubtaskConfig{Duration::milliseconds(1), Priority(0),
                                   core::IrStrategy::kNone}});
    plan.connections.push_back({kUser, Port::kComplete, kProvider});
    return plan;
  }

  sim::Simulator sim;
  sim::Trace trace;
  sim::Network network;
  events::FederatedEventChannel federation;
  sim::Processor cpu0;
  sim::Processor cpu1;
  ccm::Container container0;
  ccm::Container container1;
  bool fake_provider = false;
};

TEST_F(LaunchFixture, LaunchInstallsConfiguresAndWires) {
  const auto report = ExecutionManager::launch(ping_plan(), *this);
  ASSERT_TRUE(report.is_ok()) << report.message();
  EXPECT_EQ(report.value().instances_installed, 2u);
  EXPECT_EQ(report.value().connections_wired, 1u);
  EXPECT_EQ(container0.size(), 1u);
  EXPECT_EQ(container1.size(), 1u);

  auto* user = container1.find_as<PingUser>(kUser);
  ASSERT_NE(user, nullptr);
  ASSERT_NE(user->ping_, nullptr);
  EXPECT_EQ(user->ping_->ping(), 1);
  EXPECT_EQ(user->state(), ccm::LifecycleState::kConfigured);
}

TEST_F(LaunchFixture, UnknownComponentTypeFails) {
  // The typed plan names kinds, so an unknown implementation can only come
  // from the descriptor, and plan_from_xml refuses it before any launch.
  const std::string xml = plan_to_xml(ping_plan());
  const auto plan =
      plan_from_xml(edit(xml, "rtcm.IdleResetter", "rtcm.DoesNotExist"));
  ASSERT_FALSE(plan.is_ok());
  EXPECT_NE(plan.message().find("DoesNotExist"), std::string::npos);
  EXPECT_EQ(container0.size(), 0u);
}

TEST_F(LaunchFixture, UnknownNodeFails) {
  auto plan = ping_plan();
  plan.instances[0].id.node = ProcessorId(9);
  plan.connections[0].target.node = ProcessorId(9);
  const auto report = ExecutionManager::launch(plan, *this);
  EXPECT_FALSE(report.is_ok());
  EXPECT_NE(report.message().find("P9"), std::string::npos);
}

TEST_F(LaunchFixture, ConfigurationFailureAborts) {
  auto plan = ping_plan();
  std::get<ccm::SubtaskConfig>(plan.instances[1].config).execution =
      Duration::zero();
  const auto report = ExecutionManager::launch(plan, *this);
  EXPECT_FALSE(report.is_ok());
  EXPECT_NE(report.message().find("poisoned"), std::string::npos);
  // The failing instance was never installed.
  EXPECT_EQ(container1.find(kUser), nullptr);
}

TEST_F(LaunchFixture, UnknownFacetFails) {
  // The Complete receptacle pointed at a kind without the Complete facet.
  auto plan = ping_plan();
  plan.instances.push_back(
      {{ComponentKind::kTaskEffector, ProcessorId(0)}, ccm::TeConfig{}});
  plan.connections[0].target = plan.instances.back().id;
  const auto report = ExecutionManager::launch(plan, *this);
  EXPECT_FALSE(report.is_ok());
  EXPECT_NE(report.message().find("has no facet 'Complete'"),
            std::string::npos)
      << report.message();
  EXPECT_EQ(container0.size(), 0u);
}

TEST_F(LaunchFixture, UnknownReceptacleFails) {
  auto plan = ping_plan();
  plan.connections[0].port = Port::kLocation;
  const auto report = ExecutionManager::launch(plan, *this);
  EXPECT_FALSE(report.is_ok());
  EXPECT_NE(report.message().find("no receptacle 'Location'"),
            std::string::npos)
      << report.message();
}

TEST_F(LaunchFixture, WrongInterfaceFails) {
  // A target of the right kind whose class lacks the receptacle's interface
  // is refused by the dynamic_cast check.
  fake_provider = true;
  const auto report = ExecutionManager::launch(ping_plan(), *this);
  EXPECT_FALSE(report.is_ok());
  EXPECT_NE(report.message().find("lacks the required interface"),
            std::string::npos);
}

TEST_F(LaunchFixture, XmlPlanParsesAndLaunches) {
  const auto plan = plan_from_xml(plan_to_xml(ping_plan()));
  ASSERT_TRUE(plan.is_ok()) << plan.message();
  EXPECT_EQ(plan.value(), ping_plan());
  const auto report = ExecutionManager::launch(plan.value(), *this);
  ASSERT_TRUE(report.is_ok()) << report.message();
  EXPECT_EQ(report.value().instances_installed, 2u);
  EXPECT_NE(container0.find(kProvider), nullptr);
}

TEST_F(LaunchFixture, InvalidPlanFailsBeforeInstalling) {
  // launch() is the one place a plan from outside is validated.
  auto plan = ping_plan();
  plan.connections[0].target = {ComponentKind::kIdleResetter, ProcessorId(5)};
  const auto report = ExecutionManager::launch(plan, *this);
  EXPECT_FALSE(report.is_ok());
  EXPECT_NE(report.message().find("IR@P5"), std::string::npos);
  EXPECT_EQ(container0.size(), 0u);
}

}  // namespace
}  // namespace rtcm::dance
