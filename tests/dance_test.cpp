#include <gtest/gtest.h>

#include "ccm/container.h"
#include "ccm/factory.h"
#include "dance/deployment_plan.h"
#include "dance/engine.h"
#include "dance/plan_xml.h"
#include "dance/xml.h"
#include "events/federated_channel.h"
#include "sim/network.h"
#include "sim/processor.h"
#include "sim/simulator.h"
#include "sim/trace.h"

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

DeploymentPlan small_plan() {
  DeploymentPlan plan;
  plan.label = "test";
  InstanceDeployment lb;
  lb.id = "LB";
  lb.type = "rtcm.LoadBalancer";
  lb.node = ProcessorId(9);
  plan.instances.push_back(lb);
  InstanceDeployment ac;
  ac.id = "AC";
  ac.type = "rtcm.AdmissionControl";
  ac.node = ProcessorId(9);
  ac.properties.set_string("AC_Strategy", "PT");
  ac.properties.set_int("SomeNumber", 42);
  ac.properties.set_bool("SomeFlag", true);
  plan.instances.push_back(ac);
  plan.connections.push_back(
      ConnectionDeployment{"ac-loc", "AC", "Location", "LB", "Location"});
  return plan;
}

TEST(PlanTest, ValidPlanPasses) {
  EXPECT_TRUE(small_plan().validate().is_ok());
}

TEST(PlanTest, FindInstanceAndNodes) {
  const auto plan = small_plan();
  EXPECT_NE(plan.find_instance("AC"), nullptr);
  EXPECT_EQ(plan.find_instance("ZZ"), nullptr);
  EXPECT_EQ(plan.nodes(), (std::vector<ProcessorId>{ProcessorId(9)}));
}

TEST(PlanTest, RejectsEmptyPlan) {
  EXPECT_FALSE(DeploymentPlan{}.validate().is_ok());
}

TEST(PlanTest, RejectsDuplicateIds) {
  auto plan = small_plan();
  plan.instances.push_back(plan.instances[0]);
  EXPECT_FALSE(plan.validate().is_ok());
}

TEST(PlanTest, RejectsMissingFields) {
  auto plan = small_plan();
  plan.instances[0].type.clear();
  EXPECT_FALSE(plan.validate().is_ok());

  plan = small_plan();
  plan.instances[0].node = ProcessorId();
  EXPECT_FALSE(plan.validate().is_ok());

  plan = small_plan();
  plan.instances[0].id.clear();
  EXPECT_FALSE(plan.validate().is_ok());
}

TEST(PlanTest, RejectsDanglingConnections) {
  auto plan = small_plan();
  plan.connections.push_back(
      ConnectionDeployment{"bad", "AC", "Location", "Ghost", "Location"});
  EXPECT_FALSE(plan.validate().is_ok());

  plan = small_plan();
  plan.connections[0].receptacle.clear();
  EXPECT_FALSE(plan.validate().is_ok());
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
  EXPECT_NE(xml.find("tk_boolean"), std::string::npos);

  const auto reparsed = plan_from_xml(xml);
  ASSERT_TRUE(reparsed.is_ok()) << reparsed.message();
  const DeploymentPlan& back = reparsed.value();
  EXPECT_EQ(back.label, "test");
  ASSERT_EQ(back.instances.size(), 2u);
  const auto* ac = back.find_instance("AC");
  ASSERT_NE(ac, nullptr);
  EXPECT_EQ(ac->type, "rtcm.AdmissionControl");
  EXPECT_EQ(ac->node, ProcessorId(9));
  EXPECT_EQ(ac->properties.get_string("AC_Strategy").value(), "PT");
  EXPECT_EQ(ac->properties.get_int("SomeNumber").value(), 42);
  EXPECT_TRUE(ac->properties.get_bool("SomeFlag").value());
  ASSERT_EQ(back.connections.size(), 1u);
  EXPECT_EQ(back.connections[0].source_instance, "AC");
  EXPECT_EQ(back.connections[0].facet, "Location");
}

TEST(PlanXmlTest, RejectsWrongRoot) {
  EXPECT_FALSE(plan_from_xml("<NotAPlan/>").is_ok());
}

TEST(PlanXmlTest, RejectsInstanceWithoutId) {
  const auto r = plan_from_xml(
      "<Deployment:DeploymentPlan>"
      "<instance><node>1</node><implementation>x</implementation></instance>"
      "</Deployment:DeploymentPlan>");
  EXPECT_FALSE(r.is_ok());
}

TEST(PlanXmlTest, RejectsMalformedNode) {
  const auto r = plan_from_xml(
      "<Deployment:DeploymentPlan>"
      "<instance id=\"a\"><node>xyz</node>"
      "<implementation>t</implementation></instance>"
      "</Deployment:DeploymentPlan>");
  EXPECT_FALSE(r.is_ok());
}

TEST(PlanXmlTest, RejectsUnknownPropertyKind) {
  const auto r = plan_from_xml(
      "<Deployment:DeploymentPlan>"
      "<instance id=\"a\"><node>1</node>"
      "<implementation>t</implementation>"
      "<configProperty><name>x</name><value>"
      "<type><kind>tk_alien</kind></type><value><string>v</string></value>"
      "</value></configProperty></instance>"
      "</Deployment:DeploymentPlan>");
  EXPECT_FALSE(r.is_ok());
  EXPECT_NE(r.message().find("tk_alien"), std::string::npos);
}

// --- ExecutionManager --------------------------------------------------------

/// Minimal component pair for launch-path tests.
class Pingable {
 public:
  virtual ~Pingable() = default;
  virtual int ping() = 0;
};

class PingProvider : public ccm::Component, public Pingable {
 public:
  PingProvider() : Component("test.PingProvider") {}
  bool provides(std::string_view facet) const override {
    return facet == "Ping";
  }
  int ping() override { return 1; }
};

class PingUser : public ccm::Component {
 public:
  PingUser() : Component("test.PingUser") {}
  Status connect(std::string_view receptacle,
                 ccm::Component& provider) override {
    if (receptacle == "Ping") return bind(ping_, receptacle, provider);
    return Component::connect(receptacle, provider);
  }
  Pingable* ping_ = nullptr;

 protected:
  Status on_configure(const ccm::AttributeMap& attrs) override {
    if (attrs.has("poison")) return Status::error("poisoned configuration");
    return Status::ok();
  }
};

struct LaunchFixture : ::testing::Test {
  LaunchFixture()
      : network(sim, std::make_unique<sim::ConstantLatency>(Duration(10))),
        federation(sim, network),
        cpu0(sim, ProcessorId(0)),
        cpu1(sim, ProcessorId(1)),
        container0(ccm::ContainerContext{sim, network, federation, cpu0, trace,
                                         ProcessorId(0)}),
        container1(ccm::ContainerContext{sim, network, federation, cpu1, trace,
                                         ProcessorId(1)}) {
    (void)factory.register_type("test.PingProvider", [](ProcessorId) {
      return std::make_unique<PingProvider>();
    });
    (void)factory.register_type("test.PingUser", [](ProcessorId) {
      return std::make_unique<PingUser>();
    });
  }

  ccm::Container* resolve(ProcessorId node) {
    if (node == ProcessorId(0)) return &container0;
    if (node == ProcessorId(1)) return &container1;
    return nullptr;
  }

  DeploymentPlan ping_plan() {
    DeploymentPlan plan;
    plan.label = "ping";
    InstanceDeployment provider;
    provider.id = "provider";
    provider.type = "test.PingProvider";
    provider.node = ProcessorId(0);
    plan.instances.push_back(provider);
    InstanceDeployment user;
    user.id = "user";
    user.type = "test.PingUser";
    user.node = ProcessorId(1);
    plan.instances.push_back(user);
    plan.connections.push_back(
        ConnectionDeployment{"ping", "user", "Ping", "provider", "Ping"});
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
  ccm::ComponentFactory factory;
};

TEST_F(LaunchFixture, LaunchInstallsConfiguresAndWires) {
  const auto report = ExecutionManager().launch(
      ping_plan(), [this](ProcessorId n) { return resolve(n); }, factory);
  ASSERT_TRUE(report.is_ok()) << report.message();
  EXPECT_EQ(report.value().instances_installed, 2u);
  EXPECT_EQ(report.value().connections_wired, 1u);
  EXPECT_EQ(container0.size(), 1u);
  EXPECT_EQ(container1.size(), 1u);

  auto* user = container1.find_as<PingUser>("user");
  ASSERT_NE(user, nullptr);
  ASSERT_NE(user->ping_, nullptr);
  EXPECT_EQ(user->ping_->ping(), 1);
  EXPECT_EQ(user->state(), ccm::LifecycleState::kConfigured);
}

TEST_F(LaunchFixture, UnknownComponentTypeFails) {
  auto plan = ping_plan();
  plan.instances[0].type = "test.DoesNotExist";
  const auto report = ExecutionManager().launch(
      plan, [this](ProcessorId n) { return resolve(n); }, factory);
  EXPECT_FALSE(report.is_ok());
  EXPECT_NE(report.message().find("DoesNotExist"), std::string::npos);
}

TEST_F(LaunchFixture, UnknownNodeFails) {
  auto plan = ping_plan();
  plan.instances[0].node = ProcessorId(9);
  const auto report = ExecutionManager().launch(
      plan, [this](ProcessorId n) { return resolve(n); }, factory);
  EXPECT_FALSE(report.is_ok());
  EXPECT_NE(report.message().find("P9"), std::string::npos);
}

TEST_F(LaunchFixture, ConfigurationFailureAborts) {
  auto plan = ping_plan();
  plan.instances[1].properties.set_bool("poison", true);
  const auto report = ExecutionManager().launch(
      plan, [this](ProcessorId n) { return resolve(n); }, factory);
  EXPECT_FALSE(report.is_ok());
  EXPECT_NE(report.message().find("poisoned"), std::string::npos);
  // The failing instance was never installed.
  EXPECT_EQ(container1.find("user"), nullptr);
}

TEST_F(LaunchFixture, UnknownFacetFails) {
  auto plan = ping_plan();
  plan.connections[0].facet = "Pong";
  const auto report = ExecutionManager().launch(
      plan, [this](ProcessorId n) { return resolve(n); }, factory);
  EXPECT_FALSE(report.is_ok());
  EXPECT_NE(report.message().find("Pong"), std::string::npos);
}

TEST_F(LaunchFixture, UnknownReceptacleFails) {
  auto plan = ping_plan();
  plan.connections[0].receptacle = "Pong";
  const auto report = ExecutionManager().launch(
      plan, [this](ProcessorId n) { return resolve(n); }, factory);
  EXPECT_FALSE(report.is_ok());
  EXPECT_NE(report.message().find("no receptacle 'Pong'"), std::string::npos);
}

TEST_F(LaunchFixture, WrongInterfaceFails) {
  // A connection whose target provides the named facet through a class
  // lacking the receptacle's interface is refused by the dynamic_cast check.
  (void)factory.register_type("test.FakePingProvider", [](ProcessorId) {
    class Fake : public ccm::Component {
     public:
      Fake() : Component("test.FakePingProvider") {}
      bool provides(std::string_view facet) const override {
        return facet == "Ping";
      }
    };
    return std::make_unique<Fake>();
  });
  auto plan = ping_plan();
  plan.instances[0].type = "test.FakePingProvider";
  const auto report = ExecutionManager().launch(
      plan, [this](ProcessorId n) { return resolve(n); }, factory);
  EXPECT_FALSE(report.is_ok());
  EXPECT_NE(report.message().find("lacks the required interface"),
            std::string::npos);
}

TEST_F(LaunchFixture, XmlPlanParsesAndLaunches) {
  const auto plan = plan_from_xml(plan_to_xml(ping_plan()));
  ASSERT_TRUE(plan.is_ok()) << plan.message();
  const auto report = ExecutionManager().launch(
      plan.value(), [this](ProcessorId n) { return resolve(n); }, factory);
  ASSERT_TRUE(report.is_ok()) << report.message();
  EXPECT_EQ(report.value().instances_installed, 2u);
  EXPECT_NE(container0.find("provider"), nullptr);
}

TEST_F(LaunchFixture, InvalidPlanFailsBeforeInstalling) {
  // launch() is the one place a plan from outside is validated.
  auto plan = ping_plan();
  plan.connections[0].target_instance = "ghost";
  const auto report = ExecutionManager().launch(
      plan, [this](ProcessorId n) { return resolve(n); }, factory);
  EXPECT_FALSE(report.is_ok());
  EXPECT_NE(report.message().find("ghost"), std::string::npos);
  EXPECT_EQ(container0.size(), 0u);
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
  EXPECT_EQ(r.value()
                .find_instance("Central-AC")
                ->properties.get_string("LB_Strategy")
                .value(),
            "PT");
}

}  // namespace
}  // namespace rtcm::dance
