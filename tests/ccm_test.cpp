// Component model (`ctest -L deploy`): typed identity, the lifecycle,
// typed configs and ports, and the per-node Container, exercised with fake
// components installed into a Container directly.
#include <gtest/gtest.h>

#include "ccm/component.h"
#include "ccm/container.h"

namespace rtcm::ccm {
namespace {

// --- Identity ----------------------------------------------------------------

TEST(InstanceIdTest, RendersTheDescriptorSpelling) {
  EXPECT_EQ(InstanceId(ComponentKind::kLoadBalancer, ProcessorId(5))
                .to_string(),
            "Central-LB");
  EXPECT_EQ(InstanceId(ComponentKind::kAdmissionControl, ProcessorId(5))
                .to_string(),
            "Central-AC");
  EXPECT_EQ(InstanceId(ComponentKind::kTaskEffector, ProcessorId(3))
                .to_string(),
            "TE@P3");
  EXPECT_EQ(InstanceId(ComponentKind::kIdleResetter, ProcessorId(3))
                .to_string(),
            "IR@P3");
  EXPECT_EQ(InstanceId(ComponentKind::kSubtaskLast, ProcessorId(4), TaskId(3),
                       2)
                .to_string(),
            "T3_S2@P4");
}

TEST(InstanceIdTest, PortsBelongToFixedKinds) {
  EXPECT_TRUE(
      has_receptacle(ComponentKind::kAdmissionControl, Port::kLocation));
  EXPECT_TRUE(has_facet(ComponentKind::kLoadBalancer, Port::kLocation));
  EXPECT_TRUE(has_receptacle(ComponentKind::kSubtaskFI, Port::kComplete));
  EXPECT_TRUE(has_receptacle(ComponentKind::kSubtaskLast, Port::kComplete));
  EXPECT_TRUE(has_facet(ComponentKind::kIdleResetter, Port::kComplete));
  EXPECT_FALSE(has_receptacle(ComponentKind::kTaskEffector, Port::kLocation));
  EXPECT_FALSE(has_facet(ComponentKind::kAdmissionControl, Port::kLocation));
  EXPECT_FALSE(has_facet(ComponentKind::kLoadBalancer, Port::kComplete));
}

// --- Component lifecycle -----------------------------------------------------

/// Interface + component used to exercise ports.
class Greeter {
 public:
  virtual ~Greeter() = default;
  virtual int greet() = 0;
};

/// Stands in for an LB: provides the Location facet (by its kind).
class TestProvider : public Component, public Greeter {
 public:
  TestProvider() : Component(ComponentKind::kLoadBalancer) {}
  int greet() override { return 42; }
};

/// Stands in for an AC by default: a Location receptacle wanting a Greeter.
/// A config with LB per Job makes it fail configuration.
class TestUser : public Component {
 public:
  explicit TestUser(ComponentKind kind = ComponentKind::kAdmissionControl)
      : Component(kind) {}
  Status connect(Port port, Component& provider) override {
    if (port == Port::kLocation) return bind(greeter_, port, provider);
    return Component::connect(port, provider);
  }
  bool supports_runtime_reconfiguration() const override { return true; }

  Greeter* greeter_ = nullptr;
  int configure_calls = 0;
  int activate_calls = 0;
  int passivate_calls = 0;
  AcConfig last_config;

 protected:
  Status on_configure(const ComponentConfig& config) override {
    ++configure_calls;
    const auto& ac = std::get<AcConfig>(config);
    if (ac.lb == core::LbStrategy::kPerJob) {
      return Status::error("configured to fail");
    }
    last_config = ac;
    return Status::ok();
  }
  Status on_activate() override {
    ++activate_calls;
    return Status::ok();
  }
  void on_passivate() override { ++passivate_calls; }
};

struct NodeFixture : ::testing::Test {
  NodeFixture()
      : network(sim, std::make_unique<sim::ConstantLatency>(Duration(10))),
        federation(sim, network),
        cpu(sim, ProcessorId(0)),
        container(ContainerContext{sim, network, federation, cpu, trace,
                                   ProcessorId(0)}) {}

  sim::Simulator sim;
  sim::Trace trace;
  sim::Network network;
  events::FederatedEventChannel federation;
  sim::Processor cpu;
  Container container;
};

const InstanceId kUser(ComponentKind::kAdmissionControl, ProcessorId(0));
const InstanceId kProvider(ComponentKind::kLoadBalancer, ProcessorId(0));

TEST_F(NodeFixture, LifecycleHappyPath) {
  auto user = std::make_unique<TestUser>();
  TestUser* raw = user.get();
  EXPECT_EQ(raw->state(), LifecycleState::kCreated);
  EXPECT_TRUE(raw->configure(AcConfig{}).is_ok());
  EXPECT_EQ(raw->state(), LifecycleState::kConfigured);
  ASSERT_TRUE(container.install(kUser, std::move(user)).is_ok());
  EXPECT_EQ(raw->id(), kUser);
  EXPECT_TRUE(raw->activate().is_ok());
  EXPECT_EQ(raw->state(), LifecycleState::kActive);
  EXPECT_TRUE(raw->passivate().is_ok());
  EXPECT_EQ(raw->state(), LifecycleState::kPassivated);
  EXPECT_EQ(raw->configure_calls, 1);
  EXPECT_EQ(raw->activate_calls, 1);
  EXPECT_EQ(raw->passivate_calls, 1);
}

TEST_F(NodeFixture, ConfigureFailureReported) {
  TestUser user;
  AcConfig poisoned;
  poisoned.lb = core::LbStrategy::kPerJob;
  const Status s = user.configure(poisoned);
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(user.state(), LifecycleState::kCreated);
}

TEST_F(NodeFixture, ActivateRequiresInstallation) {
  TestUser user;
  EXPECT_FALSE(user.activate().is_ok());
}

TEST_F(NodeFixture, DoubleActivationRejected) {
  auto user = std::make_unique<TestUser>();
  TestUser* raw = user.get();
  ASSERT_TRUE(container.install(kUser, std::move(user)).is_ok());
  EXPECT_TRUE(raw->activate().is_ok());
  EXPECT_FALSE(raw->activate().is_ok());
}

TEST_F(NodeFixture, PassivateRequiresActive) {
  TestUser user;
  EXPECT_FALSE(user.passivate().is_ok());
}

TEST_F(NodeFixture, ReconfigurationReplacesTheConfig) {
  TestUser user;
  AcConfig first;
  first.ac = core::AcStrategy::kPerJob;
  ASSERT_TRUE(user.configure(first).is_ok());
  AcConfig second;
  second.lb = core::LbStrategy::kPerTask;
  ASSERT_TRUE(user.configure(second).is_ok());
  // The second config replaces the first whole: nothing of it lingers.
  EXPECT_EQ(user.last_config, second);
  EXPECT_EQ(user.configure_calls, 2);
}

TEST_F(NodeFixture, ConfigOfAnotherKindRefused) {
  TestUser user;
  const Status s = user.configure(TeConfig{});
  EXPECT_FALSE(s.is_ok());
  EXPECT_NE(s.message().find("config of another kind"), std::string::npos);
  EXPECT_EQ(user.configure_calls, 0);
  EXPECT_EQ(user.state(), LifecycleState::kCreated);
}

TEST_F(NodeFixture, FacetReceptacleWiring) {
  auto provider = std::make_unique<TestProvider>();
  auto user = std::make_unique<TestUser>();
  TestProvider* p = provider.get();
  TestUser* u = user.get();
  ASSERT_TRUE(container.install(kProvider, std::move(provider)).is_ok());
  ASSERT_TRUE(container.install(kUser, std::move(user)).is_ok());

  EXPECT_TRUE(p->provides(Port::kLocation));
  EXPECT_TRUE(u->connect(Port::kLocation, *p).is_ok());
  ASSERT_NE(u->greeter_, nullptr);
  EXPECT_EQ(u->greeter_->greet(), 42);
}

TEST_F(NodeFixture, UnknownPortsReported) {
  TestProvider provider;
  TestUser user;
  EXPECT_FALSE(provider.provides(Port::kComplete));
  EXPECT_FALSE(user.provides(Port::kLocation));
  const Status s = user.connect(Port::kComplete, provider);
  EXPECT_FALSE(s.is_ok());
  EXPECT_NE(s.message().find("no receptacle 'Complete'"), std::string::npos);
}

TEST_F(NodeFixture, WrongInterfaceTypeRejected) {
  TestUser user;
  TestUser not_a_greeter;
  const Status s = user.connect(Port::kLocation, not_a_greeter);
  EXPECT_FALSE(s.is_ok());
  EXPECT_NE(s.message().find("lacks the required interface"),
            std::string::npos);
  EXPECT_EQ(user.greeter_, nullptr);
}

// --- Container ---------------------------------------------------------------

TEST_F(NodeFixture, InstallRejectsDuplicates) {
  ASSERT_TRUE(container.install(kUser, std::make_unique<TestUser>()).is_ok());
  EXPECT_FALSE(container.install(kUser, std::make_unique<TestUser>()).is_ok());
  EXPECT_EQ(container.size(), 1u);
}

TEST_F(NodeFixture, InstallRejectsNullAndEmptyName) {
  EXPECT_FALSE(container.install(kUser, nullptr).is_ok());
  // An identity of another kind, or on another node, does not fit.
  EXPECT_FALSE(
      container.install(kProvider, std::make_unique<TestUser>()).is_ok());
  EXPECT_FALSE(container
                   .install({ComponentKind::kAdmissionControl, ProcessorId(1)},
                            std::make_unique<TestUser>())
                   .is_ok());
  EXPECT_EQ(container.size(), 0u);
}

TEST_F(NodeFixture, FindTyped) {
  ASSERT_TRUE(container.install(kUser, std::make_unique<TestUser>()).is_ok());
  EXPECT_NE(container.find(kUser), nullptr);
  EXPECT_EQ(container.find(kProvider), nullptr);
  EXPECT_NE(container.find_as<TestUser>(kUser), nullptr);
  EXPECT_EQ(container.find_as<TestProvider>(kUser), nullptr);
}

TEST_F(NodeFixture, ActivateAllAndPassivateAll) {
  auto u1 = std::make_unique<TestUser>();
  auto u2 = std::make_unique<TestUser>(ComponentKind::kSubtaskFI);
  TestUser* r1 = u1.get();
  TestUser* r2 = u2.get();
  ASSERT_TRUE(container.install(kUser, std::move(u1)).is_ok());
  ASSERT_TRUE(container
                  .install({ComponentKind::kSubtaskFI, ProcessorId(0),
                            TaskId(0), 0},
                           std::move(u2))
                  .is_ok());
  EXPECT_TRUE(container.activate_all().is_ok());
  EXPECT_EQ(r1->state(), LifecycleState::kActive);
  EXPECT_EQ(r2->state(), LifecycleState::kActive);
  EXPECT_TRUE(container.passivate_all().is_ok());
  EXPECT_EQ(r1->state(), LifecycleState::kPassivated);
  EXPECT_EQ(r2->state(), LifecycleState::kPassivated);
}

TEST_F(NodeFixture, ContextExposesProcessor) {
  auto u = std::make_unique<TestUser>();
  TestUser* raw = u.get();
  ASSERT_TRUE(container.install(kUser, std::move(u)).is_ok());
  EXPECT_EQ(raw->context().processor, ProcessorId(0));
  EXPECT_EQ(&raw->context().local_channel(),
            &federation.channel(ProcessorId(0)));
}

TEST(LifecycleStateTest, Names) {
  EXPECT_STREQ(to_string(LifecycleState::kCreated), "Created");
  EXPECT_STREQ(to_string(LifecycleState::kConfigured), "Configured");
  EXPECT_STREQ(to_string(LifecycleState::kActive), "Active");
  EXPECT_STREQ(to_string(LifecycleState::kPassivated), "Passivated");
}

}  // namespace
}  // namespace rtcm::ccm
