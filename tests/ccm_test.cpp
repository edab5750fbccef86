#include <gtest/gtest.h>

#include "ccm/attributes.h"
#include "ccm/component.h"
#include "ccm/container.h"
#include "ccm/factory.h"

namespace rtcm::ccm {
namespace {

// --- AttributeMap ------------------------------------------------------------

TEST(AttributeMapTest, TypedRoundTrip) {
  AttributeMap attrs;
  attrs.set_string("s", "hello");
  attrs.set_int("i", 42);
  attrs.set_double("d", 2.5);
  attrs.set_bool("b", true);
  attrs.set_duration("t", Duration::milliseconds(5));
  EXPECT_EQ(attrs.get_string("s").value(), "hello");
  EXPECT_EQ(attrs.get_int("i").value(), 42);
  EXPECT_DOUBLE_EQ(attrs.get_double("d").value(), 2.5);
  EXPECT_TRUE(attrs.get_bool("b").value());
  EXPECT_EQ(attrs.get_duration("t").value(), Duration(5000));
  EXPECT_EQ(attrs.size(), 5u);
  EXPECT_TRUE(attrs.has("s"));
  EXPECT_FALSE(attrs.has("missing"));
}

TEST(AttributeMapTest, StringCoercion) {
  AttributeMap attrs;
  attrs.set_string("i", "123");
  attrs.set_string("d", "1.5");
  attrs.set_string("b", "yes");
  EXPECT_EQ(attrs.get_int("i").value(), 123);
  EXPECT_DOUBLE_EQ(attrs.get_double("d").value(), 1.5);
  EXPECT_TRUE(attrs.get_bool("b").value());
}

TEST(AttributeMapTest, ToStringCoercion) {
  AttributeMap attrs;
  attrs.set_int("i", 7);
  attrs.set_bool("b", false);
  EXPECT_EQ(attrs.get_string("i").value(), "7");
  EXPECT_EQ(attrs.get_string("b").value(), "false");
}

TEST(AttributeMapTest, ErrorsNameTheAttribute) {
  AttributeMap attrs;
  attrs.set_string("x", "not-a-number");
  const auto r = attrs.get_int("x");
  EXPECT_FALSE(r.is_ok());
  EXPECT_NE(r.message().find("'x'"), std::string::npos);
  const auto missing = attrs.get_string("y");
  EXPECT_FALSE(missing.is_ok());
  EXPECT_NE(missing.message().find("'y'"), std::string::npos);
}

TEST(AttributeMapTest, OrDefaults) {
  AttributeMap attrs;
  attrs.set_string("mode", "PT");
  EXPECT_EQ(attrs.get_string_or("mode", "PJ"), "PT");
  EXPECT_EQ(attrs.get_string_or("other", "PJ"), "PJ");
  EXPECT_EQ(attrs.get_int_or("n", 9), 9);
}

TEST(AttributeMapTest, MergeOverwrites) {
  AttributeMap a;
  a.set_string("k", "old");
  a.set_int("keep", 1);
  AttributeMap b;
  b.set_string("k", "new");
  a.merge(b);
  EXPECT_EQ(a.get_string("k").value(), "new");
  EXPECT_EQ(a.get_int("keep").value(), 1);
}

TEST(AttributeMapTest, NamesSorted) {
  AttributeMap attrs;
  attrs.set_int("b", 1);
  attrs.set_int("a", 2);
  EXPECT_EQ(attrs.names(), (std::vector<std::string>{"a", "b"}));
}

// --- Component lifecycle -----------------------------------------------------

/// Interface + component used to exercise ports.
class Greeter {
 public:
  virtual ~Greeter() = default;
  virtual int greet() = 0;
};

class TestProvider : public Component, public Greeter {
 public:
  TestProvider() : Component("test.Provider") {}
  bool provides(std::string_view facet) const override {
    return facet == "Greet";
  }
  int greet() override { return 42; }
};

class TestUser : public Component {
 public:
  TestUser() : Component("test.User") {}
  Status connect(std::string_view receptacle, Component& provider) override {
    if (receptacle == "Greet") return bind(greeter_, receptacle, provider);
    return Component::connect(receptacle, provider);
  }

  Greeter* greeter_ = nullptr;
  int configure_calls = 0;
  int activate_calls = 0;
  int passivate_calls = 0;

 protected:
  Status on_configure(const AttributeMap& attrs) override {
    ++configure_calls;
    if (attrs.has("fail")) return Status::error("configured to fail");
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

TEST_F(NodeFixture, LifecycleHappyPath) {
  auto user = std::make_unique<TestUser>();
  TestUser* raw = user.get();
  EXPECT_EQ(raw->state(), LifecycleState::kCreated);
  AttributeMap attrs;
  attrs.set_int("x", 1);
  EXPECT_TRUE(raw->configure(attrs).is_ok());
  EXPECT_EQ(raw->state(), LifecycleState::kConfigured);
  ASSERT_TRUE(container.install("user", std::move(user)).is_ok());
  EXPECT_EQ(raw->instance_name(), "user");
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
  AttributeMap attrs;
  attrs.set_bool("fail", true);
  const Status s = user.configure(attrs);
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
  ASSERT_TRUE(container.install("user", std::move(user)).is_ok());
  EXPECT_TRUE(raw->activate().is_ok());
  EXPECT_FALSE(raw->activate().is_ok());
}

TEST_F(NodeFixture, PassivateRequiresActive) {
  TestUser user;
  EXPECT_FALSE(user.passivate().is_ok());
}

TEST_F(NodeFixture, ReconfigurationMergesAttributes) {
  TestUser user;
  AttributeMap first;
  first.set_string("a", "1");
  ASSERT_TRUE(user.configure(first).is_ok());
  AttributeMap second;
  second.set_string("b", "2");
  ASSERT_TRUE(user.configure(second).is_ok());
  EXPECT_EQ(user.attributes().get_string("a").value(), "1");
  EXPECT_EQ(user.attributes().get_string("b").value(), "2");
}

TEST_F(NodeFixture, FacetReceptacleWiring) {
  auto provider = std::make_unique<TestProvider>();
  auto user = std::make_unique<TestUser>();
  TestProvider* p = provider.get();
  TestUser* u = user.get();
  ASSERT_TRUE(container.install("provider", std::move(provider)).is_ok());
  ASSERT_TRUE(container.install("user", std::move(user)).is_ok());

  EXPECT_TRUE(p->provides("Greet"));
  EXPECT_TRUE(u->connect("Greet", *p).is_ok());
  ASSERT_NE(u->greeter_, nullptr);
  EXPECT_EQ(u->greeter_->greet(), 42);
}

TEST_F(NodeFixture, UnknownPortsReported) {
  TestProvider provider;
  TestUser user;
  EXPECT_FALSE(provider.provides("Nope"));
  EXPECT_FALSE(user.provides("Greet"));
  const Status s = user.connect("Nope", provider);
  EXPECT_FALSE(s.is_ok());
  EXPECT_NE(s.message().find("no receptacle 'Nope'"), std::string::npos);
}

TEST_F(NodeFixture, WrongInterfaceTypeRejected) {
  TestUser user;
  TestUser not_a_greeter;
  const Status s = user.connect("Greet", not_a_greeter);
  EXPECT_FALSE(s.is_ok());
  EXPECT_NE(s.message().find("lacks the required interface"),
            std::string::npos);
  EXPECT_EQ(user.greeter_, nullptr);
}

// --- Container ---------------------------------------------------------------

TEST_F(NodeFixture, InstallRejectsDuplicates) {
  ASSERT_TRUE(container.install("x", std::make_unique<TestUser>()).is_ok());
  EXPECT_FALSE(container.install("x", std::make_unique<TestUser>()).is_ok());
  EXPECT_EQ(container.size(), 1u);
}

TEST_F(NodeFixture, InstallRejectsNullAndEmptyName) {
  EXPECT_FALSE(container.install("x", nullptr).is_ok());
  EXPECT_FALSE(container.install("", std::make_unique<TestUser>()).is_ok());
}

TEST_F(NodeFixture, FindTyped) {
  ASSERT_TRUE(container.install("u", std::make_unique<TestUser>()).is_ok());
  EXPECT_NE(container.find("u"), nullptr);
  EXPECT_EQ(container.find("v"), nullptr);
  EXPECT_NE(container.find_as<TestUser>("u"), nullptr);
  EXPECT_EQ(container.find_as<TestProvider>("u"), nullptr);
}

TEST_F(NodeFixture, ActivateAllAndPassivateAll) {
  auto u1 = std::make_unique<TestUser>();
  auto u2 = std::make_unique<TestUser>();
  TestUser* r1 = u1.get();
  TestUser* r2 = u2.get();
  ASSERT_TRUE(container.install("u1", std::move(u1)).is_ok());
  ASSERT_TRUE(container.install("u2", std::move(u2)).is_ok());
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
  ASSERT_TRUE(container.install("u", std::move(u)).is_ok());
  EXPECT_EQ(raw->context().processor, ProcessorId(0));
  EXPECT_EQ(&raw->context().local_channel(),
            &federation.channel(ProcessorId(0)));
}

// --- Factory -----------------------------------------------------------------

TEST(FactoryTest, RegisterAndCreate) {
  ComponentFactory factory;
  EXPECT_TRUE(factory
                  .register_type("test.User",
                                 [](ProcessorId) {
                                   return std::make_unique<TestUser>();
                                 })
                  .is_ok());
  EXPECT_TRUE(factory.knows("test.User"));
  EXPECT_FALSE(factory.knows("test.Unknown"));
  auto created = factory.create("test.User", ProcessorId(1));
  ASSERT_TRUE(created.is_ok());
  EXPECT_EQ(created.value()->type_name(), "test.User");
}

TEST(FactoryTest, DuplicateRegistrationRejected) {
  ComponentFactory factory;
  auto creator = [](ProcessorId) { return std::make_unique<TestUser>(); };
  EXPECT_TRUE(factory.register_type("t", creator).is_ok());
  EXPECT_FALSE(factory.register_type("t", creator).is_ok());
}

TEST(FactoryTest, BadRegistrations) {
  ComponentFactory factory;
  EXPECT_FALSE(factory.register_type("", [](ProcessorId) {
    return std::make_unique<TestUser>();
  }).is_ok());
  EXPECT_FALSE(factory.register_type("x", nullptr).is_ok());
}

TEST(FactoryTest, UnknownTypeFails) {
  ComponentFactory factory;
  const auto r = factory.create("nope", ProcessorId(0));
  EXPECT_FALSE(r.is_ok());
  EXPECT_NE(r.message().find("nope"), std::string::npos);
}

TEST(FactoryTest, NullCreatorResultReported) {
  ComponentFactory factory;
  ASSERT_TRUE(
      factory.register_type("null", [](ProcessorId) { return nullptr; })
          .is_ok());
  EXPECT_FALSE(factory.create("null", ProcessorId(0)).is_ok());
}

TEST(FactoryTest, TypeNames) {
  ComponentFactory factory;
  (void)factory.register_type("b", [](ProcessorId) {
    return std::make_unique<TestUser>();
  });
  (void)factory.register_type("a", [](ProcessorId) {
    return std::make_unique<TestUser>();
  });
  EXPECT_EQ(factory.type_names(), (std::vector<std::string>{"a", "b"}));
}

TEST(LifecycleStateTest, Names) {
  EXPECT_STREQ(to_string(LifecycleState::kCreated), "Created");
  EXPECT_STREQ(to_string(LifecycleState::kConfigured), "Configured");
  EXPECT_STREQ(to_string(LifecycleState::kActive), "Active");
  EXPECT_STREQ(to_string(LifecycleState::kPassivated), "Passivated");
}

}  // namespace
}  // namespace rtcm::ccm
