#include "dance/plan_xml.h"

#include <array>
#include <cstdint>
#include <limits>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "dance/xml.h"
#include "util/strings.h"

namespace rtcm::dance {

namespace {

constexpr std::array<std::pair<ComponentKind, const char*>, 6>
    kImplementations = {{
        {ComponentKind::kLoadBalancer, "rtcm.LoadBalancer"},
        {ComponentKind::kAdmissionControl, "rtcm.AdmissionControl"},
        {ComponentKind::kTaskEffector, "rtcm.TaskEffector"},
        {ComponentKind::kIdleResetter, "rtcm.IdleResetter"},
        {ComponentKind::kSubtaskFI, "rtcm.SubtaskFI"},
        {ComponentKind::kSubtaskLast, "rtcm.SubtaskLast"},
    }};

const char* implementation(ComponentKind kind) {
  for (const auto& [k, name] : kImplementations) {
    if (k == kind) return name;
  }
  return "?";
}

// Strategy spelling, indexed by IrStrategy / LbStrategy; AcStrategy and
// TeMode have no "N" and start at "PT".
constexpr std::array<const char*, 3> kSpelling = {"N", "PT", "PJ"};

template <typename Strategy>
constexpr std::size_t first_spelling() {
  return std::is_same_v<Strategy, core::AcStrategy> ||
                 std::is_same_v<Strategy, core::TeMode>
             ? 1
             : 0;
}

constexpr std::int64_t kInt32Max = std::numeric_limits<std::int32_t>::max();
constexpr std::int64_t kInt64Min = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kInt64Max = std::numeric_limits<std::int64_t>::max();

Status read_long(const std::string& text, std::int64_t lo, std::int64_t hi,
                 std::int64_t& out) {
  if (!parse_int64(text, out)) {
    return Status::error("has a malformed long '" + text + "'");
  }
  if (out < lo || out > hi) return Status::error("is out of range: " + text);
  return Status::ok();
}

constexpr bool kRequired = true;

/// Each kind's properties in name order: the one listing both directions
/// walk.  `Io` writes (plan_to_xml) or reads (plan_from_xml) each field.
template <typename Io>
void properties(Io& io, InstanceId& id, ComponentConfig& config) {
  switch (id.kind) {
    case ComponentKind::kLoadBalancer: {
      auto& lb = std::get<ccm::LbConfig>(config);
      io.field("Policy", lb.policy);
      io.field("Seed", lb.seed);
      return;
    }
    case ComponentKind::kAdmissionControl: {
      auto& ac = std::get<ccm::AcConfig>(config);
      io.strategy("AC_Strategy", ac.ac);
      // Written only under deferrable-server analysis.
      if (Io::kReading ||
          ac.analysis == core::AperiodicAnalysis::kDeferrableServer) {
        io.field("Analysis", ac.analysis);
        io.field("DS_Budget", ac.ds.budget);
        io.field("DS_HopOverhead", ac.ds.hop_overhead);
        io.field("DS_Period", ac.ds.period);
      }
      io.strategy("LB_Strategy", ac.lb);
      return;
    }
    case ComponentKind::kTaskEffector:
      io.node("ProcessorID", id.node);
      io.strategy("TE_Mode", std::get<ccm::TeConfig>(config).mode);
      return;
    case ComponentKind::kIdleResetter:
      io.strategy("IR_Strategy", std::get<ccm::IrConfig>(config).strategy);
      io.node("ProcessorID", id.node);
      return;
    case ComponentKind::kSubtaskFI:
    case ComponentKind::kSubtaskLast: {
      auto& subtask = std::get<ccm::SubtaskConfig>(config);
      io.field("ExecutionTime", subtask.execution, kRequired);
      io.strategy("IR_Mode", subtask.ir_mode);
      io.field("Priority", subtask.priority, kRequired);
      io.field("Stage", id.stage, kRequired);
      io.field("TaskID", id.task, kRequired);
      return;
    }
  }
}

XmlNode make_text(const std::string& name, std::string text) {
  XmlNode node;
  node.name = name;
  node.text = std::move(text);
  return node;
}

/// Appends each field as a configProperty of its tk_* kind.
class Writer {
 public:
  static constexpr bool kReading = false;
  explicit Writer(XmlNode& instance) : instance_(instance) {}

  template <typename Strategy>
  void strategy(const char* name, Strategy s) {
    text(name, kSpelling[static_cast<std::size_t>(s) +
                         first_spelling<Strategy>()]);
  }
  void field(const char* name, sched::PlacementPolicy p) {
    text(name, sched::to_string(p));
  }
  void field(const char* name, core::AperiodicAnalysis a) {
    text(name, a == core::AperiodicAnalysis::kAub ? "AUB" : "DS");
  }
  void field(const char* name, Duration d, bool = false) {
    number(name, d.usec());
  }
  void field(const char* name, Priority p, bool = false) {
    number(name, p.level());
  }
  void field(const char* name, std::uint64_t v) {
    number(name, static_cast<std::int64_t>(v));
  }
  void field(const char* name, std::uint32_t v, bool = false) {
    number(name, v);
  }
  void field(const char* name, TaskId t, bool = false) {
    number(name, t.value());
  }
  void node(const char* name, ProcessorId p) { number(name, p.value()); }

 private:
  void text(const char* name, std::string value) {
    add(name, "tk_string", "string", std::move(value));
  }
  void number(const char* name, std::int64_t value) {
    add(name, "tk_long", "long", std::to_string(value));
  }
  void add(const char* name, const char* kind, const char* member,
           std::string value) {
    XmlNode type;
    type.name = "type";
    type.children.push_back(make_text("kind", kind));
    XmlNode inner;
    inner.name = "value";
    inner.children.push_back(make_text(member, std::move(value)));
    XmlNode outer;
    outer.name = "value";
    outer.children.push_back(std::move(type));
    outer.children.push_back(std::move(inner));
    XmlNode prop;
    prop.name = "configProperty";
    prop.children.push_back(make_text("name", name));
    prop.children.push_back(std::move(outer));
    instance_.children.push_back(std::move(prop));
  }

  XmlNode& instance_;
};

/// Sets each field from the instance's configProperties; the first error
/// wins and names the property.  Properties no field claimed are errors.
class Reader {
 public:
  static constexpr bool kReading = true;

  Status collect(const XmlNode& instance) {
    for (const XmlNode* prop : instance.children_named("configProperty")) {
      Property p;
      p.name = prop->child_text("name");
      const XmlNode* outer = prop->child("value");
      const XmlNode* type = outer == nullptr ? nullptr : outer->child("type");
      const XmlNode* inner = outer == nullptr ? nullptr : outer->child("value");
      if (p.name.empty() || type == nullptr || inner == nullptr) {
        return Status::error("configProperty '" + p.name +
                             "' needs a <name> and a <value> holding <type> "
                             "and a nested <value>");
      }
      p.kind = type->child_text("kind");
      p.value = inner->child_text(p.kind == "tk_long" ? "long" : "string");
      props_.push_back(std::move(p));
    }
    return Status::ok();
  }

  template <typename Strategy>
  void strategy(const char* name, Strategy& s) {
    const std::string* text = take(name, "tk_string");
    if (text == nullptr) return;
    constexpr std::size_t first = first_spelling<Strategy>();
    for (std::size_t i = first; i < kSpelling.size(); ++i) {
      if (*text == kSpelling[i]) {
        s = static_cast<Strategy>(i - first);
        return;
      }
    }
    fail(name, std::string(first == 0 ? "must be 'N', 'PT' or "
                                      : "must be 'PT' or ") +
                   "'PJ', got '" + *text + "'");
  }
  void field(const char* name, sched::PlacementPolicy& p) {
    const std::string* text = take(name, "tk_string");
    if (text == nullptr) return;
    const auto policy = sched::parse_placement_policy(*text);
    if (policy.is_ok()) {
      p = policy.value();
    } else {
      fail(name, policy.message());
    }
  }
  void field(const char* name, core::AperiodicAnalysis& a) {
    const std::string* text = take(name, "tk_string");
    if (text == nullptr) return;
    if (*text != "AUB" && *text != "DS") {
      fail(name, "must be 'AUB' or 'DS', got '" + *text + "'");
      return;
    }
    a = *text == "DS" ? core::AperiodicAnalysis::kDeferrableServer
                      : core::AperiodicAnalysis::kAub;
  }
  void field(const char* name, Duration& d, bool required = false) {
    if (auto v = number(name, kInt64Min, kInt64Max, required)) d = Duration(*v);
  }
  void field(const char* name, Priority& p, bool required = false) {
    const std::int64_t lo = std::numeric_limits<std::int32_t>::min();
    if (auto v = number(name, lo, kInt32Max, required)) {
      p = Priority(static_cast<std::int32_t>(*v));
    }
  }
  void field(const char* name, std::uint64_t& seed) {
    if (auto v = number(name, kInt64Min, kInt64Max, false)) {
      seed = static_cast<std::uint64_t>(*v);
    }
  }
  void field(const char* name, std::uint32_t& stage, bool required = false) {
    // 2^32 - 1 is the wildcard stage of event subscriptions.
    const std::int64_t hi = std::numeric_limits<std::uint32_t>::max() - 1;
    if (auto v = number(name, 0, hi, required)) {
      stage = static_cast<std::uint32_t>(*v);
    }
  }
  void field(const char* name, TaskId& task, bool required = false) {
    if (auto v = number(name, 0, kInt32Max, required)) {
      task = TaskId(static_cast<std::int32_t>(*v));
    }
  }
  /// TE and IR repeat their node, which must agree with <node>.
  void node(const char* name, ProcessorId node) {
    const auto v = number(name, kInt64Min, kInt64Max, false);
    if (v && *v != node.value()) {
      fail(name, std::to_string(*v) + " disagrees with <node> " +
                     std::to_string(node.value()));
    }
  }

  /// The first error, or one naming a property no field claimed.
  Status finish(ComponentKind kind) const {
    if (!status_.is_ok()) return status_;
    for (const Property& p : props_) {
      if (!p.taken) {
        return Status::error("property '" + p.name + "' is not a property of " +
                             implementation(kind));
      }
    }
    return Status::ok();
  }

 private:
  struct Property {
    std::string name;
    std::string kind;
    std::string value;
    bool taken = false;
  };

  /// The value of property `name` (its last occurrence), or null when it is
  /// absent, of another kind, or an error was already seen.
  const std::string* take(const char* name, const char* kind,
                          bool required = false) {
    Property* found = nullptr;
    for (Property& p : props_) {
      if (p.name == name) {
        p.taken = true;
        found = &p;
      }
    }
    if (!status_.is_ok()) return nullptr;
    if (found == nullptr) {
      if (required) {
        status_ = Status::error(std::string("missing required property '") +
                                name + "'");
      }
      return nullptr;
    }
    if (found->kind != kind) {
      fail(name, std::string("must be ") + kind + ", got '" + found->kind +
                     "'");
      return nullptr;
    }
    return &found->value;
  }

  std::optional<std::int64_t> number(const char* name, std::int64_t lo,
                                     std::int64_t hi, bool required) {
    const std::string* text = take(name, "tk_long", required);
    std::int64_t v = 0;
    if (text == nullptr) return std::nullopt;
    if (Status s = read_long(*text, lo, hi, v); !s.is_ok()) {
      fail(name, s.message());
      return std::nullopt;
    }
    return v;
  }

  void fail(const char* name, const std::string& what) {
    if (status_.is_ok()) {
      status_ = Status::error(std::string("property '") + name + "' " + what);
    }
  }

  std::vector<Property> props_;
  Status status_ = Status::ok();
};

Result<InstanceDeployment> instance_from_xml(const XmlNode& node) {
  using R = Result<InstanceDeployment>;
  const std::string id = node.attribute("id");
  if (id.empty()) return R::error("<instance> without an id");
  const std::string impl = node.child_text("implementation");
  InstanceDeployment inst;
  bool known = false;
  for (const auto& [kind, name] : kImplementations) {
    if (impl == name) {
      inst.id.kind = kind;
      known = true;
    }
  }
  if (!known) {
    return R::error("instance '" + id + "' has unknown implementation '" +
                    impl + "'");
  }
  std::int64_t node_id = 0;
  if (!read_long(node.child_text("node"), 0, kInt32Max, node_id).is_ok()) {
    return R::error("instance '" + id + "' has a malformed <node>");
  }
  inst.id.node = ProcessorId(static_cast<std::int32_t>(node_id));
  inst.config = ccm::default_config(inst.id.kind);

  Reader reader;
  Status s = reader.collect(node);
  if (s.is_ok()) {
    properties(reader, inst.id, inst.config);
    s = reader.finish(inst.id.kind);
  }
  if (!s.is_ok()) return R::error("instance '" + id + "': " + s.message());
  if (const std::string identity = inst.id.to_string(); id != identity) {
    return R::error("instance '" + id + "': id disagrees with its identity '" +
                    identity + "'");
  }
  return inst;
}

/// Instance ids as the descriptor spells them, with their identities.
using IdTable = std::vector<std::pair<std::string, InstanceId>>;

Result<ConnectionDeployment> connection_from_xml(const XmlNode& node,
                                                 const IdTable& ids) {
  using R = Result<ConnectionDeployment>;
  const std::string name = node.child_text("name");
  const XmlNode* facet = node.child("facetEndpoint");
  const XmlNode* receptacle = node.child("receptacleEndpoint");
  if (facet == nullptr || receptacle == nullptr) {
    return R::error("connection '" + name +
                    "' must have facetEndpoint and receptacleEndpoint");
  }
  const auto resolve = [&ids](const std::string& id)
      -> std::optional<InstanceId> {
    for (const auto& [spelled, identity] : ids) {
      if (spelled == id) return identity;
    }
    return std::nullopt;
  };
  const std::string source_id = receptacle->attribute("instance");
  const std::string target_id = facet->attribute("instance");
  const auto source = resolve(source_id);
  const auto target = resolve(target_id);
  if (!source || !target) {
    return R::error("connection '" + name + "' references unknown instance '" +
                    (source ? target_id : source_id) + "'");
  }
  const std::string port = receptacle->attribute("port");
  if (facet->attribute("port") != port) {
    return R::error("connection '" + name + "': instance '" + target_id +
                    "' facet '" + facet->attribute("port") +
                    "' does not match receptacle '" + port + "'");
  }
  for (const Port p : {Port::kLocation, Port::kComplete}) {
    if (port == ccm::to_string(p)) {
      return ConnectionDeployment{*source, p, *target};
    }
  }
  return R::error("connection '" + name + "': instance '" + source_id +
                  "' has no receptacle '" + port + "'");
}

XmlNode endpoint(const char* name, const InstanceId& instance, Port port) {
  XmlNode node;
  node.name = name;
  node.attributes["instance"] = instance.to_string();
  node.attributes["port"] = ccm::to_string(port);
  return node;
}

}  // namespace

std::string plan_to_xml(const DeploymentPlan& plan) {
  XmlNode root;
  root.name = "Deployment:DeploymentPlan";
  if (!plan.label.empty()) root.attributes["label"] = plan.label;

  for (InstanceDeployment inst : plan.instances) {
    XmlNode node;
    node.name = "instance";
    node.attributes["id"] = inst.id.to_string();
    node.children.push_back(
        make_text("node", std::to_string(inst.id.node.value())));
    node.children.push_back(
        make_text("implementation", implementation(inst.id.kind)));
    Writer writer(node);
    properties(writer, inst.id, inst.config);
    root.children.push_back(std::move(node));
  }

  for (const ConnectionDeployment& conn : plan.connections) {
    XmlNode node;
    node.name = "connection";
    node.children.push_back(make_text("name", conn.name()));
    node.children.push_back(endpoint("facetEndpoint", conn.target, conn.port));
    node.children.push_back(
        endpoint("receptacleEndpoint", conn.source, conn.port));
    root.children.push_back(std::move(node));
  }
  return root.serialize();
}

Result<DeploymentPlan> plan_from_xml(const std::string& xml) {
  using R = Result<DeploymentPlan>;
  auto parsed = parse_xml(xml);
  if (!parsed.is_ok()) return R::error(parsed.message());
  const XmlNode root = std::move(parsed).value();
  if (root.name != "Deployment:DeploymentPlan") {
    return R::error("root element must be Deployment:DeploymentPlan, got '" +
                    root.name + "'");
  }

  DeploymentPlan plan;
  plan.label = root.attribute("label");
  IdTable ids;
  for (const XmlNode* node : root.children_named("instance")) {
    auto inst = instance_from_xml(*node);
    if (!inst.is_ok()) return R::error(inst.message());
    ids.emplace_back(node->attribute("id"), inst.value().id);
    plan.instances.push_back(std::move(inst).value());
  }
  for (const XmlNode* node : root.children_named("connection")) {
    auto conn = connection_from_xml(*node, ids);
    if (!conn.is_ok()) return R::error(conn.message());
    plan.connections.push_back(std::move(conn).value());
  }
  if (Status s = plan.validate(); !s.is_ok()) return R::error(s.message());
  return plan;
}

}  // namespace rtcm::dance
