#include "reconfig/plan_diff.h"

#include <algorithm>
#include <map>
#include <utility>

namespace rtcm::reconfig {

namespace {

using ConnectionKey = std::pair<dance::InstanceId, dance::Port>;

ConnectionKey key_of(const dance::ConnectionDeployment& c) {
  return {c.source, c.port};
}

std::string render_connection(const dance::InstanceId& source,
                              dance::Port port,
                              const dance::InstanceId& target) {
  const char* name = ccm::to_string(port);
  return source.to_string() + '.' + name + "->" + target.to_string() + '.' +
         name;
}

}  // namespace

const char* to_string(ChangeKind kind) {
  switch (kind) {
    case ChangeKind::kRemoveConnection:
      return "remove-connection";
    case ChangeKind::kRemoveInstance:
      return "remove-instance";
    case ChangeKind::kReconfigureInstance:
      return "reconfigure-instance";
    case ChangeKind::kAddInstance:
      return "add-instance";
    case ChangeKind::kRewireConnection:
      return "rewire-connection";
    case ChangeKind::kAddConnection:
      return "add-connection";
  }
  return "?";
}

std::size_t Changeset::count(ChangeKind kind) const {
  std::size_t n = 0;
  for (const Change& c : changes) {
    if (c.kind == kind) ++n;
  }
  return n;
}

std::string Changeset::render() const {
  std::string out;
  for (const Change& c : changes) {
    out += to_string(c.kind);
    switch (c.kind) {
      case ChangeKind::kRemoveInstance:
      case ChangeKind::kReconfigureInstance:
      case ChangeKind::kAddInstance:
        out += ' ' + c.instance.id.to_string() + '@' +
               c.instance.id.node.to_string();
        break;
      case ChangeKind::kRemoveConnection:
      case ChangeKind::kAddConnection:
        out += ' ' + render_connection(c.connection.source, c.connection.port,
                                       c.connection.target);
        break;
      case ChangeKind::kRewireConnection:
        out += ' ' + c.connection.source.to_string() + '.' +
               ccm::to_string(c.connection.port) + ": " +
               c.old_connection.target.to_string() + '.' +
               ccm::to_string(c.old_connection.port) + "->" +
               c.connection.target.to_string() + '.' +
               ccm::to_string(c.connection.port);
        break;
    }
    out += '\n';
  }
  return out;
}

Result<Changeset> PlanDiffer::diff(const dance::DeploymentPlan& from,
                                   const dance::DeploymentPlan& to) {
  using R = Result<Changeset>;
  if (Status s = from.validate(); !s.is_ok()) {
    return R::error("from-plan: " + s.message());
  }
  if (Status s = to.validate(); !s.is_ok()) {
    return R::error("to-plan: " + s.message());
  }

  Changeset out;
  out.from_label = from.label;
  out.to_label = to.label;

  std::map<dance::InstanceId, const dance::InstanceDeployment*> from_instances;
  std::map<dance::InstanceId, const dance::InstanceDeployment*> to_instances;
  for (const auto& inst : from.instances) from_instances[inst.id] = &inst;
  for (const auto& inst : to.instances) to_instances[inst.id] = &inst;

  std::map<ConnectionKey, const dance::ConnectionDeployment*> from_connections;
  std::map<ConnectionKey, const dance::ConnectionDeployment*> to_connections;
  for (const auto& conn : from.connections) {
    from_connections[key_of(conn)] = &conn;
  }
  for (const auto& conn : to.connections) to_connections[key_of(conn)] = &conn;

  const auto push = [&out](ChangeKind kind, auto&& fill) {
    Change c;
    c.kind = kind;
    fill(c);
    out.changes.push_back(std::move(c));
  };

  // 1. removed connections (from-plan order).
  for (const auto& conn : from.connections) {
    if (to_connections.count(key_of(conn)) == 0) {
      push(ChangeKind::kRemoveConnection,
           [&](Change& c) { c.connection = conn; });
    }
  }
  // 2. removed instances, 3. reconfigurations (from-plan order).
  for (const auto& inst : from.instances) {
    if (to_instances.count(inst.id) == 0) {
      push(ChangeKind::kRemoveInstance, [&](Change& c) { c.instance = inst; });
    }
  }
  for (const auto& inst : from.instances) {
    const auto it = to_instances.find(inst.id);
    if (it != to_instances.end() && it->second->config != inst.config) {
      push(ChangeKind::kReconfigureInstance,
           [&](Change& c) { c.instance = *it->second; });
    }
  }
  // 4. added instances (to-plan order, preserving install-order deps).
  for (const auto& inst : to.instances) {
    if (from_instances.count(inst.id) == 0) {
      push(ChangeKind::kAddInstance, [&](Change& c) { c.instance = inst; });
    }
  }
  // 5. rewires, 6. added connections (to-plan order).
  for (const auto& conn : to.connections) {
    const auto it = from_connections.find(key_of(conn));
    if (it != from_connections.end() && it->second->target != conn.target) {
      push(ChangeKind::kRewireConnection, [&](Change& c) {
        c.connection = conn;
        c.old_connection = *it->second;
      });
    }
  }
  for (const auto& conn : to.connections) {
    if (from_connections.count(key_of(conn)) == 0) {
      push(ChangeKind::kAddConnection,
           [&](Change& c) { c.connection = conn; });
    }
  }
  return out;
}

Result<dance::DeploymentPlan> apply_changeset(
    const dance::DeploymentPlan& plan, const Changeset& changes) {
  using R = Result<dance::DeploymentPlan>;
  dance::DeploymentPlan out = plan;
  out.label = changes.to_label.empty() ? plan.label : changes.to_label;

  auto find_instance = [&out](const dance::InstanceId& id) {
    return std::find_if(
        out.instances.begin(), out.instances.end(),
        [&id](const dance::InstanceDeployment& inst) { return inst.id == id; });
  };
  auto find_connection = [&out](const dance::ConnectionDeployment& conn) {
    return std::find_if(out.connections.begin(), out.connections.end(),
                        [&conn](const dance::ConnectionDeployment& c) {
                          return key_of(c) == key_of(conn);
                        });
  };
  const auto on = [](const dance::ConnectionDeployment& c) {
    return c.source.to_string() + "." + ccm::to_string(c.port);
  };

  for (const Change& change : changes.changes) {
    const std::string what = to_string(change.kind);
    switch (change.kind) {
      case ChangeKind::kRemoveConnection:
      case ChangeKind::kRewireConnection: {
        const auto it = find_connection(change.connection);
        if (it == out.connections.end()) {
          return R::error(what + ": no connection on " + on(change.connection));
        }
        if (change.kind == ChangeKind::kRemoveConnection) {
          out.connections.erase(it);
        } else {
          *it = change.connection;
        }
        break;
      }
      case ChangeKind::kRemoveInstance:
      case ChangeKind::kReconfigureInstance: {
        const auto it = find_instance(change.instance.id);
        if (it == out.instances.end()) {
          return R::error(what + ": no instance '" +
                          change.instance.id.to_string() + "'");
        }
        if (change.kind == ChangeKind::kRemoveInstance) {
          out.instances.erase(it);
        } else {
          *it = change.instance;
        }
        break;
      }
      case ChangeKind::kAddInstance: {
        if (find_instance(change.instance.id) != out.instances.end()) {
          return R::error(what + ": duplicate instance '" +
                          change.instance.id.to_string() + "'");
        }
        out.instances.push_back(change.instance);
        break;
      }
      case ChangeKind::kAddConnection: {
        if (find_connection(change.connection) != out.connections.end()) {
          return R::error(what + ": duplicate connection on " +
                          on(change.connection));
        }
        out.connections.push_back(change.connection);
        break;
      }
    }
  }
  if (Status s = out.validate(); !s.is_ok()) {
    return R::error("applied plan invalid: " + s.message());
  }
  return out;
}

}  // namespace rtcm::reconfig
