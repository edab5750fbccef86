#include "core/load_balancer_component.h"

namespace rtcm::core {

LoadBalancerComponent::LoadBalancerComponent() : Component(kTypeName) {}

Status LoadBalancerComponent::on_configure(
    const ccm::AttributeMap& attributes) {
  const std::string policy =
      attributes.get_string_or(kPolicyAttr, "lowest-util");
  if (policy == "lowest-util") {
    balancer_ = sched::LoadBalancer(sched::PlacementPolicy::kLowestUtilization);
  } else if (policy == "primary") {
    balancer_ = sched::LoadBalancer(sched::PlacementPolicy::kPrimaryOnly);
  } else if (policy == "random") {
    balancer_ = sched::LoadBalancer(sched::PlacementPolicy::kRandomReplica);
    rng_.emplace(static_cast<std::uint64_t>(
        attributes.get_int_or(kSeedAttr, 1)));
    balancer_.set_random_pick(
        [this](std::size_t n) { return rng_->index(n); });
  } else {
    return Status::error(
        "LB Policy must be 'lowest-util', 'primary' or 'random', got '" +
        policy + "'");
  }
  return Status::ok();
}

std::vector<ProcessorId> LoadBalancerComponent::propose_placement(
    const sched::TaskSpec& task, const sched::UtilizationLedger& ledger) {
  ++location_calls_;
  return balancer_.place(task, ledger);
}

}  // namespace rtcm::core
