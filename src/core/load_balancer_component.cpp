#include "core/load_balancer_component.h"

namespace rtcm::core {

LoadBalancerComponent::LoadBalancerComponent()
    : Component(ccm::ComponentKind::kLoadBalancer) {}

Status LoadBalancerComponent::on_configure(const ccm::ComponentConfig& config) {
  const auto& lb = std::get<ccm::LbConfig>(config);
  balancer_ = sched::LoadBalancer(lb.policy);
  if (lb.policy == sched::PlacementPolicy::kRandomReplica) {
    rng_.emplace(lb.seed);
    balancer_.set_random_pick(
        [this](std::size_t n) { return rng_->index(n); });
  }
  return Status::ok();
}

events::Placement LoadBalancerComponent::propose_placement(
    const sched::TaskSpec& task, const sched::UtilizationLedger& ledger) {
  ++location_calls_;
  return balancer_.place(task, ledger);
}

}  // namespace rtcm::core
