// Load Balancer (LB) component (paper §4.4, §5).
//
// Runs next to the AC on the central task manager processor and answers its
// "Location" calls: given a task and the current synthetic utilizations,
// propose the per-stage processor assignment that keeps utilization
// balanced (lowest-synthetic-utilization replica, greedy per stage).
//
// The "Policy" attribute exists for the ablation bench: the paper's
// heuristic ("lowest-util"), no balancing ("primary"), or uniform random
// replica choice ("random", with a "Seed" attribute).
#pragma once

#include <cstdint>
#include <optional>

#include "ccm/component.h"
#include "core/protocols.h"
#include "sched/load_balancer.h"
#include "util/rng.h"

namespace rtcm::core {

class LoadBalancerComponent final : public ccm::Component,
                                    public LocationService {
 public:
  static constexpr const char* kTypeName = "rtcm.LoadBalancer";
  static constexpr const char* kPolicyAttr = "Policy";
  static constexpr const char* kSeedAttr = "Seed";

  LoadBalancerComponent();

  /// Facet "Location": this component's LocationService.
  [[nodiscard]] bool provides(std::string_view facet) const override {
    return facet == kLocationPort;
  }

  // LocationService
  events::Placement propose_placement(
      const sched::TaskSpec& task,
      const sched::UtilizationLedger& ledger) override;

  [[nodiscard]] std::uint64_t location_calls() const {
    return location_calls_;
  }
  [[nodiscard]] sched::PlacementPolicy policy() const {
    return balancer_.policy();
  }

  /// Placement policy swaps are a mode change the reconfiguration engine
  /// applies live (on_configure rebuilds the balancer idempotently).
  [[nodiscard]] bool supports_runtime_reconfiguration() const override {
    return true;
  }

 protected:
  [[nodiscard]] Status on_configure(
      const ccm::AttributeMap& attributes) override;

 private:
  sched::LoadBalancer balancer_;
  std::optional<Rng> rng_;
  std::uint64_t location_calls_ = 0;
};

}  // namespace rtcm::core
