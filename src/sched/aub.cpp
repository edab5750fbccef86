#include "sched/aub.h"

namespace rtcm::sched {

AubUnits aub_term_units(UtilizationLedger::Units n) {
  if (n >= kAubBound) return kAubSaturated;
  const AubUnits numerator = AubUnits{n} * ((kAubBound << 1) - n);
  const AubUnits denominator = (kAubBound - n) << 1;
  return std::min((numerator + denominator - 1) / denominator, kAubSaturated);
}

}  // namespace rtcm::sched
