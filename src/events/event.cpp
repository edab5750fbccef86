#include "events/event.h"

namespace rtcm::events {

const char* to_string(EventType type) {
  switch (type) {
    case EventType::kTaskArrive:
      return "TaskArrive";
    case EventType::kAccept:
      return "Accept";
    case EventType::kReject:
      return "Reject";
    case EventType::kTrigger:
      return "Trigger";
    case EventType::kIdleReset:
      return "IdleReset";
  }
  return "?";
}

Addressees addressees(const EventPayload& payload) {
  if (const auto* trigger = std::get_if<TriggerPayload>(&payload)) {
    if (trigger->stage < trigger->placement.size()) {
      return {trigger->placement[trigger->stage], ProcessorId()};
    }
  } else if (const auto* accept = std::get_if<AcceptPayload>(&payload)) {
    return {accept->arrival_processor, accept->placement.empty()
                                           ? ProcessorId()
                                           : accept->placement.front()};
  } else if (const auto* reject = std::get_if<RejectPayload>(&payload)) {
    return {reject->arrival_processor, ProcessorId()};
  }
  return {};
}

std::string Event::to_string() const {
  // Sequential appends, not `" " + x.to_string() + ...`: the literal+rvalue
  // operator+ chain trips GCC 12's -Wrestrict false positive when inlined
  // at -O3 (PR105651), and the library builds with -Werror.
  std::string out = events::to_string(type());
  out += " from ";
  out += source.to_string();
  out += " at ";
  out += published.to_string();
  std::visit(
      [&out](const auto& p) {
        using T = std::decay_t<decltype(p)>;
        if constexpr (std::is_same_v<T, TaskArrivePayload>) {
          out += ' ';
          out += p.task.to_string();
          out += '/';
          out += p.job.to_string();
          out += " @";
          out += p.arrival_processor.to_string();
        } else if constexpr (std::is_same_v<T, AcceptPayload> ||
                             std::is_same_v<T, RejectPayload>) {
          out += ' ';
          out += p.task.to_string();
          out += '/';
          out += p.job.to_string();
        } else if constexpr (std::is_same_v<T, TriggerPayload>) {
          out += ' ';
          out += p.task.to_string();
          out += '/';
          out += p.job.to_string();
          out += " stage ";
          out += std::to_string(p.stage);
        } else if constexpr (std::is_same_v<T, IdleResetPayload>) {
          out += ' ';
          out += p.processor.to_string();
          out += " x";
          out += std::to_string(p.completed.size());
        }
      },
      payload);
  return out;
}

}  // namespace rtcm::events
