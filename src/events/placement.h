// A job's stage-to-processor assignment: placement[j] runs stage j.
//
// The LB proposes one, the AC admits it, and the Accept and Trigger events
// carry it to every stage of the job (paper Figure 7).  It is copied into
// every event delivery, every subjob completion capture and every
// next-stage Trigger, so it is a util::InlineList: up to 5 stages (every
// shipped shape) live inline and do not allocate on that path, and only a
// longer placement spills to one exact-size heap block.
//
// Size is 24 bytes, which keeps events::Event (and a destination pointer)
// inside sim::EventFn's inline capacity; federated_channel.cpp asserts it.
#pragma once

#include "util/ids.h"
#include "util/inline_list.h"

namespace rtcm::events {

using Placement = util::InlineList<ProcessorId, 5>;

static_assert(sizeof(Placement) == 24);

}  // namespace rtcm::events
