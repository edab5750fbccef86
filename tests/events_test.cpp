#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "events/event.h"
#include "events/federated_channel.h"
#include "events/local_channel.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace rtcm::events {
namespace {

Event make_trigger(ProcessorId source, TaskId task, std::size_t stage,
                   std::vector<ProcessorId> placement) {
  return Event{source, Time(0),
               TriggerPayload{task, JobId(1), stage, std::move(placement),
                              Time(1000000), Time(0)}};
}

// --- Event -------------------------------------------------------------------

TEST(EventTest, TypeFromPayload) {
  Event e{
      ProcessorId(0), Time(0),
      TaskArrivePayload{TaskId(1), JobId(2), ProcessorId(0), Time(0), true}};
  EXPECT_EQ(e.type(), EventType::kTaskArrive);
  e.payload = AcceptPayload{};
  EXPECT_EQ(e.type(), EventType::kAccept);
  e.payload = RejectPayload{};
  EXPECT_EQ(e.type(), EventType::kReject);
  e.payload = TriggerPayload{};
  EXPECT_EQ(e.type(), EventType::kTrigger);
  e.payload = IdleResetPayload{};
  EXPECT_EQ(e.type(), EventType::kIdleReset);
}

TEST(EventTest, PayloadAs) {
  const Event e{ProcessorId(3), Time(5),
                TaskArrivePayload{TaskId(1), JobId(2), ProcessorId(3), Time(5),
                                  false}};
  const auto& p = payload_as<TaskArrivePayload>(e);
  EXPECT_EQ(p.task, TaskId(1));
  EXPECT_EQ(p.job, JobId(2));
}

TEST(EventTest, ToStringMentionsTypeAndIds) {
  const Event e{ProcessorId(3), Time(5),
                TaskArrivePayload{TaskId(1), JobId(2), ProcessorId(3), Time(5),
                                  false}};
  const std::string s = e.to_string();
  EXPECT_NE(s.find("TaskArrive"), std::string::npos);
  EXPECT_NE(s.find("T1"), std::string::npos);
  EXPECT_NE(s.find("J2"), std::string::npos);
}

// --- LocalEventChannel -------------------------------------------------------

TEST(LocalChannelTest, DeliversToMatchingType) {
  LocalEventChannel channel(ProcessorId(0));
  int hits = 0;
  channel.subscribe(EventType::kTrigger, [&](const Event&) { ++hits; });
  channel.deliver(make_trigger(ProcessorId(0), TaskId(1), 0, {ProcessorId(0)}));
  channel.deliver(Event{ProcessorId(0), Time(0), AcceptPayload{}});
  EXPECT_EQ(hits, 1);
  EXPECT_EQ(channel.delivered_count(), 1u);
}

TEST(LocalChannelTest, KeyNarrowsDelivery) {
  LocalEventChannel channel(ProcessorId(0));
  int hits = 0;
  channel.subscribe(SubscriptionKey(EventType::kTrigger).for_task(TaskId(7)),
                    [&](const Event&) { ++hits; });
  channel.deliver(make_trigger(ProcessorId(0), TaskId(7), 0, {ProcessorId(0)}));
  channel.deliver(make_trigger(ProcessorId(0), TaskId(8), 0, {ProcessorId(0)}));
  EXPECT_EQ(hits, 1);
}

TEST(LocalChannelTest, MatchesQueriesWithoutDelivering) {
  LocalEventChannel channel(ProcessorId(0));
  channel.subscribe(EventType::kAccept, [](const Event&) {});
  EXPECT_TRUE(channel.matches(Event{ProcessorId(0), Time(0), AcceptPayload{}}));
  EXPECT_FALSE(
      channel.matches(Event{ProcessorId(0), Time(0), RejectPayload{}}));
  EXPECT_EQ(channel.delivered_count(), 0u);
}

TEST(LocalChannelTest, MultipleConsumersInSubscriptionOrder) {
  LocalEventChannel channel(ProcessorId(0));
  std::vector<int> order;
  channel.subscribe(EventType::kAccept,
                    [&](const Event&) { order.push_back(1); });
  channel.subscribe(EventType::kAccept,
                    [&](const Event&) { order.push_back(2); });
  channel.deliver(Event{ProcessorId(0), Time(0), AcceptPayload{}});
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(LocalChannelTest, Unsubscribe) {
  LocalEventChannel channel(ProcessorId(0));
  int hits = 0;
  const auto id =
      channel.subscribe(EventType::kAccept, [&](const Event&) { ++hits; });
  EXPECT_EQ(channel.subscription_count(), 1u);
  EXPECT_TRUE(channel.unsubscribe(id));
  EXPECT_FALSE(channel.unsubscribe(id));
  channel.deliver(Event{ProcessorId(0), Time(0), AcceptPayload{}});
  EXPECT_EQ(hits, 0);
}

TEST(LocalChannelTest, ConsumerMaySubscribeDuringDelivery) {
  LocalEventChannel channel(ProcessorId(0));
  int late_hits = 0;
  channel.subscribe(EventType::kAccept, [&](const Event&) {
    channel.subscribe(EventType::kAccept,
                      [&](const Event&) { ++late_hits; });
  });
  channel.deliver(Event{ProcessorId(0), Time(0), AcceptPayload{}});
  // The subscription created during delivery must not receive the event
  // that triggered it.
  EXPECT_EQ(late_hits, 0);
  channel.deliver(Event{ProcessorId(0), Time(0), AcceptPayload{}});
  EXPECT_EQ(late_hits, 1);
}

TEST(LocalChannelTest, ConsumersRunInSubscriptionOrderAcrossKeys) {
  LocalEventChannel channel(ProcessorId(1));
  std::string order;
  const auto record = [&order](char c) {
    return [&order, c](const Event&) { order += c; };
  };
  const SubscriptionKey trigger(EventType::kTrigger);
  channel.subscribe(trigger, record('a'));
  channel.subscribe(trigger.for_task(TaskId(7)), record('b'));
  channel.subscribe(trigger.for_task(TaskId(7)).for_stage(1).to_this_processor(),
                    record('c'));
  channel.subscribe(trigger, record('d'));
  channel.subscribe(trigger.for_task(TaskId(8)), record('x'));
  channel.subscribe(trigger.for_stage(1), record('e'));
  channel.subscribe(trigger.for_stage(0), record('y'));
  channel.subscribe(trigger.for_task(TaskId(7)).for_stage(1), record('f'));
  channel.subscribe(EventType::kAccept, record('z'));
  channel.deliver(make_trigger(ProcessorId(0), TaskId(7), 1,
                               {ProcessorId(0), ProcessorId(1)}));
  EXPECT_EQ(order, "abcdef");
  std::vector<SubscriptionId> ids;
  channel.consumers(make_trigger(ProcessorId(0), TaskId(7), 1,
                                 {ProcessorId(0), ProcessorId(1)}),
                    ids);
  EXPECT_EQ(ids.size(), 6u);
  EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
}

TEST(LocalChannelTest, AddressedKeysFollowThePayloadsDestinations) {
  LocalEventChannel channel(ProcessorId(2));
  int accepts = 0;
  int rejects = 0;
  int arrivals = 0;
  channel.subscribe(SubscriptionKey(EventType::kAccept).to_this_processor(),
                    [&](const Event&) { ++accepts; });
  channel.subscribe(SubscriptionKey(EventType::kReject).to_this_processor(),
                    [&](const Event&) { ++rejects; });
  channel.subscribe(
      SubscriptionKey(EventType::kTaskArrive).to_this_processor(),
      [&](const Event&) { ++arrivals; });
  const auto accept = [](ProcessorId arrival,
                         std::vector<ProcessorId> placement) {
    return Event{ProcessorId(0), Time(0),
                 AcceptPayload{TaskId(1), JobId(1), arrival,
                               std::move(placement), Time(99), false}};
  };
  channel.deliver(accept(ProcessorId(2), {ProcessorId(3)}));  // arrival
  channel.deliver(accept(ProcessorId(3), {ProcessorId(2)}));  // placement[0]
  channel.deliver(accept(ProcessorId(3), {ProcessorId(4), ProcessorId(2)}));
  channel.deliver(accept(ProcessorId(3), {}));
  EXPECT_EQ(accepts, 2);
  channel.deliver(
      Event{ProcessorId(0), Time(0),
            RejectPayload{TaskId(1), JobId(1), ProcessorId(2)}});
  channel.deliver(
      Event{ProcessorId(0), Time(0),
            RejectPayload{TaskId(1), JobId(1), ProcessorId(3)}});
  EXPECT_EQ(rejects, 1);
  // TaskArrive names no destination, so an addressed key never takes it.
  channel.deliver(Event{ProcessorId(2), Time(0),
                        TaskArrivePayload{TaskId(1), JobId(1), ProcessorId(2),
                                          Time(0), true}});
  EXPECT_EQ(arrivals, 0);
  // A Trigger goes to placement[stage] only; a stage past the end to nobody.
  EXPECT_TRUE(channel.subscription_count() == 3u);
  int triggers = 0;
  channel.subscribe(SubscriptionKey(EventType::kTrigger).to_this_processor(),
                    [&](const Event&) { ++triggers; });
  channel.deliver(make_trigger(ProcessorId(0), TaskId(1), 1,
                               {ProcessorId(2), ProcessorId(5)}));
  channel.deliver(make_trigger(ProcessorId(0), TaskId(1), 0,
                               {ProcessorId(2), ProcessorId(5)}));
  channel.deliver(make_trigger(ProcessorId(0), TaskId(1), 2,
                               {ProcessorId(2), ProcessorId(5)}));
  EXPECT_EQ(triggers, 1);
}

TEST(LocalChannelTest, ConsumerRemovedDuringDeliveryIsNotCalled) {
  LocalEventChannel channel(ProcessorId(0));
  int later_hits = 0;
  SubscriptionId later;
  channel.subscribe(EventType::kAccept, [&](const Event&) {
    EXPECT_TRUE(channel.unsubscribe(later));
  });
  later = channel.subscribe(EventType::kAccept,
                            [&](const Event&) { ++later_hits; });
  channel.deliver(Event{ProcessorId(0), Time(0), AcceptPayload{}});
  EXPECT_EQ(later_hits, 0);
  EXPECT_EQ(channel.subscription_count(), 1u);
  EXPECT_EQ(channel.delivered_count(), 1u);
  EXPECT_EQ(channel.subscriptions().size(), 1u);
}

// --- FederatedEventChannel ---------------------------------------------------

class FederationFixture : public ::testing::Test {
 protected:
  FederationFixture()
      : network_(sim_, std::make_unique<sim::ConstantLatency>(
                           Duration(322), Duration::zero())),
        federation_(sim_, network_) {}

  sim::Simulator sim_;
  sim::Network network_;
  FederatedEventChannel federation_;
};

TEST_F(FederationFixture, RoutesOnlyToInterestedChannels) {
  int p1_hits = 0;
  int p2_hits = 0;
  federation_.channel(ProcessorId(1))
      .subscribe(EventType::kTrigger, [&](const Event&) { ++p1_hits; });
  federation_.channel(ProcessorId(2))
      .subscribe(EventType::kAccept, [&](const Event&) { ++p2_hits; });

  federation_.push(ProcessorId(0),
                   TriggerPayload{TaskId(1), JobId(1), 0,
                                  {ProcessorId(1)}, Time(1000), Time(0)});
  sim_.run_all();
  EXPECT_EQ(p1_hits, 1);
  EXPECT_EQ(p2_hits, 0);
  EXPECT_EQ(federation_.stats().events_pushed, 1u);
  EXPECT_EQ(federation_.stats().remote_deliveries, 1u);
  // Only one network message: the gateway filtered P2 out at the source.
  EXPECT_EQ(network_.stats().messages_sent, 1u);
}

TEST_F(FederationFixture, RemoteDeliveryIncursLatency) {
  Time delivered;
  federation_.channel(ProcessorId(1))
      .subscribe(EventType::kAccept,
                 [&](const Event&) { delivered = sim_.now(); });
  federation_.push(ProcessorId(0),
                   AcceptPayload{TaskId(1), JobId(1), ProcessorId(1),
                                 {ProcessorId(1)}, Time(99), false});
  sim_.run_all();
  EXPECT_EQ(delivered, Time(322));
}

TEST_F(FederationFixture, LocalDeliveryUsesLoopback) {
  Time delivered;
  federation_.channel(ProcessorId(0))
      .subscribe(EventType::kAccept,
                 [&](const Event&) { delivered = sim_.now(); });
  federation_.push(ProcessorId(0),
                   AcceptPayload{TaskId(1), JobId(1), ProcessorId(0),
                                 {ProcessorId(0)}, Time(99), false});
  sim_.run_all();
  EXPECT_EQ(delivered, Time(0));  // loopback latency configured as zero
  EXPECT_EQ(federation_.stats().local_deliveries, 1u);
}

TEST_F(FederationFixture, FanOutToMultipleProcessors) {
  int hits = 0;
  for (int p = 1; p <= 3; ++p) {
    federation_.channel(ProcessorId(p))
        .subscribe(EventType::kIdleReset, [&](const Event&) { ++hits; });
  }
  federation_.push(ProcessorId(0), IdleResetPayload{ProcessorId(0), {}});
  sim_.run_all();
  EXPECT_EQ(hits, 3);
  EXPECT_EQ(network_.stats().messages_sent, 3u);
}

TEST_F(FederationFixture, PublishedTimestampIsPushTime) {
  Time published;
  federation_.channel(ProcessorId(1))
      .subscribe(EventType::kAccept,
                 [&](const Event& e) { published = e.published; });
  sim_.schedule_at(Time(500), [&] {
    federation_.push(ProcessorId(0),
                     AcceptPayload{TaskId(1), JobId(1), ProcessorId(1),
                                   {ProcessorId(1)}, Time(99), false});
  });
  sim_.run_all();
  EXPECT_EQ(published, Time(500));
}

TEST_F(FederationFixture, ExaminesOnlyAddressedAndListeningChannels) {
  int hits = 0;
  for (std::int32_t p = 1; p <= 3; ++p) {
    federation_.channel(ProcessorId(p))
        .subscribe(SubscriptionKey(EventType::kTrigger)
                       .for_task(TaskId(p))
                       .for_stage(0)
                       .to_this_processor(),
                   [&](const Event&) { ++hits; });
  }
  const SubscriptionId idle =
      federation_.channel(ProcessorId(4))
          .subscribe(EventType::kIdleReset, [&](const Event&) { ++hits; });

  federation_.push(ProcessorId(0),
                   TriggerPayload{TaskId(2), JobId(1), 0,
                                  {ProcessorId(2)}, Time(1000), Time(0)});
  EXPECT_EQ(federation_.stats().channel_visits, 1u);
  // Addressed to P3, but P3 hosts task 3, not task 2: examined, not sent.
  federation_.push(ProcessorId(0),
                   TriggerPayload{TaskId(2), JobId(2), 0,
                                  {ProcessorId(3)}, Time(1000), Time(0)});
  EXPECT_EQ(federation_.stats().channel_visits, 2u);
  // Addressed to a processor without a channel: nothing to examine.
  federation_.push(ProcessorId(0),
                   TriggerPayload{TaskId(2), JobId(3), 0,
                                  {ProcessorId(9)}, Time(1000), Time(0)});
  EXPECT_EQ(federation_.stats().channel_visits, 2u);
  federation_.push(ProcessorId(0), IdleResetPayload{ProcessorId(0), {}});
  EXPECT_EQ(federation_.stats().channel_visits, 3u);
  EXPECT_TRUE(federation_.channel(ProcessorId(4)).unsubscribe(idle));
  federation_.push(ProcessorId(0), IdleResetPayload{ProcessorId(0), {}});
  EXPECT_EQ(federation_.stats().channel_visits, 3u);

  sim_.run_all();
  // Both sends arrive, but the IdleReset consumer was removed in flight.
  EXPECT_EQ(hits, 1);
  EXPECT_EQ(network_.stats().messages_sent, 2u);
  EXPECT_EQ(federation_.stats().remote_deliveries, 2u);
}

TEST_F(FederationFixture, SendsInAscendingProcessorOrder) {
  std::vector<std::int32_t> order;
  for (const std::int32_t p : {5, 1, 3}) {
    federation_.channel(ProcessorId(p))
        .subscribe(SubscriptionKey(EventType::kAccept).to_this_processor(),
                   [&order, p](const Event&) { order.push_back(p); });
  }
  federation_.channel(ProcessorId(3))
      .subscribe(EventType::kAccept,
                 [&order](const Event&) { order.push_back(30); });
  // Addressed to P5 (arrival) and P1 (placement[0]); P3 listens to all.
  federation_.push(ProcessorId(0),
                   AcceptPayload{TaskId(1), JobId(1), ProcessorId(5),
                                 {ProcessorId(1)}, Time(99), false});
  sim_.run_all();
  EXPECT_EQ(order, (std::vector<std::int32_t>{1, 30, 5}));
  EXPECT_EQ(federation_.stats().channel_visits, 3u);
}

TEST_F(FederationFixture, SubscriptionMadeDuringDeliveryIsRoutedAtOnce) {
  int late_hits = 0;
  LocalEventChannel& p1 = federation_.channel(ProcessorId(1));
  p1.subscribe(EventType::kTaskArrive, [&](const Event&) {
    p1.subscribe(EventType::kAccept, [&](const Event&) { ++late_hits; });
    federation_.push(ProcessorId(1), AcceptPayload{});
  });
  federation_.push(ProcessorId(0),
                   TaskArrivePayload{TaskId(1), JobId(1), ProcessorId(0),
                                     Time(0), true});
  sim_.run_all();
  EXPECT_EQ(late_hits, 1);
}

TEST_F(FederationFixture, ChannelCreatedOnDemand) {
  EXPECT_EQ(federation_.channel_count(), 0u);
  federation_.channel(ProcessorId(4));
  federation_.channel(ProcessorId(4));
  EXPECT_EQ(federation_.channel_count(), 1u);
}

TEST(EventTypeNamesTest, AllNamed) {
  EXPECT_STREQ(to_string(EventType::kTaskArrive), "TaskArrive");
  EXPECT_STREQ(to_string(EventType::kAccept), "Accept");
  EXPECT_STREQ(to_string(EventType::kReject), "Reject");
  EXPECT_STREQ(to_string(EventType::kTrigger), "Trigger");
  EXPECT_STREQ(to_string(EventType::kIdleReset), "IdleReset");
}

}  // namespace
}  // namespace rtcm::events
