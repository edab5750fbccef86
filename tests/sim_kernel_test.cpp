// The event kernel against a reference that lives in this test.
//
// ReferenceKernel is the plainest possible implementation of the
// Simulator's contract: a std::multimap keyed by (time, seq) with one seq
// consumed per schedule/reschedule, and callbacks held in an ordered map.
// The tests replay identical randomized schedule / cancel / reschedule /
// run churn scripts against both — including same-instant ties, events
// scheduled from inside callbacks, horizons beyond 64^6 microseconds and
// run_until jumps over an empty queue — and require identical dispatch
// sequences and now() trajectories.  Arrivals the Simulator keeps on its
// timeline are ordinary events to the reference: scripts that inject
// sorted and unsorted batches (tied with scheduled events, injected after
// run_until and from inside callbacks and arrival handlers) must also
// leave pending() and executed() identical after every operation.
//
// Also here: the dead-entry regression tests.  cancel()/reschedule() used
// to leave dead entries queued until they surfaced at the front, so a
// reschedule storm against a far-future event grew queue memory and sift
// depth with *total* churn; the kernel now compacts once dead entries
// outnumber live ones, and these tests pin the O(live) bound.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "sim/simulator.h"
#include "util/rng.h"
#include "util/time.h"

namespace rtcm::sim {
namespace {

/// 64^6 microseconds (~19 simulated hours): the horizon class the far-
/// horizon script schedules beyond.
constexpr std::int64_t kFarUsec = 64LL * 64 * 64 * 64 * 64 * 64;

/// The Simulator contract on ordered std containers.  Handles are event
/// ids; a cancelled, fired or unknown id is dead.
class ReferenceKernel {
 public:
  using Handle = std::uint64_t;

  [[nodiscard]] Time now() const { return now_; }
  [[nodiscard]] std::uint64_t executed() const { return executed_; }
  [[nodiscard]] std::size_t pending() const { return queue_.size(); }

  void set_arrival_handler(Simulator::ArrivalHandler handler) {
    on_arrival_ = handler;
  }

  /// Each arrival is scheduled as one ordinary event, in injection order.
  template <typename Make>
  void inject_arrivals(std::size_t count, Make&& make) {
    for (std::size_t i = 0; i < count; ++i) {
      const Simulator::Arrival a = make(i);
      schedule_at(a.at, [handler = on_arrival_, a] {
        handler(a.target, a.payload);
      });
    }
  }

  Handle schedule_at(Time at, std::function<void()> fn) {
    const Handle id = next_id_++;
    where_[id] = queue_.emplace(Key{at.usec(), next_seq_++}, id);
    fns_[id] = std::move(fn);
    return id;
  }

  bool cancel(Handle id) {
    const auto it = where_.find(id);
    if (it == where_.end()) return false;
    queue_.erase(it->second);
    where_.erase(it);
    fns_.erase(id);
    return true;
  }

  bool reschedule(Handle& id, Time at) {
    const auto it = where_.find(id);
    if (it == where_.end()) return false;
    queue_.erase(it->second);
    it->second = queue_.emplace(Key{at.usec(), next_seq_++}, id);
    return true;
  }

  bool step() {
    if (queue_.empty()) return false;
    const auto front = queue_.begin();
    now_ = Time(front->first.first);
    const Handle id = front->second;
    queue_.erase(front);
    where_.erase(id);
    // Unregistered before the call, so the callback sees itself as dead.
    std::function<void()> fn = std::move(fns_.at(id));
    fns_.erase(id);
    ++executed_;
    fn();
    return true;
  }

  void run_until(Time deadline) {
    while (!queue_.empty() && Time(queue_.begin()->first.first) <= deadline) {
      step();
    }
    if (now_ < deadline) now_ = deadline;
  }

  void run_all() {
    while (step()) {
    }
  }

 private:
  using Key = std::pair<std::int64_t, std::uint64_t>;  // (time, seq)
  std::multimap<Key, Handle> queue_;
  std::map<Handle, std::multimap<Key, Handle>::iterator> where_;
  std::map<Handle, std::function<void()>> fns_;
  Time now_ = Time::epoch();
  std::uint64_t next_seq_ = 1;
  Handle next_id_ = 1;
  std::uint64_t executed_ = 0;
  Simulator::ArrivalHandler on_arrival_ = nullptr;
};

/// One externally-applied operation of a churn script.  Scripts are
/// generated once per seed and replayed verbatim against each kernel, so
/// both see exactly the same call sequence.
struct Op {
  enum Kind { kSchedule, kCancel, kReschedule, kRunUntil, kStep, kInject } kind;
  std::int64_t a = 0;  // schedule/reschedule/run_until: time offset
  std::size_t target = 0;  // cancel/reschedule: index into issued handles
  std::uint64_t id = 0;    // schedule/inject: (first) event identity
  std::vector<std::int64_t> batch = {};  // inject: one time offset each
};

using Log = std::vector<std::pair<std::int64_t, std::uint64_t>>;

/// Offsets span six orders of magnitude and (rarely) the far horizon, and
/// land on few enough distinct values to force same-time ties.
std::int64_t random_offset(Rng& rng) {
  static constexpr std::int64_t kSpans[] = {63, 4095, 262143, 16777215,
                                            kFarUsec * 2};
  const auto span = kSpans[static_cast<std::size_t>(rng.uniform_int(0, 4)) %
                           (rng.uniform_int(0, 9) == 0 ? 5 : 4)];
  return rng.uniform_int(0, span) & ~3LL;
}

/// With `arrivals`, about one op in ten injects a batch of 1-40 arrivals:
/// a third of the batches sorted, the rest in random order.
std::vector<Op> make_script(std::uint64_t seed, int ops,
                            bool arrivals = false) {
  Rng rng(seed);
  std::vector<Op> script;
  script.reserve(static_cast<std::size_t>(ops));
  std::uint64_t next_id = 1;
  std::size_t handles = 0;
  for (int i = 0; i < ops; ++i) {
    if (arrivals && rng.uniform_int(0, 9) == 0) {
      Op op{Op::kInject, 0, 0, next_id};
      op.batch.resize(static_cast<std::size_t>(rng.uniform_int(1, 40)));
      for (std::int64_t& offset : op.batch) offset = random_offset(rng);
      if (rng.uniform_int(0, 2) == 0) {
        std::sort(op.batch.begin(), op.batch.end());
      }
      next_id += op.batch.size();
      script.push_back(std::move(op));
      continue;
    }
    const std::int64_t roll = rng.uniform_int(0, 99);
    if (roll < 55 || handles == 0) {
      script.push_back({Op::kSchedule, random_offset(rng), 0, next_id++});
      ++handles;
    } else if (roll < 70) {
      script.push_back(
          {Op::kCancel, 0,
           static_cast<std::size_t>(rng.uniform_int(
               0, static_cast<std::int64_t>(handles) - 1))});
    } else if (roll < 85) {
      script.push_back(
          {Op::kReschedule, rng.uniform_int(0, 262143),
           static_cast<std::size_t>(rng.uniform_int(
               0, static_cast<std::int64_t>(handles) - 1))});
    } else if (roll < 95) {
      script.push_back({Op::kRunUntil, rng.uniform_int(0, 100000)});
    } else {
      script.push_back({Op::kStep, rng.uniform_int(1, 16)});
    }
  }
  return script;
}

/// Ids at or above this were spawned mid-run, not issued by the script.
constexpr std::uint64_t kSpawned = 1000000;

template <typename Kernel>
struct Replay {
  Kernel sim;
  Log log;
};

/// A scheduled event: logs (time, id).  Ids divisible by 7 schedule a
/// child event mid-dispatch, exercising the schedule-at-current-instant
/// path; script ids divisible by 5 inject an arrival mid-dispatch.
template <typename Kernel>
struct Recorder {
  Replay<Kernel>* r;
  std::uint64_t id;
  void operator()() const;
};

/// The arrival handler: logs (time, payload).  Payloads divisible by 3
/// schedule an event at or just after their own instant, as a TE's Task
/// Arrive push does.
template <typename Kernel>
void arrive(void* target, std::uint64_t payload) {
  auto* r = static_cast<Replay<Kernel>*>(target);
  r->log.emplace_back(r->sim.now().usec(), payload);
  if (payload % 3 == 0) {
    r->sim.schedule_at(r->sim.now() + Duration(static_cast<std::int64_t>(
                                          payload % 4 * 4)),
                       Recorder<Kernel>{r, payload + kSpawned});
  }
}

template <typename Kernel>
void Recorder<Kernel>::operator()() const {
  r->log.emplace_back(r->sim.now().usec(), id);
  if (id % 7 == 0) {
    r->sim.schedule_at(r->sim.now() + Duration(id % 977),
                       Recorder{r, id + kSpawned});
  }
  if (id < kSpawned && id % 5 == 0) {
    const Time at = r->sim.now() + Duration(static_cast<std::int64_t>(
                                       id % 613 & ~3ULL));
    r->sim.inject_arrivals(1, [this, at](std::size_t) {
      return Simulator::Arrival{at, r, id + 3 * kSpawned};
    });
  }
}

/// Replay a script and return the dispatch log: (time, id) per executed
/// event, a now() sample after every run op, and (pending, executed)
/// after every op.
template <typename Kernel, typename Handle>
Log replay(const std::vector<Op>& script) {
  Replay<Kernel> r;
  Kernel& sim = r.sim;
  Log& log = r.log;
  sim.set_arrival_handler(&arrive<Kernel>);
  std::vector<Handle> handles;
  for (const Op& op : script) {
    switch (op.kind) {
      case Op::kSchedule:
        handles.push_back(sim.schedule_at(sim.now() + Duration(op.a),
                                          Recorder<Kernel>{&r, op.id}));
        break;
      case Op::kCancel:
        sim.cancel(handles[op.target]);
        break;
      case Op::kReschedule:
        sim.reschedule(handles[op.target], sim.now() + Duration(op.a));
        break;
      case Op::kRunUntil:
        sim.run_until(sim.now() + Duration(op.a));
        log.emplace_back(sim.now().usec(), 0);  // pin the now() trajectory
        break;
      case Op::kStep:
        for (std::int64_t n = 0; n < op.a; ++n) {
          if (!sim.step()) break;
        }
        break;
      case Op::kInject:
        sim.inject_arrivals(op.batch.size(), [&](std::size_t i) {
          return Simulator::Arrival{sim.now() + Duration(op.batch[i]), &r,
                                    op.id + i};
        });
        break;
    }
    log.emplace_back(static_cast<std::int64_t>(sim.pending()),
                     sim.executed());
  }
  sim.run_all();
  log.emplace_back(sim.now().usec(), sim.executed());  // totals agree too
  EXPECT_EQ(sim.pending(), 0u);
  return log;
}

/// Replay `script` on the Simulator and on the reference; the logs must be
/// identical.  Returns the Simulator's log.
Log expect_matches_reference(const std::vector<Op>& script,
                             std::uint64_t seed) {
  Log kernel_log = replay<Simulator, EventHandle>(script);
  EXPECT_EQ(kernel_log,
            (replay<ReferenceKernel, ReferenceKernel::Handle>(script)))
      << "seed " << seed;
  return kernel_log;
}

TEST(KernelReferenceTest, RandomChurnMatchesReference) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const Log log = expect_matches_reference(make_script(seed, 600), seed);
    EXPECT_GT(log.size(), 100u) << "seed " << seed;
  }
}

TEST(KernelReferenceTest, RandomChurnWithArrivalsMatchesReference) {
  std::uint64_t injected = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const std::vector<Op> script = make_script(seed, 600, true);
    for (const Op& op : script) injected += op.batch.size();
    const Log log = expect_matches_reference(script, seed);
    EXPECT_GT(log.size(), 100u) << "seed " << seed;
  }
  EXPECT_GT(injected, 10000u);
}

TEST(KernelReferenceTest, FarHorizonChurnMatchesReference) {
  // Every event starts beyond 64^6 usec, then a run_until jump lands in
  // the middle of them and reschedules scatter across the same range.
  for (std::uint64_t seed = 100; seed < 104; ++seed) {
    Rng rng(seed);
    std::vector<Op> script;
    std::uint64_t id = 1;
    for (int i = 0; i < 64; ++i) {
      script.push_back({Op::kSchedule,
                        kFarUsec + rng.uniform_int(0, kFarUsec * 3), 0, id++});
    }
    script.push_back({Op::kRunUntil, kFarUsec * 2});
    for (int i = 0; i < 64; ++i) {
      script.push_back(
          {Op::kSchedule, rng.uniform_int(0, kFarUsec * 2), 0, id++});
      script.push_back({Op::kReschedule, rng.uniform_int(0, kFarUsec * 2),
                        static_cast<std::size_t>(rng.uniform_int(0, 63))});
    }
    expect_matches_reference(script, seed);
  }
}

TEST(KernelReferenceTest, RunUntilNowTrajectoryMatchesReference) {
  // Deadline-inclusive dispatch, idle horizon advances over an empty queue
  // and across many orders of magnitude, then fresh events relative to the
  // advanced instant: every run op samples now().
  const std::vector<Op> script = {
      {Op::kSchedule, 50, 0, 1},       {Op::kRunUntil, 49},
      {Op::kRunUntil, 1},              {Op::kRunUntil, 123456789},
      {Op::kSchedule, 3, 0, 3},        {Op::kSchedule, 1, 0, 5},
      {Op::kSchedule, 2, 0, 7},        {Op::kRunUntil, 2},
      {Op::kRunUntil, 0},              {Op::kRunUntil, kFarUsec * 3},
      {Op::kSchedule, 0, 0, 14},       {Op::kStep, 1},
      {Op::kRunUntil, 977},
  };
  expect_matches_reference(script, 0);

  Simulator sim;
  int fired = 0;
  sim.schedule_at(Time(50), [&] { ++fired; });
  sim.run_until(Time(49));
  EXPECT_EQ(sim.now(), Time(49));
  EXPECT_EQ(fired, 0);
  sim.run_until(Time(50));  // deadline-inclusive dispatch
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), Time(50));
  sim.run_until(Time(123456789));  // idle horizon advance
  EXPECT_EQ(sim.now(), Time(123456789));
  std::vector<int> order;
  sim.schedule_at(sim.now() + Duration(3), [&] { order.push_back(3); });
  sim.schedule_at(sim.now() + Duration(1), [&] { order.push_back(1); });
  sim.schedule_at(sim.now() + Duration(2), [&] { order.push_back(2); });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

// --- dead-entry compaction regression ----------------------------------------

TEST(CompactionRegressionTest, RescheduleStormKeepsQueueMemoryBounded) {
  // The original heap kernel kept every dead entry until it surfaced at the
  // front: 10^6 reschedules of one far-future event stored ~10^6 entries.
  // With compaction, stored entries stay O(live) — here live is 1, so the
  // queue may never hold more than the sweep threshold plus one storm's
  // worth of dead entries between sweeps.
  Simulator sim;
  int fired = 0;
  EventHandle h =
      sim.schedule_at(sim.now() + Duration(1 << 30), [&] { ++fired; });
  std::size_t max_entries = 0;
  for (int i = 0; i < 1000000; ++i) {
    ASSERT_TRUE(sim.reschedule(h, sim.now() + Duration((1 << 30) + i)));
    max_entries = std::max(max_entries, sim.queue_entries());
  }
  EXPECT_LE(max_entries, 1024u);  // vs ~10^6 without compaction
  EXPECT_EQ(sim.pending(), 1u);
  sim.run_all();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.queue_entries(), 0u);
}

TEST(CompactionRegressionTest, CancelStormKeepsQueueMemoryBounded) {
  Simulator sim;
  std::size_t max_entries = 0;
  for (int round = 0; round < 64; ++round) {
    std::vector<EventHandle> handles;
    for (int i = 0; i < 1024; ++i) {
      handles.push_back(sim.schedule_at(sim.now() + Duration(1 + i), [] {}));
    }
    for (EventHandle& h : handles) EXPECT_TRUE(sim.cancel(h));
    max_entries = std::max(max_entries, sim.queue_entries());
  }
  // 64 rounds x 1024 cancels must not accumulate: the bound is one
  // round's storm plus the sweep threshold, not 65536.
  EXPECT_LE(max_entries, 4096u);
  EXPECT_EQ(sim.pending(), 0u);
  sim.run_all();
  EXPECT_EQ(sim.queue_entries(), 0u);
}

// The compacted front must still dispatch in exact (time, seq) order: churn
// a mix of survivors and cancelled events past the sweep threshold, then
// check the survivors fire in schedule order.
TEST(CompactionRegressionTest, CompactionPreservesDispatchOrder) {
  Simulator sim;
  std::vector<std::uint64_t> fired;
  std::vector<EventHandle> doomed;
  for (std::uint64_t i = 0; i < 2000; ++i) {
    const Time at = sim.now() + Duration(static_cast<std::int64_t>(
                                    1000 + (i * 37) % 5000));
    if (i % 3 == 0) {
      sim.schedule_at(at, [&fired, i] { fired.push_back(i); });
    } else {
      doomed.push_back(sim.schedule_at(at, [] { ADD_FAILURE(); }));
    }
  }
  for (EventHandle& h : doomed) EXPECT_TRUE(sim.cancel(h));
  sim.run_all();
  EXPECT_EQ(fired.size(), 667u);
  // Same (time, seq) comparator the kernel uses: time ascending, then
  // insertion order.
  EXPECT_TRUE(std::is_sorted(
      fired.begin(), fired.end(), [](std::uint64_t a, std::uint64_t b) {
        const auto ta = 1000 + (a * 37) % 5000;
        const auto tb = 1000 + (b * 37) % 5000;
        return ta != tb ? ta < tb : a < b;
      }));
}

}  // namespace
}  // namespace rtcm::sim
