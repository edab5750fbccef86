// Simulation-kernel micro-benchmarks: schedule / cancel / dispatch ns/op.
//
// Every paper figure is produced through the discrete-event kernel in
// src/sim/, so its per-event cost bounds how far the sweep grid can scale.
// This bench times the kernel's primitive operations in isolation:
//
//   schedule_dispatch_fifo    in-order schedule + drain (arrival streams)
//   schedule_dispatch_random  scrambled times (worst-case heap sifts)
//   bulk_drain                dense calendar bulk-loaded then drained: one
//                             O(log n) sift per pop
//   steady_state_window       bounded pending set (~256), schedule and
//                             dispatch interleaved — the shape real runs
//                             have
//   steady_state_pending_100k the same interleaving with 10^5 resident
//                             events, the scale tier the ROADMAP targets
//   schedule_cancel           schedule + O(1) lazy cancel + drain/compaction
//                             of the dead entries (admission backstops that
//                             rarely fire)
//   reschedule_churn          one event re-timed repeatedly (the preemptive
//                             processor's completion-event pattern)
//   processor_preempt_storm   end-to-end Processor preempt/resume chains
//
// Each operation runs --repeats times and reports the minimum, the median
// and the spread (max - min) of its ns/op over those repeats.
//
// Times are host wall times (not deterministic), so the report shares only
// the envelope with the sweep benches: check_bench_regression.py
// schema-checks it and tracks the numbers through CI artifacts, like
// fig8_overheads.  Flags: --events=N --repeats=N --json_out=PATH
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "sim/processor.h"
#include "sim/simulator.h"
#include "sweep/report.h"
#include "util/flags.h"
#include "util/json.h"
#include "util/time.h"

using namespace rtcm;

namespace {

struct OpResult {
  std::string name;
  double min_ns_per_op = 0.0;     // best repeat (least scheduler noise)
  double median_ns_per_op = 0.0;  // median across repeats
  double spread_ns_per_op = 0.0;  // max - min across repeats
  std::uint64_t ops = 0;          // operations timed per repeat
};

using Clock = std::chrono::steady_clock;

/// Deterministic xorshift64* stream for scrambled event times.
class Scramble {
 public:
  explicit Scramble(std::uint64_t seed) : state_(seed | 1) {}
  std::uint64_t next() {
    std::uint64_t x = state_;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    state_ = x;
    return x * 0x2545F4914F6CDD1DULL;
  }

 private:
  std::uint64_t state_;
};

/// Time `op()` `repeats` times; ns/op over `ops_per_run` operations.
template <typename Op>
OpResult time_op(std::string name, int repeats, std::uint64_t ops_per_run,
                 Op op) {
  std::vector<double> ns;
  for (int r = 0; r < repeats; ++r) {
    const auto started = Clock::now();
    op();
    ns.push_back(
        std::chrono::duration<double, std::nano>(Clock::now() - started)
            .count() /
        static_cast<double>(ops_per_run));
  }
  const bench::RepeatStats stats = bench::repeat_stats(std::move(ns));
  OpResult result;
  result.name = std::move(name);
  result.ops = ops_per_run;
  result.min_ns_per_op = stats.min;
  result.median_ns_per_op = stats.median;
  result.spread_ns_per_op = stats.spread;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = Flags::parse(argc, argv);
  const auto events =
      static_cast<std::uint64_t>(flags.get_int("events", 200000));
  const int repeats =
      std::max(1, static_cast<int>(flags.get_int("repeats", 5)));
  const std::string json_out = flags.get_string("json_out", "");
  if (!bench::check_flags(flags, {"events", "repeats", "json_out"})) {
    return 2;
  }

  std::printf(
      "Simulation-kernel micro-benchmarks\n"
      "%llu events per run, %d repeats\n\n",
      static_cast<unsigned long long>(events), repeats);

  // Sinks the callbacks write to, so the closures are not optimized away.
  std::uint64_t sink = 0;

  std::vector<OpResult> results;

  const auto run = [&](const std::string& name, std::uint64_t ops_per_run,
                       auto body) {
    results.push_back(time_op(name, repeats, ops_per_run, body));
  };

  run("schedule_dispatch_fifo", events, [&] {
    sim::Simulator sim;
    for (std::uint64_t i = 0; i < events; ++i) {
      sim.schedule_at(Time(static_cast<std::int64_t>(i)),
                      [&sink, i] { sink += i; });
    }
    sim.run_all();
  });

  run("schedule_dispatch_random", events, [&] {
    sim::Simulator sim;
    Scramble scramble(42);
    for (std::uint64_t i = 0; i < events; ++i) {
      const auto at = static_cast<std::int64_t>(scramble.next() >> 24);
      sim.schedule_at(Time(at), [&sink, i] { sink += i; });
    }
    sim.run_all();
  });

  // Bulk drain over a dense calendar: every event loaded before the first
  // dispatch, times packed ~8 usec apart, so the drain phase dominates.
  run("bulk_drain", events, [&] {
    sim::Simulator sim;
    Scramble scramble(17);
    const std::uint64_t span = events * 8;
    for (std::uint64_t i = 0; i < events; ++i) {
      sim.schedule_at(Time(static_cast<std::int64_t>(scramble.next() % span)),
                      [&sink, i] { sink += i; });
    }
    sim.run_all();
  });

  // Steady-state window: the shape real runs have — a bounded pending set
  // (releases, completions, backstops) with schedule and dispatch
  // interleaved, not a bulk load followed by a bulk drain.
  constexpr std::uint64_t kWindow = 256;
  run("steady_state_window", events, [&] {
    sim::Simulator sim;
    Scramble scramble(7);
    for (std::uint64_t i = 0; i < kWindow; ++i) {
      sim.schedule_at(Time(static_cast<std::int64_t>(scramble.next() % 1000)),
                      [&sink] { ++sink; });
    }
    for (std::uint64_t i = 0; i < events; ++i) {
      sim.step();
      const std::int64_t at =
          sim.now().usec() + static_cast<std::int64_t>(scramble.next() % 1000);
      sim.schedule_at(Time(at), [&sink] { ++sink; });
    }
    sim.run_all();
  });

  // The same interleaving with 10^5 events resident — the next scale tier
  // the ROADMAP targets (10^4–10^6 tasks per cell).  Each new event lands
  // uniformly inside a ~400 ms horizon, so the heap sifts through ~17
  // levels while the wheel files into one of its buckets.
  constexpr std::uint64_t kBigWindow = 100000;
  run("steady_state_pending_100k", events,
               [&] {
                 sim::Simulator sim;
                 Scramble scramble(11);
                 const std::uint64_t spread = kBigWindow * 4;
                 for (std::uint64_t i = 0; i < kBigWindow; ++i) {
                   sim.schedule_at(
                       Time(static_cast<std::int64_t>(scramble.next() %
                                                      spread)),
                       [&sink] { ++sink; });
                 }
                 for (std::uint64_t i = 0; i < events; ++i) {
                   sim.step();
                   const std::int64_t at =
                       sim.now().usec() +
                       static_cast<std::int64_t>(scramble.next() % spread);
                   sim.schedule_at(Time(at), [&sink] { ++sink; });
                 }
                 // Don't drain the 100k tail: this op times the resident
                 // steady state, not a trailing bulk drain.
               });

  run("schedule_cancel", events, [&] {
    sim::Simulator sim;
    std::vector<sim::EventHandle> handles;
    handles.reserve(events);
    for (std::uint64_t i = 0; i < events; ++i) {
      handles.push_back(sim.schedule_at(Time(static_cast<std::int64_t>(i)),
                                        [&sink, i] { sink += i; }));
    }
    for (const sim::EventHandle h : handles) sim.cancel(h);
    sim.run_all();  // reaps the dead entries
  });

  run("reschedule_churn", events, [&] {
    sim::Simulator sim;
    sim::EventHandle h =
        sim.schedule_at(Time(static_cast<std::int64_t>(events) + 1),
                        [&sink] { ++sink; });
    for (std::uint64_t i = 0; i < events; ++i) {
      sim.reschedule(h, Time(static_cast<std::int64_t>(events) + 1 +
                             static_cast<std::int64_t>(i % 7)));
    }
    sim.run_all();
  });

  // End-to-end processor path: each wave submits a low-priority item, then
  // a high-priority item that preempts it — exercising submit, the
  // completion-event reschedule, and resume.
  const std::uint64_t waves = events / 4;
  run("processor_preempt_storm", waves, [&] {
    sim::Simulator sim;
    sim::Processor cpu(sim, ProcessorId(0));
    for (std::uint64_t w = 0; w < waves; ++w) {
      const auto base = static_cast<std::int64_t>(w) * 100;
      sim.schedule_at(Time(base), [&cpu, &sink] {
        cpu.submit({1, Priority(5), Duration(40),
                    [&sink](std::uint64_t id) { sink += id; }});
      });
      sim.schedule_at(Time(base + 10), [&cpu, &sink] {
        cpu.submit({2, Priority(1), Duration(20),
                    [&sink](std::uint64_t id) { sink += id; }});
      });
    }
    sim.run_all();
  });

  std::printf("  %-28s %10s %10s %10s %10s\n", "operation", "min ns/op",
              "median", "spread", "ops/run");
  for (const OpResult& r : results) {
    std::printf("  %-28s %10.1f %10.1f %10.1f %10llu\n", r.name.c_str(),
                r.min_ns_per_op, r.median_ns_per_op, r.spread_ns_per_op,
                static_cast<unsigned long long>(r.ops));
  }
  std::printf("\n(checksum %llu)\n", static_cast<unsigned long long>(sink));

  if (!json_out.empty()) {
    json::Value doc = json::Value::object();
    doc.set("schema_version", sweep::kReportSchemaVersion);
    doc.set("name", "sim_micro");
    doc.set("git_sha", sweep::git_head_sha());
    json::Value params = json::Value::object();
    params.set("events", static_cast<std::int64_t>(events));
    params.set("repeats", static_cast<std::int64_t>(repeats));
    doc.set("params", params);
    json::Value operations = json::Value::array();
    for (const OpResult& r : results) {
      json::Value entry = json::Value::object();
      entry.set("name", r.name);
      entry.set("min_ns_per_op", r.min_ns_per_op);
      entry.set("median_ns_per_op", r.median_ns_per_op);
      entry.set("spread_ns_per_op", r.spread_ns_per_op);
      entry.set("ops", static_cast<std::int64_t>(r.ops));
      operations.push_back(std::move(entry));
    }
    doc.set("operations", operations);
    std::FILE* f = std::fopen(json_out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "failed to open %s\n", json_out.c_str());
      return 1;
    }
    const std::string text = doc.dump();
    const bool ok =
        std::fwrite(text.data(), 1, text.size(), f) == text.size();
    if (std::fclose(f) != 0 || !ok) {
      std::fprintf(stderr, "failed to write %s\n", json_out.c_str());
      return 1;
    }
    std::printf("report written to %s\n", json_out.c_str());
  }
  return 0;
}
