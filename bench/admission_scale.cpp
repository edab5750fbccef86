// Admission throughput at scale: arrivals/sec against 10^3..10^6 resident
// tasks.
//
// The reference admission test re-evaluates Equation (1) for every admitted
// footprint on every arrival, so per-arrival cost grows with the resident
// population and a cell stalls long before 10^5 tasks.  The AdmissionIndex
// (sched/admission_index.h) makes the decision O(candidate footprint x
// per-processor fan-out) instead.  This bench populates a SchedulingState
// with N resident two-stage jobs spread over the topology, then times three
// paths per scale point:
//
//   incremental_nN    AdmissionIndex::admission_test (the production path)
//   full_rescan_nN    current_footprints() + aub_admission_test (the old
//                     per-arrival rescan, kept as the in-bench baseline and
//                     as the reference tests/oracle_differential_test.cpp
//                     holds the index to)
//   admit_expire_nN   steady-state book churn: expire one resident job and
//                     admit a replacement, holding the population constant
//                     (the struct-of-arrays slabs make this O(stages) and
//                     allocation-free at fixed capacity — the contract
//                     tests/sim_alloc_test.cpp enforces with a counting
//                     allocator).  Runs last per scale point because it
//                     rewrites the resident set.
//
// Each operation row also reports bytes_per_resident_task: the book's slab,
// ledger and index heap bytes (spilled lists included), divided by the
// resident population — the memory-per-task figure the struct-of-arrays
// layout is accountable for.
//
// Each path runs --repeats times and reports the minimum, the median and
// the spread (max - min) of its ns/arrival over those repeats;
// arrivals_per_sec is derived from the median.
//
// The 10^6-resident point runs on a 4096-processor topology (256 would
// saturate Equation (1)); full_rescan there is capped to a handful of
// arrivals — each one materializes and rescans a million footprints.
//
// Times are host wall times (not deterministic), so the report shares only
// the envelope with the sweep benches: check_bench_regression.py
// schema-checks it and CI tracks the numbers through artifacts, like
// sim_micro.  Flags: --arrivals=N --repeats=N --max_resident=N
// --json_out=PATH
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "core/scheduling_state.h"
#include "sched/aub.h"
#include "sweep/report.h"
#include "util/flags.h"
#include "util/json.h"

using namespace rtcm;

namespace {

constexpr std::size_t kStages = 2;
/// Aggregate synthetic-utilization target per processor once the whole
/// resident population is admitted; every resident footprint must itself
/// satisfy Equation (1) — 2 x aub_term(U) <= 1 requires U below
/// (3 - sqrt(5)) / 2 ~= 0.382 — so the candidate stream keeps being
/// accepted and both paths do the full amount of checking work.
constexpr double kTargetUtilization = 0.3;

struct ScalePoint {
  std::size_t resident;
  std::size_t processors;  // power of two (pick_processors relies on it)
};

struct OpResult {
  std::string name;
  std::size_t resident = 0;
  std::uint64_t arrivals = 0;
  double min_ns_per_arrival = 0.0;     // best repeat (least scheduler noise)
  double median_ns_per_arrival = 0.0;  // median across repeats
  double spread_ns_per_arrival = 0.0;  // max - min across repeats
  double arrivals_per_sec = 0.0;       // from the median
  double bytes_per_resident_task = 0.0;
};

using Clock = std::chrono::steady_clock;

/// A resident task's two distinct processors, deterministic in its index.
/// Both stages sweep the whole topology uniformly (odd multiplier mod a
/// power of two is a bijection), so every processor carries exactly the
/// same load and the population stays inside Equation (1) by construction.
void pick_processors(std::uint64_t i, std::size_t processors, ProcessorId* a,
                     ProcessorId* b) {
  const std::size_t pa = (i * 7 + 3) % processors;
  const std::size_t pb = (pa + processors / 2) % processors;
  *a = ProcessorId(pa);
  *b = ProcessorId(pb);
}

/// Two-stage spec with per-stage synthetic utilization `u` (C = u * D).
sched::TaskSpec make_spec(TaskId id, ProcessorId a, ProcessorId b, double u) {
  sched::TaskSpec spec;
  spec.id = id;
  spec.name = "scale";
  spec.kind = sched::TaskKind::kAperiodic;
  spec.deadline = Duration::seconds(1);
  spec.mean_interarrival = Duration::seconds(1);
  sched::SubtaskSpec first;
  first.execution = Duration(static_cast<std::int64_t>(
      u * static_cast<double>(spec.deadline.usec())));
  first.primary = a;
  sched::SubtaskSpec second = first;
  second.primary = b;
  spec.subtasks = {first, second};
  return spec;
}

/// Populate `state` with `resident` admitted two-stage jobs filling every
/// processor to kTargetUtilization in aggregate.
void populate(core::SchedulingState& state, const ScalePoint& point) {
  const double per_stage =
      kTargetUtilization * static_cast<double>(point.processors) /
      (kStages * static_cast<double>(point.resident));
  for (std::uint64_t i = 0; i < point.resident; ++i) {
    ProcessorId a{0};
    ProcessorId b{0};
    pick_processors(i, point.processors, &a, &b);
    const sched::TaskSpec spec = make_spec(TaskId(i), a, b, per_stage);
    state.admit_job(spec, JobId(i), {a, b}, Time(Duration::seconds(1).usec()));
  }
}

/// Candidate placement for arrival `i`: a fresh two-stage footprint rotating
/// over the topology, utilization small enough to keep being admitted.
std::vector<sched::CandidateStage> make_candidate(std::uint64_t i,
                                                  std::size_t processors) {
  ProcessorId a{0};
  ProcessorId b{0};
  pick_processors(i * 31 + 17, processors, &a, &b);
  return {{a, 1e-6}, {b, 1e-6}};
}

template <typename Op>
OpResult time_arrivals(std::string name, std::size_t resident, int repeats,
                       std::uint64_t arrivals, Op op) {
  OpResult result;
  result.name = std::move(name);
  result.resident = resident;
  result.arrivals = arrivals;
  std::vector<double> ns;
  for (int r = 0; r < repeats; ++r) {
    const auto started = Clock::now();
    op(arrivals);
    ns.push_back(
        std::chrono::duration<double, std::nano>(Clock::now() - started)
            .count() /
        static_cast<double>(arrivals));
  }
  const bench::RepeatStats stats = bench::repeat_stats(std::move(ns));
  result.min_ns_per_arrival = stats.min;
  result.median_ns_per_arrival = stats.median;
  result.spread_ns_per_arrival = stats.spread;
  result.arrivals_per_sec = 1e9 / result.median_ns_per_arrival;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = Flags::parse(argc, argv);
  const auto arrivals =
      static_cast<std::uint64_t>(flags.get_int("arrivals", 2000));
  const int repeats =
      std::max(1, static_cast<int>(flags.get_int("repeats", 3)));
  // The 10^6 point takes tens of seconds to populate and rescan; smoke
  // passes can cut the sweep short with --max_resident=100000.
  const auto max_resident =
      static_cast<std::size_t>(flags.get_int("max_resident", 1000000));
  const std::string json_out = flags.get_string("json_out", "");
  if (!bench::check_flags(flags,
                          {"arrivals", "repeats", "max_resident", "json_out"})) {
    return 2;
  }

  std::printf(
      "Admission throughput vs resident-task count\n"
      "%zu-stage footprints, %.2f aggregate utilization per processor,\n"
      "%llu timed arrivals, min / median / spread over %d repeats\n\n",
      kStages, kTargetUtilization, static_cast<unsigned long long>(arrivals),
      repeats);

  std::vector<OpResult> results;
  std::printf("  %-16s %9s %6s %12s %12s %10s %14s %10s\n", "path",
              "resident", "procs", "min ns/arr", "median", "spread",
              "arrivals/sec", "bytes/task");
  const auto print_row = [](const char* path, const OpResult& r,
                            std::size_t processors) {
    std::printf("  %-16s %9zu %6zu %12.1f %12.1f %10.1f %14.0f %10.1f\n",
                path, r.resident, processors, r.min_ns_per_arrival,
                r.median_ns_per_arrival, r.spread_ns_per_arrival,
                r.arrivals_per_sec, r.bytes_per_resident_task);
  };

  // `admitted` guards against the topology silently saturating (which would
  // make both paths trivially fast and the comparison meaningless).
  bool all_admitted = true;

  const ScalePoint points[] = {
      {1000, 256}, {10000, 256}, {100000, 256}, {1000000, 4096}};
  for (const ScalePoint& point : points) {
    if (point.resident > max_resident) continue;
    const std::size_t resident = point.resident;
    core::SchedulingState state;
    populate(state, point);
    const double bytes_per_task =
        static_cast<double>(state.footprint_bytes()) /
        static_cast<double>(resident);

    auto incremental = time_arrivals(
        "incremental_n" + std::to_string(resident), resident, repeats,
        arrivals, [&](std::uint64_t n) {
          for (std::uint64_t i = 0; i < n; ++i) {
            const auto decision = state.admission_index().admission_test(
                state.ledger(), TaskId(resident + i),
                make_candidate(i, point.processors));
            all_admitted = all_admitted && decision.admitted;
          }
        });
    incremental.bytes_per_resident_task = bytes_per_task;
    results.push_back(incremental);
    print_row("incremental", incremental, point.processors);

    // The old path materializes every footprint and rescans them all, so
    // each arrival costs O(resident); keep the timed stream short enough
    // that the bench finishes.
    const std::uint64_t old_arrivals =
        std::min<std::uint64_t>(arrivals, resident >= 1000000 ? 4
                                          : resident >= 100000 ? 20
                                          : resident >= 10000  ? 200
                                                               : arrivals);
    auto full = time_arrivals(
        "full_rescan_n" + std::to_string(resident), resident, repeats,
        old_arrivals, [&](std::uint64_t n) {
          for (std::uint64_t i = 0; i < n; ++i) {
            const auto footprints = state.current_footprints();
            const auto decision = sched::aub_admission_test(
                state.ledger(), TaskId(resident + i),
                make_candidate(i, point.processors), footprints);
            all_admitted = all_admitted && decision.admitted;
          }
        });
    full.bytes_per_resident_task = bytes_per_task;
    results.push_back(full);
    print_row("full_rescan", full, point.processors);
    std::printf("  %-16s %9s %6s (%.0fx median speedup)\n", "", "", "",
                full.median_ns_per_arrival /
                    incremental.median_ns_per_arrival);

    // Steady-state churn, last because it rewrites the resident set: each
    // cycle expires the oldest surviving job and admits a replacement with
    // the same footprint, so the population (and Equation (1) headroom)
    // stays fixed while every slab path — swap-with-last removal, slot
    // reuse, id-table churn — is exercised.  The spec is patched in place
    // per cycle; at fixed capacity the loop performs no heap allocation.
    const double per_stage =
        kTargetUtilization * static_cast<double>(point.processors) /
        (kStages * static_cast<double>(resident));
    std::uint64_t next_victim = 0;
    std::uint64_t next_job = resident;
    std::vector<std::uint64_t> job_of(resident);
    for (std::uint64_t i = 0; i < resident; ++i) job_of[i] = i;
    sched::TaskSpec churn_spec =
        make_spec(TaskId(0), ProcessorId(0), ProcessorId(1), per_stage);
    ProcessorId placement[2] = {ProcessorId(0), ProcessorId(0)};
    auto churn = time_arrivals(
        "admit_expire_n" + std::to_string(resident), resident, repeats,
        arrivals, [&](std::uint64_t n) {
          for (std::uint64_t i = 0; i < n; ++i) {
            const std::uint64_t slot = next_victim++ % resident;
            state.expire_job(JobId(job_of[slot]));
            pick_processors(slot, point.processors, &placement[0],
                            &placement[1]);
            churn_spec.id = TaskId(slot);
            churn_spec.subtasks[0].primary = placement[0];
            churn_spec.subtasks[1].primary = placement[1];
            const JobId job(next_job++);
            state.admit_job(churn_spec, job,
                            std::span<const ProcessorId>(placement),
                            Time(Duration::seconds(1).usec()));
            job_of[slot] = job.value();
          }
        });
    churn.bytes_per_resident_task = bytes_per_task;
    results.push_back(churn);
    print_row("admit_expire", churn, point.processors);
  }

  if (!all_admitted) {
    std::fprintf(stderr,
                 "some timed candidate was rejected: the topology saturated "
                 "and the comparison is meaningless\n");
    return 1;
  }

  if (!json_out.empty()) {
    json::Value doc = json::Value::object();
    doc.set("schema_version", sweep::kReportSchemaVersion);
    doc.set("name", "admission_scale");
    doc.set("git_sha", sweep::git_head_sha());
    json::Value params = json::Value::object();
    params.set("stages", static_cast<std::int64_t>(kStages));
    params.set("arrivals", static_cast<std::int64_t>(arrivals));
    params.set("repeats", static_cast<std::int64_t>(repeats));
    params.set("max_resident", static_cast<std::int64_t>(max_resident));
    doc.set("params", params);
    json::Value operations = json::Value::array();
    for (const OpResult& r : results) {
      json::Value entry = json::Value::object();
      entry.set("name", r.name);
      entry.set("resident", static_cast<std::int64_t>(r.resident));
      entry.set("arrivals", static_cast<std::int64_t>(r.arrivals));
      entry.set("min_ns_per_arrival", r.min_ns_per_arrival);
      entry.set("median_ns_per_arrival", r.median_ns_per_arrival);
      entry.set("spread_ns_per_arrival", r.spread_ns_per_arrival);
      entry.set("arrivals_per_sec", r.arrivals_per_sec);
      entry.set("bytes_per_resident_task", r.bytes_per_resident_task);
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
    std::printf("\nreport written to %s\n", json_out.c_str());
  }
  return 0;
}
