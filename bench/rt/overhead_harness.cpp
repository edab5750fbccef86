#include "rt/overhead_harness.h"

#include <cassert>

#include "core/runtime.h"
#include "core/scheduling_state.h"
#include "events/placement.h"
#include "rt/loopback.h"
#include "rt/stopwatch.h"
#include "sched/aub.h"
#include "sched/load_balancer.h"
#include "workload/generator.h"

namespace rtcm::rt {

namespace {

std::vector<sched::CandidateStage> candidate_stages(
    const sched::TaskSpec& spec, const events::Placement& placement) {
  std::vector<sched::CandidateStage> stages;
  stages.reserve(placement.size());
  for (std::size_t j = 0; j < placement.size(); ++j) {
    stages.push_back({placement[j], spec.subtask_utilization(j)});
  }
  return stages;
}

events::Placement primaries(const sched::TaskSpec& spec) {
  events::Placement out(spec.subtasks.size());
  for (std::size_t j = 0; j < spec.subtasks.size(); ++j) {
    out[j] = spec.subtasks[j].primary;
  }
  return out;
}

}  // namespace

std::vector<OverheadReport::Row> OverheadReport::figure8_rows(
    double comm_mean_us, double comm_max_us) const {
  const double two_comm_mean = 2 * comm_mean_us;
  const double two_comm_max = 2 * comm_max_us;
  std::vector<Row> rows;
  rows.push_back({"AC without LB", "(1+2+4+2+5)",
                  op1_hold_push.mean() + two_comm_mean +
                      op4_admission_test.mean() + op5_release_local.mean(),
                  op1_hold_push.max() + two_comm_max +
                      op4_admission_test.max() + op5_release_local.max()});
  rows.push_back({"AC with LB (no re-allocation)", "(1+2+3+2+5)",
                  op1_hold_push.mean() + two_comm_mean + op3_plan.mean() +
                      op5_release_local.mean(),
                  op1_hold_push.max() + two_comm_max + op3_plan.max() +
                      op5_release_local.max()});
  rows.push_back({"AC with LB (re-allocation)", "(1+2+3+2+6)",
                  op1_hold_push.mean() + two_comm_mean + op3_plan.mean() +
                      op6_release_remote.mean(),
                  op1_hold_push.max() + two_comm_max + op3_plan.max() +
                      op6_release_remote.max()});
  rows.push_back({"LB (no re-allocation)", "(1+2+3+2+5)",
                  op1_hold_push.mean() + two_comm_mean + op3_plan.mean() +
                      op5_release_local.mean(),
                  op1_hold_push.max() + two_comm_max + op3_plan.max() +
                      op5_release_local.max()});
  rows.push_back({"LB (re-allocation)", "(1+2+3+2+6)",
                  op1_hold_push.mean() + two_comm_mean + op3_plan.mean() +
                      op6_release_remote.mean(),
                  op1_hold_push.max() + two_comm_max + op3_plan.max() +
                      op6_release_remote.max()});
  rows.push_back({"IR (on AC side)", "(8)", op8_update_utilization.mean(),
                  op8_update_utilization.max()});
  rows.push_back({"IR (other part)", "(7+2)",
                  op7_ir_report.mean() + comm_mean_us,
                  op7_ir_report.max() + comm_max_us});
  rows.push_back({"Communication Delay", "(2)", comm_mean_us, comm_max_us});
  return rows;
}

OverheadReport measure_overheads(const OverheadParams& params) {
  OverheadReport report;

  // Operation (2): communication delay by ping-pong, like the paper.
  if (auto loopback = measure_loopback_delay(params.iterations);
      loopback.is_ok()) {
    report.comm_one_way = loopback.value().one_way_us;
  }

  Rng rng(params.seed);
  const workload::WorkloadShape shape = workload::overhead_workload_shape();
  sched::TaskSet tasks = workload::generate_workload(shape, rng);
  const auto& specs = tasks.tasks();

  // --- Operations (3) and (4): scheduler-level costs -----------------------
  {
    // A live book of record holding the resident jobs, each at a quarter of
    // its utilization (deadline x 4) so the measured tests exercise the
    // full Equation (1) path instead of the early-out "rejected" path.
    // Both operations time the production test, the book's
    // AdmissionIndex::admission_test.
    core::SchedulingState book;
    for (std::size_t i = 0; i < params.resident_jobs; ++i) {
      sched::TaskSpec resident = specs[i % specs.size()];
      resident.deadline = resident.deadline * 4;
      book.admit_job(resident, JobId(static_cast<std::int32_t>(i)),
                     primaries(resident), Time::epoch() + resident.deadline);
    }
    const sched::AdmissionIndex& index = book.admission_index();
    sched::LoadBalancer balancer;
    for (std::size_t i = 0; i < params.iterations; ++i) {
      const sched::TaskSpec& spec = specs[i % specs.size()];
      const auto stages = candidate_stages(spec, primaries(spec));
      report.op4_admission_test.add(time_call_us([&] {
        (void)index.admission_test(book.ledger(), spec.id, stages);
      }));
      // (3): the paper's LB "returns an assignment plan that is acceptable",
      // i.e. placement plus the schedulability check.
      report.op3_plan.add(time_call_us([&] {
        const auto placement = balancer.place(spec, book.ledger());
        (void)index.admission_test(book.ledger(), spec.id,
                                   candidate_stages(spec, placement));
      }));
    }
  }

  // --- Component-level operations ------------------------------------------
  core::SystemConfig config;
  config.strategies =
      core::StrategyCombination{core::AcStrategy::kPerJob,
                                core::IrStrategy::kPerJob,
                                core::LbStrategy::kPerJob};
  core::SystemRuntime runtime(config, std::move(tasks));
  const Status assembled = runtime.assemble();
  assert(assembled.is_ok());
  (void)assembled;

  std::int32_t next_job = 1'000'000;  // distinct from any real injection

  // Operation (1): hold the task + push "Task Arrive".
  {
    const sched::TaskSpec& spec = runtime.tasks().tasks().front();
    core::TaskEffector* te =
        runtime.task_effector(spec.subtasks.front().primary);
    assert(te != nullptr);
    for (std::size_t i = 0; i < params.iterations; ++i) {
      const JobId job(next_job++);
      report.op1_hold_push.add(
          time_call_us([&] { te->job_arrived(spec.id, job); }));
    }
  }

  // Operations (5) and (6): Accept delivery -> release (local / duplicate).
  {
    // A task whose first stage has a replica, so re-allocation is possible.
    const sched::TaskSpec* realloc_spec = nullptr;
    for (const sched::TaskSpec& spec : runtime.tasks().tasks()) {
      if (!spec.subtasks.front().replicas.empty()) {
        realloc_spec = &spec;
        break;
      }
    }
    assert(realloc_spec != nullptr);
    const ProcessorId home = realloc_spec->subtasks.front().primary;
    const ProcessorId away = realloc_spec->subtasks.front().replicas.front();

    auto make_accept = [&](const events::Placement& placement) {
      return events::Event{
          runtime.task_manager(), runtime.simulator().now(),
          events::AcceptPayload{realloc_spec->id, JobId(next_job++), home,
                                placement,
                                runtime.simulator().now() +
                                    realloc_spec->deadline,
                                false}};
    };

    const events::Placement local_placement = primaries(*realloc_spec);
    events::Placement remote_placement = local_placement;
    remote_placement[0] = away;

    auto& local_channel = runtime.federation().channel(home);
    auto& remote_channel = runtime.federation().channel(away);
    for (std::size_t i = 0; i < params.iterations; ++i) {
      const events::Event local_event = make_accept(local_placement);
      report.op5_release_local.add(
          time_call_us([&] { local_channel.deliver(local_event); }));
      const events::Event remote_event = make_accept(remote_placement);
      report.op6_release_remote.add(
          time_call_us([&] { remote_channel.deliver(remote_event); }));
    }
  }

  // Operation (7): idle-detector report on an application processor.
  {
    const ProcessorId proc = runtime.app_processors().front();
    core::IdleResetter* ir = runtime.idle_resetter(proc);
    assert(ir != nullptr);
    const TaskId report_task = runtime.tasks().tasks().front().id;
    const Time far_deadline =
        runtime.simulator().now() + Duration::seconds(3600);
    for (std::size_t i = 0; i < params.iterations; ++i) {
      for (std::size_t k = 0; k < params.subjobs_per_report; ++k) {
        ir->subjob_complete(events::SubjobRef{report_task, JobId(next_job), k},
                            sched::TaskKind::kAperiodic, far_deadline);
      }
      ++next_job;
      report.op7_ir_report.add(
          time_call_us([&] { ir->force_idle_report(); }));
    }
  }

  // Operation (8): IdleReset delivery -> synthetic utilization update.
  {
    auto& manager_channel =
        runtime.federation().channel(runtime.task_manager());
    const sched::TaskSpec& spec = runtime.tasks().tasks().front();
    const ProcessorId arrival = spec.subtasks.front().primary;
    for (std::size_t i = 0; i < params.iterations; ++i) {
      const JobId job(next_job++);
      // Admit a fresh job (untimed) so the timed reset removes real
      // contributions; the reset also keeps the ledger from saturating.
      manager_channel.deliver(events::Event{
          arrival, runtime.simulator().now(),
          events::TaskArrivePayload{spec.id, job, arrival,
                                    runtime.simulator().now(), false}});
      events::IdleResetPayload payload{
          arrival, events::CompletedSubjobs(spec.subtasks.size())};
      for (std::size_t j = 0; j < spec.subtasks.size(); ++j) {
        payload.completed[j] = events::SubjobRef{spec.id, job, j};
      }
      const events::Event reset{arrival, runtime.simulator().now(),
                                std::move(payload)};
      report.op8_update_utilization.add(
          time_call_us([&] { manager_channel.deliver(reset); }));
    }
  }

  return report;
}

}  // namespace rtcm::rt
