#include "core/metrics.h"

#include "util/strings.h"

namespace rtcm::core {

void MetricsCollector::on_arrival(const sched::TaskSpec& spec, JobId job,
                                  Time when) {
  const double u = spec.total_utilization();
  TaskMetrics& tm = per_task_[spec.id];
  ++tm.arrivals;
  tm.arrived_utilization += u;
  ++total_.arrivals;
  total_.arrived_utilization += u;
  const std::uint32_t row = arrival_index_.lookup(job.value());
  if (row != util::IdSlotMap::kNoSlot) {
    arrival_times_[row] = when;
    return;
  }
  arrival_index_.insert(job.value(),
                        static_cast<std::uint32_t>(arrival_jobs_.size()));
  arrival_jobs_.push_back(job);
  arrival_times_.push_back(when);
}

std::optional<Time> MetricsCollector::take_arrival(JobId job) {
  const std::uint32_t row = arrival_index_.lookup(job.value());
  if (row == util::IdSlotMap::kNoSlot) return std::nullopt;
  const Time arrival = arrival_times_[row];
  arrival_index_.erase(job.value());
  const auto last = static_cast<std::uint32_t>(arrival_jobs_.size() - 1);
  if (row != last) {
    arrival_jobs_[row] = arrival_jobs_[last];
    arrival_times_[row] = arrival_times_[last];
    arrival_index_.update(arrival_jobs_[row].value(), row);
  }
  arrival_jobs_.pop_back();
  arrival_times_.pop_back();
  return arrival;
}

void MetricsCollector::on_release(const sched::TaskSpec& spec, JobId job,
                                  Time when) {
  (void)job;
  (void)when;
  const double u = spec.total_utilization();
  TaskMetrics& tm = per_task_[spec.id];
  ++tm.releases;
  tm.released_utilization += u;
  ++total_.releases;
  total_.released_utilization += u;
}

void MetricsCollector::on_rejection(const sched::TaskSpec& spec, JobId job,
                                    Time when) {
  (void)when;
  ++per_task_[spec.id].rejections;
  ++total_.rejections;
  (void)take_arrival(job);
}

void MetricsCollector::on_idle_reset(std::size_t subjobs_reset) {
  ++idle_resets_;
  subjobs_reset_ += subjobs_reset;
}

void MetricsCollector::job_completed(TaskId task, JobId job, Time released,
                                     Time completed, Time absolute_deadline) {
  (void)released;
  TaskMetrics& tm = per_task_[task];
  ++tm.completions;
  ++total_.completions;
  const bool missed = completed > absolute_deadline;
  if (missed) {
    ++tm.deadline_misses;
    ++total_.deadline_misses;
  }
  if (const std::optional<Time> arrival = take_arrival(job)) {
    const double response_ms = (completed - *arrival).as_milliseconds();
    tm.response_ms.add(response_ms);
    total_.response_ms.add(response_ms);
  }
}

double MetricsCollector::accepted_utilization_ratio() const {
  if (total_.arrived_utilization <= 0.0) return 1.0;
  return total_.released_utilization / total_.arrived_utilization;
}

std::string MetricsCollector::render() const {
  std::string out;
  out += strfmt(
      "jobs: %llu arrived, %llu released, %llu rejected, %llu completed, "
      "%llu deadline misses\n",
      static_cast<unsigned long long>(total_.arrivals),
      static_cast<unsigned long long>(total_.releases),
      static_cast<unsigned long long>(total_.rejections),
      static_cast<unsigned long long>(total_.completions),
      static_cast<unsigned long long>(total_.deadline_misses));
  out += strfmt("accepted utilization ratio: %.4f\n",
                accepted_utilization_ratio());
  out += strfmt("idle resets: %llu events covering %llu subjobs\n",
                static_cast<unsigned long long>(idle_resets_),
                static_cast<unsigned long long>(subjobs_reset_));
  for (const auto& [task, tm] : per_task_) {
    out += strfmt(
        "  %s: arrived %llu released %llu rejected %llu completed %llu "
        "missed %llu mean-response %.2fms\n",
        task.to_string().c_str(),
        static_cast<unsigned long long>(tm.arrivals),
        static_cast<unsigned long long>(tm.releases),
        static_cast<unsigned long long>(tm.rejections),
        static_cast<unsigned long long>(tm.completions),
        static_cast<unsigned long long>(tm.deadline_misses),
        tm.response_ms.mean());
  }
  return out;
}

}  // namespace rtcm::core
