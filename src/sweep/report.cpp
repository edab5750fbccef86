#include "sweep/report.h"

#include <cstdio>
#include <cstdlib>

#include "util/strings.h"

namespace rtcm::sweep {

namespace {

json::Value stats_json(const OnlineStats& s, bool with_spread) {
  json::Value out = json::Value::object();
  out.set("mean", s.mean());
  if (with_spread) {
    out.set("stddev", s.stddev());
    out.set("min", s.min());
    out.set("max", s.max());
  }
  out.set("sum", s.sum());
  return out;
}

json::Value cell_json(const CellResult& r, bool include_timing) {
  json::Value out = json::Value::object();
  out.set("combo", r.cell.combo);
  out.set("shape", r.cell.shape);
  out.set("variant", r.cell.variant);
  out.set("seed", r.cell.seed);
  out.set("accept_ratio", r.accept_ratio);
  out.set("deadline_misses", r.deadline_misses);
  out.set("aperiodic_response_ms", r.aperiodic_response_ms);
  // Reconfiguration counters only appear for mode-change cells, so reports
  // from plain sweeps keep their historical byte layout.
  if (r.reconfig_applied > 0 || r.reconfig_rejected > 0) {
    out.set("reconfig_applied", r.reconfig_applied);
    out.set("reconfig_rejected", r.reconfig_rejected);
  }
  if (include_timing) out.set("wall_ms", r.wall_ms);
  if (!r.error.empty()) out.set("error", r.error);
  return out;
}

json::Value report_json(const Report& report, bool include_timing,
                        bool include_provenance) {
  json::Value out = json::Value::object();
  out.set("schema_version", report.schema_version);
  out.set("name", report.name);
  if (include_provenance) out.set("git_sha", report.git_sha);
  out.set("params", report.params);
  json::Value cells = json::Value::array();
  for (const auto& cell : report.cells) {
    cells.push_back(cell_json(cell, include_timing));
  }
  out.set("cells", cells);
  json::Value aggregates = json::Value::array();
  for (const auto& agg : report.aggregates()) {
    json::Value a = json::Value::object();
    a.set("combo", agg.combo);
    a.set("shape", agg.shape);
    a.set("variant", agg.variant);
    a.set("cells", static_cast<std::int64_t>(agg.accept_ratio.count()));
    a.set("accept_ratio", stats_json(agg.accept_ratio, true));
    a.set("deadline_misses", stats_json(agg.deadline_misses, false));
    a.set("aperiodic_response_ms",
          stats_json(agg.aperiodic_response_ms, false));
    if (include_timing) a.set("wall_ms", stats_json(agg.wall_ms, false));
    aggregates.push_back(std::move(a));
  }
  out.set("aggregates", aggregates);
  return out;
}

}  // namespace

std::vector<Aggregate> Report::aggregates() const {
  std::vector<Aggregate> out;
  for (const auto& r : cells) {
    Aggregate* agg = nullptr;
    for (auto& existing : out) {
      if (existing.combo == r.cell.combo && existing.shape == r.cell.shape &&
          existing.variant == r.cell.variant) {
        agg = &existing;
        break;
      }
    }
    if (agg == nullptr) {
      out.push_back(Aggregate{r.cell.combo, r.cell.shape, r.cell.variant,
                              {}, {}, {}, {}});
      agg = &out.back();
    }
    agg->accept_ratio.add(r.accept_ratio);
    agg->deadline_misses.add(static_cast<double>(r.deadline_misses));
    agg->aperiodic_response_ms.add(r.aperiodic_response_ms);
    agg->wall_ms.add(r.wall_ms);
  }
  return out;
}

double Report::mean_accept_ratio(const std::string& combo,
                                 const std::string& variant) const {
  for (const auto& agg : aggregates()) {
    if (agg.combo == combo && agg.variant == variant) {
      return agg.accept_ratio.mean();
    }
  }
  return 0.0;
}

json::Value Report::to_json() const {
  return report_json(*this, /*include_timing=*/true,
                     /*include_provenance=*/true);
}

Result<Report> Report::from_json(const json::Value& v) {
  if (!v.is_object()) return Result<Report>::error("report is not an object");
  Report report;
  report.schema_version =
      static_cast<int>(v.get("schema_version").as_int(-1));
  if (report.schema_version < kMinReportSchemaVersion ||
      report.schema_version > kReportSchemaVersion) {
    return Result<Report>::error(
        strfmt("unsupported schema_version %d (expected %d..%d)",
               report.schema_version, kMinReportSchemaVersion,
               kReportSchemaVersion));
  }
  report.name = v.get("name").as_string();
  report.git_sha = v.get("git_sha").as_string();
  report.params = v.get("params");
  const json::Value& cells = v.get("cells");
  if (!cells.is_array()) {
    return Result<Report>::error("report has no cells array");
  }
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const json::Value& c = cells.at(i);
    CellResult r;
    r.cell.combo = c.get("combo").as_string();
    r.cell.shape = c.get("shape").as_string();
    r.cell.variant = c.get("variant").as_string();
    r.cell.seed = static_cast<std::uint64_t>(c.get("seed").as_int());
    r.accept_ratio = c.get("accept_ratio").as_double();
    r.deadline_misses =
        static_cast<std::uint64_t>(c.get("deadline_misses").as_int());
    r.aperiodic_response_ms = c.get("aperiodic_response_ms").as_double();
    r.reconfig_applied =
        static_cast<std::uint64_t>(c.get("reconfig_applied").as_int(0));
    r.reconfig_rejected =
        static_cast<std::uint64_t>(c.get("reconfig_rejected").as_int(0));
    r.wall_ms = c.get("wall_ms").as_double();
    r.error = c.get("error").as_string();
    report.cells.push_back(std::move(r));
  }
  return report;
}

std::string Report::deterministic_dump() const {
  return report_json(*this, /*include_timing=*/false,
                     /*include_provenance=*/false)
      .dump();
}

Status Report::write_file(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::error("cannot open " + path + " for writing");
  }
  const std::string text = to_json().dump();
  const std::size_t written = std::fwrite(text.data(), 1, text.size(), f);
  const int close_rc = std::fclose(f);
  if (written != text.size() || close_rc != 0) {
    return Status::error("short write to " + path);
  }
  return Status::ok();
}

std::string git_head_sha() {
  // rtcm-lint: allow(env-switch) provenance label; no result depends on it
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  if (const char* env = std::getenv("RTCM_GIT_SHA");
      env != nullptr && env[0] != '\0') {
    return env;
  }
  std::FILE* pipe = ::popen("git rev-parse HEAD 2>/dev/null", "r");
  if (pipe != nullptr) {
    char buf[128] = {0};
    const std::size_t n = std::fread(buf, 1, sizeof(buf) - 1, pipe);
    ::pclose(pipe);
    const std::string sha = trim(std::string_view(buf, n));
    // A well-formed sha is 40 hex characters; anything else means we were
    // run outside a work tree.
    if (sha.size() == 40) return sha;
  }
  return "unknown";
}

}  // namespace rtcm::sweep
