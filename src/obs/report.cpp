#include "obs/report.h"

#include <cmath>
#include <cstdio>

namespace ddos::obs {

namespace {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  if (v == static_cast<double>(static_cast<std::int64_t>(v)) &&
      std::abs(v) < 1e15) {
    return std::to_string(static_cast<std::int64_t>(v));
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void write_section(std::ostream& out, const char* name,
                   const std::vector<std::pair<std::string, std::string>>& kv) {
  out << "\"" << name << "\":{";
  bool first = true;
  for (const auto& [key, value] : kv) {
    if (!first) out << ",";
    first = false;
    out << "\"" << json_escape(key) << "\":" << value;
  }
  out << "}";
}

}  // namespace

void RunReport::add_config(const std::string& key, const std::string& value) {
  config_.emplace_back(key, "\"" + json_escape(value) + "\"");
}
void RunReport::add_config(const std::string& key, std::int64_t value) {
  config_.emplace_back(key, std::to_string(value));
}
void RunReport::add_config(const std::string& key, std::uint64_t value) {
  config_.emplace_back(key, std::to_string(value));
}
void RunReport::add_config(const std::string& key, double value) {
  config_.emplace_back(key, json_number(value));
}
void RunReport::add_result(const std::string& key, const std::string& value) {
  results_.emplace_back(key, "\"" + json_escape(value) + "\"");
}
void RunReport::add_result(const std::string& key, std::int64_t value) {
  results_.emplace_back(key, std::to_string(value));
}
void RunReport::add_result(const std::string& key, std::uint64_t value) {
  results_.emplace_back(key, std::to_string(value));
}
void RunReport::add_result(const std::string& key, double value) {
  results_.emplace_back(key, json_number(value));
}

void RunReport::write(std::ostream& out, const Observer& observer,
                      std::uint32_t max_stage_depth) const {
  out << "{\"tool\":\"ddosrepro\",\"command\":\"" << json_escape(command_)
      << "\",";
  write_section(out, "config", config_);
  out << ",";
  write_section(out, "results", results_);

  out << ",\"stages\":[";
  bool first = true;
  for (const auto& ev : observer.tracer().events()) {
    if (ev.depth > max_stage_depth) continue;
    if (!first) out << ",";
    first = false;
    out << "{\"name\":\"" << json_escape(ev.name)
        << "\",\"depth\":" << ev.depth << ",\"wall_ns\":" << ev.duration_ns;
    if (ev.items > 0) {
      out << ",\"items\":" << ev.items
          << ",\"items_per_sec\":" << json_number(ev.items_per_sec());
    }
    out << "}";
  }
  out << "]";

  out << ",\"metrics\":" << observer.metrics().snapshot().to_json() << "}";
}

}  // namespace ddos::obs
