// Run-report writer — one machine-readable JSON document per pipeline run:
// the invoked command and config, the stage timings harvested from the
// Tracer (top-level spans only; deep per-day detail stays in the Chrome
// trace), a full metrics snapshot, and the headline result shapes. Future
// PRs diff these documents to see perf and shape drift across versions.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "obs/obs.h"

namespace ddos::obs {

/// Ordered key/value sections; values are stored as ready-to-emit JSON
/// literals via the typed add_* helpers.
class RunReport {
 public:
  explicit RunReport(std::string command) : command_(std::move(command)) {}

  void add_config(const std::string& key, const std::string& value);
  void add_config(const std::string& key, std::int64_t value);
  void add_config(const std::string& key, std::uint64_t value);
  void add_config(const std::string& key, double value);
  void add_result(const std::string& key, const std::string& value);
  void add_result(const std::string& key, std::int64_t value);
  void add_result(const std::string& key, std::uint64_t value);
  void add_result(const std::string& key, double value);

  const std::string& command() const { return command_; }

  /// Emit the document. Stage rows are the observer's spans with
  /// depth <= max_stage_depth (default: root + direct children).
  void write(std::ostream& out, const Observer& observer,
             std::uint32_t max_stage_depth = 1) const;

 private:
  using Section = std::vector<std::pair<std::string, std::string>>;
  std::string command_;
  Section config_;
  Section results_;
};

}  // namespace ddos::obs
