// Self-contained HTML run dashboard (--dashboard-out).
//
// One file, no external assets: inline CSS (light + dark via CSS custom
// properties and prefers-color-scheme) and inline SVG. Sections:
//
//   * run header — title plus caller-supplied meta rows (config, wall
//     time, sample/series counts, ring memory bound);
//   * stage timeline — horizontal bars for the top-level trace spans
//     (depth <= 1), on a shared run-relative time axis;
//   * telemetry sparklines — one card per sampled series with the last
//     value as the headline number and a 2px line chart of the ring.
//
// Native SVG <title> tooltips carry the point-level values, so the file
// stays inspectable without any scripting.
#pragma once

#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "obs/obs.h"
#include "obs/sampler.h"

namespace ddos::obs {

struct DashboardOptions {
  std::string title = "ddosrepro run";
  /// Extra key/value rows for the run header (config echo, totals).
  std::vector<std::pair<std::string, std::string>> meta;
  /// Per-series point cap; longer rings are stride-downsampled.
  std::size_t max_points_per_series = 600;
  /// Timeline keeps the longest N spans of depth <= 1.
  std::size_t max_timeline_rows = 48;
};

/// Renders the dashboard for an observer (timeline + metrics) and an
/// optional sampler (sparkline series; pass nullptr for timeline-only).
void write_dashboard_html(std::ostream& out, const Observer& observer,
                          const TelemetrySampler* sampler,
                          const DashboardOptions& options = {});

}  // namespace ddos::obs
