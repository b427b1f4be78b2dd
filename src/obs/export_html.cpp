#include "obs/export_html.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "obs/timeseries.h"
#include "obs/trace.h"

namespace ddos::obs {

namespace {

std::string html_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out += c;
    }
  }
  return out;
}

// Compact human number for headline values: 12, 3.4k, 1.2M, 0.003.
std::string human_number(double v) {
  const double a = std::abs(v);
  char buf[64];
  if (a >= 1e9) {
    std::snprintf(buf, sizeof(buf), "%.2fG", v / 1e9);
  } else if (a >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.2fM", v / 1e6);
  } else if (a >= 1e4) {
    std::snprintf(buf, sizeof(buf), "%.1fk", v / 1e3);
  } else if (v == static_cast<double>(static_cast<std::int64_t>(v))) {
    std::snprintf(buf, sizeof(buf), "%lld",
                  static_cast<long long>(v));
  } else if (a >= 1.0) {
    std::snprintf(buf, sizeof(buf), "%.2f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.4g", v);
  }
  return buf;
}

std::string fmt_seconds(double s) {
  char buf[64];
  if (s >= 60.0) {
    std::snprintf(buf, sizeof(buf), "%dm%02.0fs", static_cast<int>(s / 60.0),
                  std::fmod(s, 60.0));
  } else if (s >= 1.0) {
    std::snprintf(buf, sizeof(buf), "%.2fs", s);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0fms", s * 1e3);
  }
  return buf;
}

std::string fmt_coord(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", v);
  return buf;
}

// Palette + layout. Text always wears ink tokens; only marks wear the
// series color. Dark mode re-derives from the same tokens via
// prefers-color-scheme and an explicit data-theme override.
constexpr const char* kStyle = R"css(
:root {
  --surface: #fcfcfb;
  --ink: #0b0b0b;
  --ink-2: #52514e;
  --muted: #898781;
  --grid: #e1e0d9;
  --series: #2a78d6;
}
@media (prefers-color-scheme: dark) {
  :root {
    --surface: #1a1a19;
    --ink: #ffffff;
    --ink-2: #c3c2b7;
    --muted: #898781;
    --grid: #2c2c2a;
    --series: #3987e5;
  }
}
[data-theme="dark"] {
  --surface: #1a1a19;
  --ink: #ffffff;
  --ink-2: #c3c2b7;
  --muted: #898781;
  --grid: #2c2c2a;
  --series: #3987e5;
}
* { box-sizing: border-box; }
body {
  margin: 0;
  padding: 24px;
  background: var(--surface);
  color: var(--ink);
  font: 14px/1.45 ui-sans-serif, system-ui, sans-serif;
}
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 15px; margin: 28px 0 10px; color: var(--ink); }
.sub { color: var(--ink-2); margin: 0 0 16px; }
table.meta { border-collapse: collapse; margin: 0 0 8px; }
table.meta td { padding: 2px 16px 2px 0; }
table.meta td:first-child { color: var(--ink-2); }
.grid {
  display: grid;
  grid-template-columns: repeat(auto-fill, minmax(300px, 1fr));
  gap: 12px;
}
.card {
  border: 1px solid var(--grid);
  border-radius: 8px;
  padding: 10px 12px 6px;
}
.card .name {
  color: var(--ink-2);
  font-size: 12px;
  overflow-wrap: anywhere;
}
.card .value { font-size: 20px; font-weight: 600; margin: 2px 0 4px; }
.card .range { color: var(--muted); font-size: 11px; }
svg text { fill: var(--ink-2); font: 11px ui-sans-serif, system-ui, sans-serif; }
svg .bar { fill: var(--series); }
svg .line { stroke: var(--series); stroke-width: 2; fill: none; }
svg .gridline { stroke: var(--grid); stroke-width: 1; }
)css";

struct SparkCard {
  std::string name;
  std::string kind;
  std::vector<SeriesPoint> points;
};

void render_sparkline(std::ostream& out, const SparkCard& card,
                      std::uint64_t t_min, std::uint64_t t_max) {
  constexpr double kW = 280, kH = 56, kPad = 3;
  double v_min = 0, v_max = 0;
  for (std::size_t i = 0; i < card.points.size(); ++i) {
    v_min = i == 0 ? card.points[i].value : std::min(v_min, card.points[i].value);
    v_max = i == 0 ? card.points[i].value : std::max(v_max, card.points[i].value);
  }
  if (v_max == v_min) v_max = v_min + 1.0;  // flat series: centered line
  const double t_span =
      t_max > t_min ? static_cast<double>(t_max - t_min) : 1.0;

  const double last = card.points.empty() ? 0.0 : card.points.back().value;
  out << "<div class=\"card\"><div class=\"name\">" << html_escape(card.name)
      << " <span class=\"range\">(" << card.kind
      << ")</span></div><div class=\"value\">" << human_number(last)
      << "</div>\n";
  out << "<svg viewBox=\"0 0 " << kW << " " << kH
      << "\" width=\"100%\" height=\"56\" role=\"img\" aria-label=\""
      << html_escape(card.name) << "\">";
  // Hairline baseline at the series minimum.
  out << "<line class=\"gridline\" x1=\"0\" y1=\"" << fmt_coord(kH - kPad)
      << "\" x2=\"" << kW << "\" y2=\"" << fmt_coord(kH - kPad) << "\"/>";
  out << "<polyline class=\"line\" points=\"";
  for (const auto& p : card.points) {
    const double x =
        kPad + (kW - 2 * kPad) *
                   (static_cast<double>(p.t_ns - t_min) / t_span);
    const double y =
        kPad + (kH - 2 * kPad) * (1.0 - (p.value - v_min) / (v_max - v_min));
    out << fmt_coord(x) << "," << fmt_coord(y) << " ";
  }
  out << "\"><title>" << html_escape(card.name) << ": last "
      << human_number(last) << ", min " << human_number(v_min) << ", max "
      << human_number(v_max) << "</title></polyline></svg>\n";
  out << "<div class=\"range\">min " << human_number(v_min) << " · max "
      << human_number(v_max) << " · " << card.points.size()
      << " pts</div></div>\n";
}

void render_timeline(std::ostream& out, const std::vector<TraceEvent>& events,
                     std::size_t max_rows) {
  // Top-level stages only; keep the longest spans, draw in start order.
  std::vector<const TraceEvent*> spans;
  for (const auto& ev : events) {
    if (ev.depth <= 1 && ev.duration_ns > 0) spans.push_back(&ev);
  }
  if (spans.empty()) {
    out << "<p class=\"sub\">no trace spans recorded</p>\n";
    return;
  }
  std::stable_sort(spans.begin(), spans.end(),
                   [](const TraceEvent* a, const TraceEvent* b) {
                     return a->duration_ns > b->duration_ns;
                   });
  if (spans.size() > max_rows) spans.resize(max_rows);
  std::stable_sort(spans.begin(), spans.end(),
                   [](const TraceEvent* a, const TraceEvent* b) {
                     return a->start_ns < b->start_ns;
                   });

  std::uint64_t t0 = spans[0]->start_ns, t1 = 0;
  for (const auto* s : spans) {
    t0 = std::min(t0, s->start_ns);
    t1 = std::max(t1, s->start_ns + s->duration_ns);
  }
  const double span_ns = static_cast<double>(std::max<std::uint64_t>(
      1, t1 - t0));

  constexpr double kW = 920, kLabelW = 240, kRowH = 26, kBarH = 18;
  const double h = kRowH * static_cast<double>(spans.size()) + 20;
  out << "<svg viewBox=\"0 0 " << kW << " " << h
      << "\" width=\"100%\" role=\"img\" aria-label=\"stage timeline\">\n";
  // Quarter gridlines across the plot area.
  for (int g = 0; g <= 4; ++g) {
    const double x = kLabelW + (kW - kLabelW - 8) * g / 4.0;
    out << "<line class=\"gridline\" x1=\"" << fmt_coord(x) << "\" y1=\"0\" x2=\""
        << fmt_coord(x) << "\" y2=\"" << fmt_coord(h - 16) << "\"/>";
    out << "<text x=\"" << fmt_coord(x + 2) << "\" y=\"" << fmt_coord(h - 4)
        << "\">" << fmt_seconds(static_cast<double>(t0) / 1e9 +
                                span_ns / 1e9 * g / 4.0)
        << "</text>";
  }
  out << "\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const TraceEvent& ev = *spans[i];
    const double y = kRowH * static_cast<double>(i);
    const double x =
        kLabelW +
        (kW - kLabelW - 8) * (static_cast<double>(ev.start_ns - t0) / span_ns);
    const double w = std::max(
        2.0, (kW - kLabelW - 8) *
                 (static_cast<double>(ev.duration_ns) / span_ns));
    out << "<text x=\"0\" y=\"" << fmt_coord(y + kBarH - 4) << "\">"
        << html_escape(ev.name) << "</text>";
    out << "<rect class=\"bar\" x=\"" << fmt_coord(x) << "\" y=\""
        << fmt_coord(y + (kRowH - kBarH) / 2 - 2) << "\" width=\""
        << fmt_coord(w) << "\" height=\"" << kBarH << "\" rx=\"4\"><title>"
        << html_escape(ev.name) << ": "
        << fmt_seconds(static_cast<double>(ev.duration_ns) / 1e9)
        << " (start " << fmt_seconds(static_cast<double>(ev.start_ns) / 1e9)
        << (ev.items > 0 ? ", items " + std::to_string(ev.items) : "")
        << ")</title></rect>\n";
  }
  out << "</svg>\n";
}

}  // namespace

void write_dashboard_html(std::ostream& out, const Observer& observer,
                          const TelemetrySampler* sampler,
                          const DashboardOptions& options) {
  out << "<!doctype html>\n<html lang=\"en\">\n<head>\n"
      << "<meta charset=\"utf-8\">\n"
      << "<meta name=\"viewport\" content=\"width=device-width, "
         "initial-scale=1\">\n"
      << "<title>" << html_escape(options.title) << "</title>\n"
      << "<style>" << kStyle << "</style>\n</head>\n<body>\n";

  out << "<h1>" << html_escape(options.title) << "</h1>\n";
  out << "<p class=\"sub\">time-resolved run dashboard · generated by "
         "ddosrepro</p>\n";

  // ---- run meta -------------------------------------------------------
  out << "<table class=\"meta\">\n";
  for (const auto& [k, v] : options.meta) {
    out << "<tr><td>" << html_escape(k) << "</td><td>" << html_escape(v)
        << "</td></tr>\n";
  }
  if (sampler != nullptr) {
    out << "<tr><td>samples</td><td>" << sampler->samples_taken()
        << "</td></tr>\n"
        << "<tr><td>series</td><td>" << sampler->series().series_count()
        << "</td></tr>\n"
        << "<tr><td>ring memory bound</td><td>"
        << human_number(
               static_cast<double>(sampler->series().memory_bound_bytes()))
        << "B</td></tr>\n";
  }
  out << "</table>\n";

  // ---- stage timeline -------------------------------------------------
  out << "<h2>Stage timeline</h2>\n";
  render_timeline(out, observer.tracer().events(), options.max_timeline_rows);

  // ---- telemetry sparklines ------------------------------------------
  if (sampler != nullptr) {
    const auto series = sampler->series().snapshot();
    std::uint64_t t_min = 0, t_max = 0;
    bool have_t = false;
    for (const auto& s : series) {
      for (const auto& p : s.points) {
        t_min = have_t ? std::min(t_min, p.t_ns) : p.t_ns;
        t_max = have_t ? std::max(t_max, p.t_ns) : p.t_ns;
        have_t = true;
      }
    }
    out << "<h2>Telemetry (" << series.size() << " series, "
        << (sampler->options().interval_ms) << " ms cadence)</h2>\n";
    out << "<div class=\"grid\">\n";
    for (const auto& s : series) {
      SparkCard card;
      card.name = s.name;
      card.kind = s.kind == SeriesKind::Rate ? "rate/s" : "level";
      card.points = s.points;
      // Stride-downsample long rings, always keeping the last point.
      if (card.points.size() > options.max_points_per_series &&
          options.max_points_per_series >= 2) {
        std::vector<SeriesPoint> kept;
        const std::size_t stride =
            (card.points.size() + options.max_points_per_series - 1) /
            options.max_points_per_series;
        for (std::size_t i = 0; i < card.points.size(); i += stride) {
          kept.push_back(card.points[i]);
        }
        if (kept.back().t_ns != card.points.back().t_ns) {
          kept.push_back(card.points.back());
        }
        card.points = std::move(kept);
      }
      if (card.points.empty()) continue;
      render_sparkline(out, card, t_min, t_max);
    }
    out << "</div>\n";
  } else {
    out << "<h2>Telemetry</h2>\n<p class=\"sub\">no sampler attached (run "
           "with --telemetry-out or --dashboard-out to enable)</p>\n";
  }

  out << "</body>\n</html>\n";
}

}  // namespace ddos::obs
