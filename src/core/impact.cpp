#include "core/impact.h"

namespace ddos::core {

double impact_on_rtt(const openintel::Aggregate& window_agg,
                     double baseline_avg_rtt_ms) {
  if (baseline_avg_rtt_ms <= 0.0) return 0.0;
  if (window_agg.rtt.empty()) return 0.0;
  return window_agg.avg_rtt() / baseline_avg_rtt_ms;
}

}  // namespace ddos::core
