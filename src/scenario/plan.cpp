#include "scenario/plan.h"

#include <charconv>
#include <limits>
#include <stdexcept>
#include <system_error>

namespace ddos::scenario {

SweepPlan derive_sweep_plan(const World& world,
                            const std::vector<telescope::RSDoSEvent>& events,
                            obs::Tracer* tracer, obs::Observer* observer) {
  obs::ScopedSpan plan_span(tracer, "sweep.plan");
  SweepPlan plan;

  const auto daily_key = [](dns::NssetId nsset, netsim::DayIndex day) {
    return (static_cast<std::uint64_t>(nsset) << 32) |
           static_cast<std::uint32_t>(day);
  };
  const auto window_key = [](dns::NssetId nsset, netsim::WindowIndex w) {
    return (static_cast<std::uint64_t>(nsset) << 32) |
           static_cast<std::uint32_t>(w);
  };
  const auto ns_key = [](netsim::IPv4Addr ip, netsim::DayIndex day) {
    return (static_cast<std::uint64_t>(ip.value()) << 32) |
           static_cast<std::uint32_t>(day);
  };

  for (const auto& ev : events) {
    if (!world.registry.is_ns_ip(ev.victim)) continue;
    const netsim::DayIndex first_day = ev.start_time().day();
    const netsim::DayIndex last_day = (ev.end_time() - 1).day();
    plan.ns_seen_keys.insert(ns_key(ev.victim, first_day - 1));
    // Also retain the attack day's own sighting so the same-day-join
    // ablation measures the method, not the retention policy.
    plan.ns_seen_keys.insert(ns_key(ev.victim, first_day));
    for (const dns::NssetId nsset :
         world.registry.nssets_containing(ev.victim)) {
      plan.daily_keys.insert(daily_key(nsset, first_day - 1));
      for (netsim::WindowIndex w = ev.start_window; w <= ev.end_window; ++w) {
        plan.window_keys.insert(window_key(nsset, w));
      }
      const auto domains = world.registry.domains_of_nsset(nsset);
      for (netsim::DayIndex d = first_day - 1; d <= last_day; ++d) {
        auto& day_set = plan.days[d];
        for (const dns::DomainId dom : domains) day_set.insert(dom);
      }
    }
  }

  for (const auto& [day, domains] : plan.days) {
    plan.domains_planned += domains.size();
  }
  plan_span.set_items(plan.domains_planned);
  plan_span.arg("days", static_cast<std::int64_t>(plan.days.size()));
  if (observer) {
    observer->pipeline.run_domains_planned.set(
        static_cast<double>(plan.domains_planned));
  }
  return plan;
}

// ---- shard partition.

namespace {

std::optional<ShardSpec> shard_error(std::string* error, std::string_view spec,
                                     const std::string& detail) {
  if (error != nullptr) {
    *error = "shard expects i/N — a zero-based shard index and the total "
             "shard count (two unsigned integers with i < N, e.g. 0/3), "
             "got '" +
             std::string(spec) + "': " + detail;
  }
  return std::nullopt;
}

}  // namespace

std::optional<ShardSpec> parse_shard(std::string_view spec,
                                     std::string* error) {
  const std::size_t slash = spec.find('/');
  if (slash == std::string_view::npos) {
    return shard_error(error, spec, "expected one '/' separator");
  }
  static constexpr const char* kFieldNames[2] = {"shard index", "shard count"};
  const std::string_view fields[2] = {spec.substr(0, slash),
                                      spec.substr(slash + 1)};
  std::uint32_t parts[2] = {0, 0};
  for (int i = 0; i < 2; ++i) {
    const std::string_view field = fields[i];
    if (field.empty()) {
      return shard_error(error, spec, std::string(kFieldNames[i]) + " is empty");
    }
    if (field.front() == '-') {
      return shard_error(error, spec, std::string(kFieldNames[i]) + " '" +
                                          std::string(field) + "' is negative");
    }
    const auto [ptr, ec] =
        std::from_chars(field.data(), field.data() + field.size(), parts[i]);
    if (ec == std::errc::result_out_of_range) {
      return shard_error(error, spec, std::string(kFieldNames[i]) + " '" +
                                          std::string(field) +
                                          "' overflows 32 bits");
    }
    if (ec != std::errc{} || ptr != field.data() + field.size()) {
      return shard_error(error, spec,
                         std::string(kFieldNames[i]) + " '" +
                             std::string(field) +
                             "' is not an unsigned integer");
    }
  }
  if (parts[1] == 0) {
    return shard_error(error, spec,
                       "shard count is zero; at least one shard is required");
  }
  if (parts[0] >= parts[1]) {
    return shard_error(
        error, spec,
        "shard index " + std::to_string(parts[0]) + " is out of range for " +
            std::to_string(parts[1]) +
            (parts[1] == 1 ? " shard" : " shards") + " (valid: 0.." +
            std::to_string(parts[1] - 1) + ")");
  }
  return ShardSpec{parts[0], parts[1]};
}

std::vector<netsim::DayIndex> shard_day_cuts(const SweepPlan& plan,
                                             std::uint32_t count) {
  if (count == 0) {
    throw std::invalid_argument("shard_day_cuts: count must be >= 1");
  }
  constexpr netsim::DayIndex kLo = std::numeric_limits<netsim::DayIndex>::min();
  constexpr netsim::DayIndex kHi = std::numeric_limits<netsim::DayIndex>::max();

  std::vector<netsim::DayIndex> days;
  std::vector<std::uint64_t> prefix;  // prefix[j] = weight of the first j days
  days.reserve(plan.days.size());
  prefix.reserve(plan.days.size() + 1);
  prefix.push_back(0);
  for (const auto& [day, domains] : plan.days) {
    days.push_back(day);
    prefix.push_back(prefix.back() + domains.size());
  }
  const std::uint64_t total = prefix.back();

  std::vector<netsim::DayIndex> cuts(count + 1);
  cuts[0] = kLo;
  cuts[count] = kHi;
  for (std::uint32_t k = 1; k < count; ++k) {
    std::size_t j = 0;
    if (total > 0) {
      // Smallest day prefix carrying >= k/count of the planned sweeps.
      // 128-bit products: prefix sums can reach 2^40+ and count 2^32.
      while (static_cast<unsigned __int128>(prefix[j]) * count <
             static_cast<unsigned __int128>(total) * k) {
        ++j;
      }
    } else {
      j = (days.size() * k) / count;
    }
    cuts[k] = j < days.size() ? days[j] : kHi;
  }
  return cuts;
}

ShardBounds shard_bounds(const SweepPlan& plan, const ShardSpec& spec) {
  if (spec.count == 0 || spec.index >= spec.count) {
    throw std::invalid_argument("shard_bounds: need index < count, count >= 1");
  }
  const std::vector<netsim::DayIndex> cuts = shard_day_cuts(plan, spec.count);
  return ShardBounds{cuts[spec.index], cuts[spec.index + 1]};
}

std::pair<std::uint64_t, std::uint64_t> shard_slice(std::uint64_t total,
                                                    const ShardSpec& spec) {
  return {total * spec.index / spec.count,
          total * (spec.index + 1) / spec.count};
}

}  // namespace ddos::scenario
