// Ablation bench — the design decisions DESIGN.md flags:
//
//   (1) queueing vs linear latency inflation: the 10x/100x impact tail of
//       Fig. 8 exists only under the queueing law;
//   (2) previous-day vs same-day nameserver join: joining against the
//       attack day's own observations loses the events where the attack
//       itself silenced the servers;
//   (3) capacity headroom scaling: without sublinear over-provisioning,
//       intensity would predict impact and Fig. 9's null result vanishes.
#include "bench_common.h"

#include "core/columnar.h"
#include "core/impact.h"
#include "dns/load_model.h"
#include "store/dataset.h"

using namespace ddos;

namespace {

void ablate_inflation_law() {
  std::cout << "-- (1) latency inflation law --\n";
  const dns::LoadModelParams model;
  util::TextTable table({"utilisation", "queueing mult", "linear mult"});
  for (const double rho : {0.5, 0.9, 0.97, 0.99, 0.999}) {
    table.add_row({util::format_fixed(rho, 3),
                   util::format_fixed(
                       dns::rtt_multiplier(rho, model,
                                           dns::InflationLaw::Queueing), 1) +
                       "x",
                   util::format_fixed(
                       dns::rtt_multiplier(rho, model,
                                           dns::InflationLaw::Linear), 2) +
                       "x"});
  }
  std::cout << table.to_string();
  std::cout << "the linear law cannot exceed ~1.35x below saturation: the "
               "paper's 10-100x impact tail (Fig. 8) is unreachable — the "
               "queueing shape, not attack volume, creates it.\n\n";
}

void ablate_previous_day_join() {
  std::cout << "-- (2) previous-day vs same-day nameserver join --\n";
  // For sub-day attacks the two variants coincide (the server still
  // answers outside the attack hours, so it is "seen" either way).
  std::uint64_t kept_prev = 0, kept_same = 0;
  {
    const auto& r = bench::longitudinal();
    for (const auto& ev : r.events) {
      if (!r.world->registry.is_ns_ip(ev.victim) ||
          r.world->registry.is_open_resolver(ev.victim))
        continue;
      const netsim::DayIndex day = ev.start_time().day();
      if (r.store.ns_seen_on(ev.victim, day - 1)) ++kept_prev;
      if (r.store.ns_seen_on(ev.victim, day)) ++kept_same;
    }
  }
  std::cout << "longitudinal (mostly sub-day attacks): previous-day keeps "
            << kept_prev << ", same-day keeps " << kept_same << "\n";

  // The variants diverge on multi-day blackouts (mil.ru, §5.2: eight days
  // down, geofenced). Constructed demonstration: a server answering on
  // day 9, silenced from day 10 onward; the telescope stitches an event
  // starting day 10.
  dns::DnsRegistry registry;
  const netsim::IPv4Addr ns_ip(10, 0, 0, 1);
  registry.add_nameserver(
      dns::Nameserver(ns_ip, {dns::Site{"x", 50e3, 20.0, 1.0}}));
  for (int d = 0; d < 8; ++d) {
    registry.add_domain(
        dns::DomainName::must("m" + std::to_string(d) + ".ru"), {ns_ip});
  }
  openintel::MeasurementStore store;
  const auto add = [&](netsim::DayIndex day, int wod,
                       dns::ResponseStatus status) {
    openintel::Measurement m;
    m.time = netsim::SimTime(day * netsim::kSecondsPerDay +
                             wod * netsim::kSecondsPerWindow);
    m.domain = 0;
    m.nsset = registry.nsset_of_domain(0);
    m.status = status;
    m.rtt_ms = status == dns::ResponseStatus::Ok ? 20.0 : 0.0;
    m.chosen_ns = ns_ip;
    store.add(m);
  };
  for (int i = 0; i < 8; ++i) add(9, i, dns::ResponseStatus::Ok);
  for (netsim::DayIndex day = 10; day <= 12; ++day) {
    for (int i = 0; i < 8; ++i) add(day, i, dns::ResponseStatus::Timeout);
  }
  telescope::RSDoSEvent ev;
  ev.victim = ns_ip;
  ev.start_window = 10 * netsim::kWindowsPerDay;
  ev.end_window = 12 * netsim::kWindowsPerDay + 7;

  const bool prev_day_joins = store.ns_seen_on(ns_ip, 9);
  const bool same_day_joins = store.ns_seen_on(ns_ip, 10);
  util::TextTable table({"Join variant", "multi-day blackout joined?"});
  table.add_row({"previous-day (paper §4.2)", prev_day_joins ? "yes" : "NO"});
  table.add_row({"same-day (ablation)", same_day_joins ? "yes" : "NO"});
  std::cout << table.to_string();
  std::cout << "a server silenced for its victims' whole observation day "
               "never appears in same-day observations — the previous-day "
               "snapshot is what lets the worst events join at all.\n\n";
}

void ablate_headroom() {
  std::cout << "-- (3) capacity headroom scaling --\n";
  // Re-run a smaller pipeline with flat capacities (exponent 0) and
  // compare the intensity-impact correlation.
  scenario::LongitudinalConfig flat = scenario::default_longitudinal_config();
  flat.workload.scale = 90.0;
  flat.world.domain_count = 40000;
  flat.world.provider_count = 600;
  flat.world.capacity_exponent = 0.0;
  flat.world.capacity_base_pps = 80e3;  // one size fits nobody
  const auto flat_result = scenario::run_longitudinal(flat);
  const auto flat_series = core::intensity_impact_series_columnar(
      store::OwnedEventFrame(flat_result.joined).frame(), flat_result.darknet);

  scenario::LongitudinalConfig scaled = flat;
  scaled.world.capacity_exponent = 0.40;
  scaled.world.capacity_base_pps = 18e3;
  const auto scaled_result = scenario::run_longitudinal(scaled);
  const auto scaled_series = core::intensity_impact_series_columnar(
      store::OwnedEventFrame(scaled_result.joined).frame(),
      scaled_result.darknet);

  util::TextTable table({"Capacity model", "Pearson(intensity, impact)",
                         "events"});
  table.add_row({"flat capacity (ablation)",
                 util::format_fixed(flat_series.pearson, 3),
                 util::with_commas(flat_series.n())});
  table.add_row({"sublinear headroom (default)",
                 util::format_fixed(scaled_series.pearson, 3),
                 util::with_commas(scaled_series.n())});
  std::cout << table.to_string();
  std::cout << "with flat capacities intensity predicts impact much more "
               "strongly; size-scaled over-provisioning is what produces "
               "the paper's null correlation (Fig. 9).\n";
}

void ablate_measurement_floor() {
  std::cout << "-- (4) the >=5-measured-domains noise floor (§6.3) --\n";
  const auto& r = bench::longitudinal();
  const core::ResilienceClassifier classifier(
      r.world->registry, r.world->census, r.world->routes, r.world->orgs);
  util::TextTable table({"min measured", "joined events",
                         "events with <5 measurements",
                         "impaired (>=10x) share"});
  for (const std::uint32_t floor : {1u, 5u}) {
    core::JoinParams params;
    params.min_measured_domains = floor;
    core::JoinPipeline pipeline(r.world->registry, r.store, classifier,
                                params);
    const auto joined = pipeline.run(r.events);
    std::uint64_t thin = 0, impaired = 0;
    for (const auto& ev : joined) {
      if (ev.domains_measured < 5) ++thin;
      if (ev.peak_impact >= core::kImpairedThreshold) ++impaired;
    }
    table.add_row({std::to_string(floor), util::with_commas(joined.size()),
                   util::with_commas(thin),
                   bench::pct(joined.empty()
                                  ? 0.0
                                  : static_cast<double>(impaired) /
                                        joined.size())});
  }
  std::cout << table.to_string();
  std::cout << "dropping the floor admits a long tail of 1-4-measurement "
               "events whose single-sample window averages swing the "
               "impact statistics — the noise §6.3 excludes.\n";
}

}  // namespace

int main() {
  std::cout << util::banner("Ablations: model design choices") << "\n\n";
  ablate_inflation_law();
  ablate_previous_day_join();
  ablate_headroom();
  ablate_measurement_floor();
  return 0;
}
