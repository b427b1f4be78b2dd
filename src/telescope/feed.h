// RSDoSFeed — end-to-end generation of the curated attack feed from an
// attack schedule through the darknet, plus the summary statistics the
// paper reports about it (Table 1) and the pps extrapolation helper
// (footnote 2: victim pps ≈ telescope ppm × extrapolation / 60).
#pragma once

#include <cstdint>
#include <functional>
#include <ostream>
#include <unordered_set>
#include <utility>
#include <vector>

#include "attack/schedule.h"
#include "telescope/darknet.h"
#include "telescope/rsdos.h"

namespace ddos::telescope {

/// Summary row matching Table 1 of the paper.
struct FeedSummary {
  std::uint64_t attacks = 0;        // stitched events
  std::uint64_t unique_ips = 0;     // distinct victim addresses
  std::uint64_t unique_slash24 = 0; // distinct /24 prefixes
  std::uint64_t unique_asn = 0;     // distinct origin ASes (via callback)
};

class RSDoSFeed {
 public:
  RSDoSFeed(InferenceParams inference, attack::BackscatterModelParams model);

  /// Run every attack in `schedule` through `darknet` and retain the
  /// windows that pass the inference thresholds. Deterministic in `seed`.
  void ingest(const attack::AttackSchedule& schedule, const Darknet& darknet,
              std::uint64_t seed);

  /// Streaming ingest: instead of retaining the records, hand each
  /// parallel shard's batch to `sink` — in deterministic shard order, so
  /// concatenating the batches reproduces exactly what ingest() would have
  /// appended to records(). The records are moved out and released as soon
  /// as the sink returns, which is what bounds the run executor's
  /// memory: the sink folds them into the incremental event stitcher and
  /// the DRS feed columns, never a full vector. Returns the record count;
  /// identical observer metrics to ingest().
  std::size_t ingest_stream(
      const attack::AttackSchedule& schedule, const Darknet& darknet,
      std::uint64_t seed,
      const std::function<void(std::vector<RSDoSRecord>&&)>& sink);

  /// Append a pre-built record (tests / replays).
  void add_record(const RSDoSRecord& record) { records_.push_back(record); }

  /// Replace all records wholesale (DRS store load / replays).
  void set_records(std::vector<RSDoSRecord> records) {
    records_ = std::move(records);
  }

  const std::vector<RSDoSRecord>& records() const { return records_; }

  /// Stitched per-victim events (EventStitcher over records(), recomputed
  /// on call).
  std::vector<RSDoSEvent> events() const;

  /// Table-1 style totals. `origin_of` maps a victim IP to its origin AS
  /// (0 = unrouted, excluded from the AS count).
  template <typename OriginFn>
  FeedSummary summarize(OriginFn&& origin_of) const {
    FeedSummary s;
    std::unordered_set<netsim::IPv4Addr> ips;
    std::unordered_set<netsim::IPv4Addr> nets;
    std::unordered_set<std::uint32_t> asns;
    for (const auto& ev : events()) {
      ++s.attacks;
      ips.insert(ev.victim);
      nets.insert(ev.victim.slash24());
      const std::uint32_t asn = origin_of(ev.victim);
      if (asn != 0) asns.insert(asn);
    }
    s.unique_ips = ips.size();
    s.unique_slash24 = nets.size();
    s.unique_asn = asns.size();
    return s;
  }

  /// Victim pps inferred from a telescope ppm reading.
  double extrapolate_pps(double telescope_ppm, const Darknet& darknet) const {
    return telescope_ppm * darknet.extrapolation_factor() / 60.0;
  }

  /// Serialise all records as CSV (header + rows).
  void write_csv(std::ostream& out) const;

  const InferenceParams& inference() const { return inference_; }

 private:
  InferenceParams inference_;
  attack::BackscatterModelParams model_;
  std::vector<RSDoSRecord> records_;
};

}  // namespace ddos::telescope
