// RSDoSFeed — end-to-end generation of the curated attack feed from an
// attack schedule through the darknet, plus the summary statistics the
// paper reports about it (Table 1) and the pps extrapolation helper
// (footnote 2: victim pps ≈ telescope ppm × extrapolation / 60).
#pragma once

#include <cstdint>
#include <functional>
#include <ostream>
#include <span>
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

  /// Streaming ingest: instead of retaining the records, hand each ingest
  /// region's records to `sink` as one batch, empty regions included —
  /// its shards' outputs in shard order, regions in schedule order, so
  /// concatenating the batches reproduces exactly what ingest() appends to
  /// records(). The records are released as soon as the sink returns,
  /// which is what bounds the run executor's memory: the sink folds them
  /// into the event stitcher and the DRS feed columns, never a full
  /// vector. Identical observer metrics to ingest().
  void ingest_stream(const attack::AttackSchedule& schedule,
                     const Darknet& darknet, std::uint64_t seed,
                     const std::function<void(RecordBatch)>& sink);

  /// Ingest regions (ingest_stream sink calls) for `schedule`: runs of
  /// kAttacksPerRegion attacks, the last one possibly shorter.
  static std::size_t region_count(const attack::AttackSchedule& schedule) {
    return (schedule.size() + kAttacksPerRegion - 1) / kAttacksPerRegion;
  }

  /// Reserve room for every record `schedule` can yield, one per attack
  /// window, so retaining its feed never regrows the record vector: a
  /// regrowth holds the old and the new copy at once, the largest term of
  /// the ingest's peak memory. Pages never written stay unmapped.
  void reserve_for(const attack::AttackSchedule& schedule);

  /// Append records in bulk (ingest regions, tests, replays).
  void add_records(std::span<const RSDoSRecord> records) {
    records_.insert(records_.end(), records.begin(), records.end());
  }

  /// Replace all records wholesale (DRS store load / replays).
  void set_records(std::vector<RSDoSRecord> records) {
    records_ = std::move(records);
  }

  const std::vector<RSDoSRecord>& records() const { return records_; }

  /// Stitched per-victim events (EventStitcher over records(), cut at a
  /// sample of them; recomputed on call).
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
  static constexpr std::size_t kAttacksPerRegion = 4096;  // one ingest region
  InferenceParams inference_;
  attack::BackscatterModelParams model_;
  std::vector<RSDoSRecord> records_;
};

}  // namespace ddos::telescope
