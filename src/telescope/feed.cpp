#include "telescope/feed.h"

#include <algorithm>
#include <cstddef>
#include <string>
#include <utility>

#include "exec/parallel.h"
#include "obs/obs.h"

namespace ddos::telescope {

RSDoSFeed::RSDoSFeed(InferenceParams inference,
                     attack::BackscatterModelParams model)
    : inference_(inference), model_(model) {}

void RSDoSFeed::reserve_for(const attack::AttackSchedule& schedule) {
  std::size_t windows = 0;
  for (const attack::AttackSpec& atk : schedule.attacks()) {
    windows +=
        static_cast<std::size_t>(atk.last_window() - atk.first_window() + 1);
  }
  records_.reserve(records_.size() + windows);
}

void RSDoSFeed::ingest(const attack::AttackSchedule& schedule,
                       const Darknet& darknet, std::uint64_t seed) {
  reserve_for(schedule);
  ingest_stream(schedule, darknet, seed, [this](RecordBatch batch) {
    for (const std::span<const RSDoSRecord> part : batch) add_records(part);
  });
}

void RSDoSFeed::ingest_stream(const attack::AttackSchedule& schedule,
                              const Darknet& darknet, std::uint64_t seed,
                              const std::function<void(RecordBatch)>& sink) {
  obs::ScopedSpan span(obs::installed_tracer(), "feed.ingest");
  const double fraction = darknet.ipv4_fraction();
  const std::uint32_t subnets = darknet.slash16_count();
  const auto& attacks = schedule.attacks();
  // Parent stream for per-attack splits: each attack's RNG is a pure
  // function of (seed, attack id), so shards can process attacks in any
  // order and re-ingesting reproduces the same feed.
  const netsim::Rng base(netsim::mix64(seed));

  struct ShardOut {
    std::vector<RSDoSRecord> records;
    std::uint64_t windows_observed = 0;
  };
  struct Totals {
    std::uint64_t windows_observed = 0;
    std::uint64_t records = 0;
  };
  // The schedule is processed in bounded chunks of attacks, one parallel
  // region per chunk, so at most one chunk's shard outputs are ever
  // resident — that region is the streaming pipeline's peak-memory term.
  // Order is unaffected: shards (and chunks) are contiguous ascending
  // attack ranges, each attack's records are emitted in window order, and
  // the ordered reduction lists shards in shard-index order — so the
  // concatenated stream is identical for any chunking, any shard
  // decomposition and any thread count, and matches what ingest() appends
  // to records().
  Totals totals;
  std::vector<std::vector<RSDoSRecord>> region;
  std::vector<std::span<const RSDoSRecord>> parts;
  for (std::size_t chunk = 0; chunk < attacks.size();
       chunk += kAttacksPerRegion) {
    const std::size_t chunk_size =
        std::min(kAttacksPerRegion, attacks.size() - chunk);
    exec::RegionOptions opts;
    opts.label = "feed.ingest";
    totals = exec::parallel_map_reduce(
        chunk_size, opts, totals,
        [&](const exec::ShardRange& range) {
          ShardOut out;
          for (std::size_t i = chunk + range.begin; i < chunk + range.end;
               ++i) {
            const auto& atk = attacks[i];
            netsim::Rng rng = base.split(atk.id);
            for (netsim::WindowIndex w = atk.first_window();
                 w <= atk.last_window(); ++w) {
              ++out.windows_observed;
              const auto bw = attack::observe_backscatter(
                  atk, w, fraction, subnets, model_, rng);
              if (passes_thresholds(bw, inference_)) {
                out.records.push_back(to_record(bw));
              }
            }
          }
          return out;
        },
        [&region](Totals& total, ShardOut&& shard) {
          total.windows_observed += shard.windows_observed;
          total.records += shard.records.size();
          region.push_back(std::move(shard.records));
        });
    parts.assign(region.begin(), region.end());
    sink(parts);
    region.clear();
  }
  span.set_items(totals.windows_observed);
  if (obs::Observer* o = obs::Observer::installed()) {
    o->pipeline.feed_windows_observed.inc(totals.windows_observed);
    o->pipeline.feed_records.inc(totals.records);
  }
}

std::vector<RSDoSEvent> RSDoSFeed::events() const {
  EventStitcher stitcher(inference_,
                         sample_victims(records_.size(), [&](std::size_t i) {
                           return records_[i].victim.value();
                         }));
  stitcher.add(records_);
  return stitcher.finish();
}

void RSDoSFeed::write_csv(std::ostream& out) const {
  out << RSDoSRecord::csv_header() << '\n';
  for (const auto& rec : records_) out << rec.to_csv_row() << '\n';
}

}  // namespace ddos::telescope
