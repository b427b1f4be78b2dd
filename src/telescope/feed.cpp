#include "telescope/feed.h"

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <string>
#include <utility>

#include "exec/parallel.h"
#include "obs/obs.h"

namespace ddos::telescope {

RSDoSFeed::RSDoSFeed(InferenceParams inference,
                     attack::BackscatterModelParams model)
    : inference_(inference), model_(model) {}

void RSDoSFeed::ingest(const attack::AttackSchedule& schedule,
                       const Darknet& darknet, std::uint64_t seed) {
  ingest_stream(schedule, darknet, seed,
                [this](std::vector<RSDoSRecord>&& records) {
                  records_.insert(records_.end(),
                                  std::make_move_iterator(records.begin()),
                                  std::make_move_iterator(records.end()));
                });
}

std::size_t RSDoSFeed::ingest_stream(
    const attack::AttackSchedule& schedule, const Darknet& darknet,
    std::uint64_t seed,
    const std::function<void(std::vector<RSDoSRecord>&&)>& sink) {
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
  // the ordered reduction hands shards to the sink in shard-index order —
  // so the concatenated stream is identical for any chunking, any shard
  // decomposition and any thread count, and matches what ingest() appends
  // to records().
  constexpr std::size_t kAttacksPerRegion = 4096;
  Totals totals;
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
        [&sink](Totals& total, ShardOut&& shard) {
          total.windows_observed += shard.windows_observed;
          total.records += shard.records.size();
          sink(std::move(shard.records));
        });
  }
  span.set_items(totals.windows_observed);
  if (obs::Observer* o = obs::Observer::installed()) {
    o->pipeline.feed_windows_observed.inc(totals.windows_observed);
    o->pipeline.feed_records.inc(totals.records);
  }
  return totals.records;
}

std::vector<RSDoSEvent> RSDoSFeed::events() const {
  obs::ScopedSpan span(obs::installed_tracer(), "feed.stitch");
  span.set_items(records_.size());
  EventStitcher stitcher(inference_);
  for (const RSDoSRecord& rec : records_) stitcher.add(rec);
  return stitcher.finish();
}

void RSDoSFeed::write_csv(std::ostream& out) const {
  out << RSDoSRecord::csv_header() << '\n';
  for (const auto& rec : records_) out << rec.to_csv_row() << '\n';
}

}  // namespace ddos::telescope
