// Longitudinal driver — wires the full pipeline of Fig. 1 end to end for
// the seventeen-month study:
//
//   world -> attack workload -> darknet backscatter -> RSDoS feed
//         -> (sparse) OpenINTEL sweep -> measurement store
//         -> previous-day join -> NSSet attack events -> analyses.
//
// Sparse sweep: the production OpenINTEL sweeps every domain every day;
// replaying that here would be ~10^8 resolutions of which the analyses
// consume only the attack-adjacent slices. The driver therefore sweeps
// exactly the domains whose NSSet has an inferred attack that day, the day
// before (baseline + previous-day join), or the day after an attack began.
// Because each measurement's time and randomness depend only on
// (seed, domain, day), the retained measurements are bit-identical to a
// full sweep's — the skipped ones are those no analysis reads.
//
// One executor runs that pipeline as a streaming day-epoch dataflow: the
// sweep plan's days flow through channel-connected stages (plan producer
// -> sweep -> fold/join), and each event joins as soon as the last day it
// reads has been folded. run_longitudinal, run_longitudinal_streaming and
// run_shard are three configurations of it, differing in the day range
// they own, whether folded days are retained or retired at the join
// watermark, and where the output goes (the in-memory result, a DRS
// store, or a DRS shard store).
#pragma once

#include <memory>
#include <vector>

#include "core/columnar.h"
#include "core/join.h"
#include "core/resilience.h"
#include "openintel/storage.h"
#include "openintel/sweeper.h"
#include "scenario/plan.h"
#include "scenario/workload.h"
#include "scenario/world.h"
#include "store/dataset.h"
#include "telescope/feed.h"

namespace ddos::scenario {

struct LongitudinalConfig {
  WorldParams world;
  LongitudinalParams workload;
  telescope::InferenceParams inference;
  attack::BackscatterModelParams backscatter;
  dns::LoadModelParams model;
  dns::ResolverParams resolver;
  core::JoinParams join;
  std::uint64_t sweep_seed = 11;
  std::uint64_t feed_seed = 13;
};

/// Default config used by the benches; tests shrink world/scale.
LongitudinalConfig default_longitudinal_config();
/// Fast preset for unit/integration tests.
LongitudinalConfig small_longitudinal_config(std::uint64_t seed = 7);

/// The pipeline's data artifacts — everything the analyses and the DRS
/// persistence consume. One struct shared (as a base) by a live run
/// (LongitudinalResult) and a loaded store (StoredRun) so the two can
/// never drift apart field-by-field.
struct RunArtifacts {
  telescope::Darknet darknet = telescope::Darknet::ucsd_like();
  telescope::RSDoSFeed feed{telescope::InferenceParams{},
                            attack::BackscatterModelParams{}};
  /// Records the telescope inferred (a shard's: of its own ingest regions).
  /// The executor releases them region by region unless retain_feed, so
  /// counts must come from here, not from feed.records().size().
  std::uint64_t feed_records = 0;
  std::vector<telescope::RSDoSEvent> events;  // stitched telescope events
  openintel::MeasurementStore store;
  std::vector<core::NssetAttackEvent> joined;
  core::JoinStats join_stats;
  std::uint64_t swept_measurements = 0;
};

struct LongitudinalResult : RunArtifacts {
  std::unique_ptr<World> world;
  Workload workload;
  /// Bytes written to StreamingOptions::store_path (streaming runs that
  /// persist a store only; run_longitudinal results persist via save_run).
  std::uint64_t store_bytes = 0;
};

/// The whole day range with every folded day and feed record retained:
/// the result carries the full MeasurementStore and record vector that
/// save_run writes.
LongitudinalResult run_longitudinal(const LongitudinalConfig& config);

// ---- sharded generation (`generate --shard i/N`, plan/execute/compact).
//
// run_shard executes one shard of plan.h's N-way day partition — its
// owned day range plus the halo day below it that its owned events'
// previous-day reads reach — and writes an independent DRS shard store:
// the same meta/block layout as save_run restricted to the owned days,
// events and ingest regions, plus store::write_shard_manifest's manifest.
// store::merge_stores compacts the N shard stores into one store
// byte-identical to the whole run's, for any N and any thread count.

/// What one shard produced — the CLI summary line and the accounting the
/// shard tests check (per-shard counts sum to the whole run's).
struct ShardRunResult {
  ShardSpec spec;
  std::uint64_t events_total = 0;  // world-wide stitched telescope events
  std::uint64_t owned_events = 0;  // telescope events this shard joined
  std::uint64_t feed_rows = 0;     // records of its owned ingest regions
  std::uint64_t joined_rows = 0;   // pre-merge NSSet-events persisted
  std::uint64_t swept_measurements = 0;  // owned-day measurements only
  std::uint64_t store_bytes = 0;
};

/// Execute shard `spec` against `config`'s world and write its DRS shard
/// store to `store_path`. `threads` is recorded as run.threads provenance
/// (merge requires it to match across shards — the merged file reproduces
/// a single-process run at that --threads). Throws store::StoreError on
/// write failure, std::invalid_argument on a bad spec.
ShardRunResult run_shard(const LongitudinalConfig& config,
                         const ShardSpec& spec, unsigned threads,
                         const std::string& store_path);

// ---- bounded-memory run (the CLI's run/generate).
//
// The whole day range, but the MeasurementStore retires every day no
// pending join can still need (the join only ever reads day d-1
// baselines, attack-window days, and the previous-day seen-NS sets).
// Epoch boundaries are pure functions of the day index, so the output —
// joined events, join stats, and an optional DRS file — is bit-identical
// to run_longitudinal (+ save_run) at any thread count.

struct StreamingOptions {
  /// When non-empty, write a save_run-equivalent DRS store to this path,
  /// aggregate columns appended per retired epoch.
  std::string store_path;
  /// Recorded as the run.threads provenance meta when store_path is set
  /// (save_run takes the same value as a parameter).
  unsigned threads = 0;
  /// Keep the full record vector in result.feed (needed by --feed-csv).
  /// Off by default, so peak memory stays bounded by one ingest region's
  /// records instead of the whole feed.
  bool retain_feed = false;
};

LongitudinalResult run_longitudinal_streaming(const LongitudinalConfig& config,
                                              const StreamingOptions& options);

// ---- generate/analyze stage split (DRS dataset store, src/store/).
//
// `save_run` persists a finished run's datasets — RSDoS feed windows,
// OpenINTEL sweep aggregates, per-victim attack counts, joined
// NSSet-attack events — plus the full generating provenance
// (world/workload/inference/join params, seeds, thread count, result
// counts) as one DRS container.
// `load_run` reads it back (opened as a CheckedStore, decodes fanned out
// across the exec pool) so analyses re-run without re-simulating, and
// `rejoin_from_store` re-executes the join stage from the stored
// aggregates to assert the store reproduces the generating run
// bit-for-bit.

/// A store's generating provenance: the config fields its footer records
/// (world, workload seed/scale knobs, inference, join, sweep/feed seeds)
/// and the generating run's worker count. Model/resolver params stay at
/// defaults (the CLI cannot change them); rejoin_from_store's equality
/// assertion would catch any divergence loudly.
struct Provenance {
  LongitudinalConfig config = default_longitudinal_config();
  unsigned threads = 0;
};

struct StoredRun : RunArtifacts, Provenance {
  std::uint64_t attacks = 0;  // generating workload size
};

/// Write `result` (+ provenance) as a DRS store. Returns bytes written;
/// throws store::StoreError when the file cannot be written.
std::uint64_t save_run(const std::string& path,
                       const LongitudinalConfig& config, unsigned threads,
                       const LongitudinalResult& result);

/// The one store open of load_run, analyze_store and serve::load_engine,
/// so all three trust a file's footer and blocks by the same check: maps
/// (or buffers) the file, reads the provenance and result counts from its
/// footer, checks the feed and events row counts against them, and CRC-
/// and structure-checks every block (store::check_all). Throws
/// store::StoreError naming the path. Stored values are checked by the
/// reader that decodes them (read_dataset's field fit,
/// store::read_victims), so analyze_store, which decodes only the
/// events, accepts a store whose feed or victims values the others
/// refuse.
struct CheckedStore {
  CheckedStore(const std::string& path, store::ReadMode mode);

  const store::Reader reader;
  const Provenance provenance;
  const store::RunCounts counts;
};

/// Load a save_run store: a CheckedStore whose feed, aggregate and event
/// datasets are decoded, the feed re-stitched into events, and the events
/// checked against the stored event count and victims; throws
/// store::StoreError on any defect. `use_mmap` selects the zero-copy
/// mapped reader (the default; decoded datasets are copies either way,
/// so nothing dangles when the mapping closes on return) or the
/// buffered fallback (`analyze --no-mmap`).
StoredRun load_run(const std::string& path, bool use_mmap = true);

/// Re-run the join stage from a loaded store: the world is rebuilt from
/// the stored provenance (deterministic in the seed) and the join reads
/// the stored aggregates — no sweep. The result must equal `run.joined`
/// and `run.join_stats` bit-for-bit (operator== over every field);
/// callers assert that.
struct RejoinResult {
  std::vector<core::NssetAttackEvent> joined;
  core::JoinStats stats;
};
RejoinResult rejoin_from_store(const StoredRun& run);

// ---- columnar analyze pass (store/scan.h + core/columnar.h).
//
// `analyze_store` recomputes the headline §6 statistics straight off the
// DRS column spans: the file is opened as a CheckedStore (mapped, or
// buffered with use_mmap=false; every block CRC- and structure-checked
// in place), only the events dataset is decoded into arena buffers or
// zero-copy spans, and the kernels fan out over row shards with ordered
// reduction — no NssetAttackEvent row is ever built. The kernel results
// are bit-identical to load_run + the row analyses.

/// The footer (provenance for the analyze header, stored counts for the
/// pipeline summary line) plus what the scan computed.
struct StoreAnalysis : Provenance, store::RunCounts {
  // Scan statistics.
  std::uint64_t file_bytes = 0;
  bool mapped = false;
  double read_MBps = 0.0;  // file bytes / (checked open + decode events)
  // Headline kernels (columnar; bit-identical to the row path).
  core::ImpactSummary impact;
  core::FailureSummary failures;
  core::CorrelationSeries duration_series;
  std::vector<core::GroupImpact> by_anycast;
  std::vector<core::MonthlyJoinedRow> monthly;
};

StoreAnalysis analyze_store(const std::string& path, bool use_mmap = true);

}  // namespace ddos::scenario
