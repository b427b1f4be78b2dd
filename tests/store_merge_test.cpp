// merge_stores contract tests: the compaction stage must be byte-exact
// when the inputs are a complete, healthy shard set — and must fail
// loudly, naming the offending shard file, on every defect (corrupt
// block, non-shard input, wrong or duplicate shard index, provenance
// mismatch, a join.merge_concurrent that is not 0 or 1). Also covers the
// scan layer's error attribution: decode failures carry the file path
// and column name, so a multi-shard merge failure identifies the corrupt
// shard, and one matrix of malformed blocks that pass their CRC fails
// every store consumer the same way — analyze_store and
// serve::load_engine too, in the columns they check but do not decode.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "netsim/rng.h"
#include "reference_run.h"
#include "scenario/driver.h"
#include "scenario/plan.h"
#include "serve/query_engine.h"
#include "store/format.h"
#include "store/merge.h"
#include "store/reader.h"
#include "store/scan.h"
#include "store/writer.h"

namespace ddos::store {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::path(testing::TempDir()) /
          (std::to_string(::getpid()) + "-" + name))
      .string();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

scenario::LongitudinalConfig test_config() {
  scenario::LongitudinalConfig cfg = scenario::small_longitudinal_config(21);
  cfg.world.provider_count = 80;
  cfg.world.domain_count = 4000;
  cfg.workload.scale = 200.0;
  return cfg;
}

// Write shards i=0..count-1 of `cfg` and return their paths in order.
std::vector<std::string> make_shards(const scenario::LongitudinalConfig& cfg,
                                     std::uint32_t count,
                                     const std::string& tag) {
  std::vector<std::string> paths;
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::string path = temp_path(
        tag + "-" + std::to_string(i) + "of" + std::to_string(count) +
        ".drs");
    scenario::run_shard(cfg, scenario::ShardSpec{i, count}, 1, path);
    paths.push_back(path);
  }
  return paths;
}

// The two-shard set used by most defect tests, generated once.
const std::vector<std::string>& shards2() {
  static const std::vector<std::string> paths =
      make_shards(test_config(), 2, "m2");
  return paths;
}

void expect_merge_error(const std::vector<std::string>& paths,
                        const std::string& needle) {
  const std::string out = temp_path("merge-fail.drs");
  try {
    merge_stores(out, paths);
    FAIL() << "merge_stores did not throw (wanted '" << needle << "')";
  } catch (const StoreError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "message: " << e.what();
  }
  std::filesystem::remove(out);
}

TEST(StoreMerge, MatchesSaveRunBytes) {
  const scenario::LongitudinalConfig cfg = test_config();
  const scenario::LongitudinalResult whole = scenario::reference_run(cfg);
  const std::string whole_path = temp_path("merge-whole.drs");
  scenario::save_run(whole_path, cfg, 1, whole);

  const std::string merged_path = temp_path("merge-out.drs");
  const MergeStats stats = merge_stores(merged_path, shards2());
  EXPECT_EQ(stats.shards, 2u);
  EXPECT_EQ(stats.events_out, whole.joined.size());
  EXPECT_GT(stats.rows_merged, 0u);
  EXPECT_EQ(stats.bytes_read,
            std::filesystem::file_size(shards2()[0]) +
                std::filesystem::file_size(shards2()[1]));
  EXPECT_EQ(stats.bytes_written, std::filesystem::file_size(merged_path));
  EXPECT_EQ(read_file(merged_path), read_file(whole_path));

  // The merged store loads as a normal save_run store with the union
  // provenance and the re-counted joined totals.
  const scenario::StoredRun run = scenario::load_run(merged_path);
  EXPECT_EQ(run.joined.size(), whole.joined.size());
  EXPECT_EQ(run.feed_records, whole.feed_records);
  EXPECT_EQ(run.threads, 1u);

  std::filesystem::remove(whole_path);
  std::filesystem::remove(merged_path);
}

// A sparse workload at N=8 (scale divides the paper's attack counts, so
// a large scale means few attacks; without scripted cases only two days
// end up planned) leaves most shards owning zero events and zero planned
// days; merge must still reproduce the whole store exactly.
TEST(StoreMerge, EmptyShardsStayByteIdentical) {
  scenario::LongitudinalConfig cfg = test_config();
  cfg.workload.scale = 8000.0;
  cfg.workload.scripted_cases = false;
  const scenario::LongitudinalResult whole = scenario::reference_run(cfg);
  const std::string whole_path = temp_path("merge-sparse-whole.drs");
  scenario::save_run(whole_path, cfg, 1, whole);

  std::uint64_t min_owned = std::numeric_limits<std::uint64_t>::max();
  std::vector<std::string> paths;
  for (std::uint32_t i = 0; i < 8; ++i) {
    const std::string path =
        temp_path("merge-sparse-" + std::to_string(i) + ".drs");
    const scenario::ShardRunResult shard =
        scenario::run_shard(cfg, scenario::ShardSpec{i, 8}, 1, path);
    min_owned = std::min(min_owned, shard.owned_events);
    paths.push_back(path);
  }
  // The point of this config: at least one shard has nothing to join.
  EXPECT_EQ(min_owned, 0u);

  const std::string merged_path = temp_path("merge-sparse-out.drs");
  merge_stores(merged_path, paths);
  EXPECT_EQ(read_file(merged_path), read_file(whole_path));

  for (const std::string& path : paths) std::filesystem::remove(path);
  std::filesystem::remove(whole_path);
  std::filesystem::remove(merged_path);
}

TEST(StoreMerge, ProvenanceMismatchNamesKeyAndShard) {
  scenario::LongitudinalConfig other = test_config();
  other.world.seed += 1;
  const std::string foreign = temp_path("m2-foreign.drs");
  scenario::run_shard(other, scenario::ShardSpec{1, 2}, 1, foreign);

  expect_merge_error({shards2()[0], foreign},
                     "merge provenance mismatch on 'world.seed'");
  expect_merge_error({shards2()[0], foreign}, foreign);
  std::filesystem::remove(foreign);
}

TEST(StoreMerge, CorruptShardFailsNamingThePath) {
  const std::string corrupt = temp_path("m2-corrupt.drs");
  std::filesystem::copy_file(shards2()[1], corrupt,
                             std::filesystem::copy_options::overwrite_existing);

  // Flip a byte inside a known column payload so the damage lands in a
  // CRC-covered block, not inter-block padding or the footer.
  std::uint64_t target = 0;
  {
    const Reader reader(corrupt, ReadMode::Buffered);
    const ColumnDesc& desc = reader.column("daily", "key");
    ASSERT_GT(desc.size, 2u);
    target = desc.offset + 2;
  }
  {
    std::fstream f(corrupt,
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekg(static_cast<std::streamoff>(target));
    char byte = 0;
    f.get(byte);
    byte = static_cast<char>(byte ^ 0x5a);
    f.seekp(static_cast<std::streamoff>(target));
    f.put(byte);
  }

  expect_merge_error({shards2()[0], corrupt}, corrupt);
  expect_merge_error({shards2()[0], corrupt}, "checksum mismatch");
  std::filesystem::remove(corrupt);
}

TEST(StoreMerge, WrongShardCountIsRejected) {
  const std::vector<std::string> three =
      make_shards(test_config(), 3, "m3");
  // Two files of a 3-way partition: each store's manifest says count 3.
  expect_merge_error({three[0], three[1]}, "shard count mismatch");
  for (const std::string& path : three) std::filesystem::remove(path);
}

TEST(StoreMerge, DuplicateShardIndexIsRejected) {
  expect_merge_error({shards2()[0], shards2()[0]},
                     "duplicate shard index 0");
}

TEST(StoreMerge, NonShardStoreIsRejected) {
  const scenario::LongitudinalConfig cfg = test_config();
  const scenario::LongitudinalResult whole = scenario::run_longitudinal(cfg);
  const std::string whole_path = temp_path("merge-notashard.drs");
  scenario::save_run(whole_path, cfg, 1, whole);
  expect_merge_error({whole_path, shards2()[1]},
                     "not a shard store (no shard.index/shard.count "
                     "manifest");
  std::filesystem::remove(whole_path);
}

TEST(StoreMerge, NoInputsIsRejected) {
  expect_merge_error({}, "at least one shard store");
}

TEST(StoreMerge, UnwritableOutputPathThrows) {
  const std::string bad = temp_path("missing-dir") + "/merged.drs";
  try {
    merge_stores(bad, shards2());
    FAIL() << "merge_stores to an unwritable path did not throw";
  } catch (const StoreError& e) {
    EXPECT_NE(std::string(e.what()).find(bad), std::string::npos)
        << "message: " << e.what();
  }
}

// Copy `src` to `dst` block for block, with meta `key` set to `value`.
void copy_with_meta(const std::string& src, const std::string& dst,
                    std::string_view key, const std::string& value) {
  const Reader reader(src);
  Writer writer(dst);
  for (const auto& [k, v] : reader.meta()) {
    writer.add_meta(k, k == key ? value : v);
  }
  for (const ColumnDesc& desc : reader.columns()) {
    writer.add_encoded(desc.dataset, desc.column, desc.type, desc.encoding,
                       desc.rows, std::string(reader.verified_payload(desc)));
  }
  writer.finish();
}

// join.merge_concurrent is a flag. Shards that agree on any other value
// must not merge into a store that no reader then loads.
TEST(StoreMerge, MergeConcurrentOtherThanZeroOrOneIsRefused) {
  std::vector<std::string> inputs;
  for (std::size_t i = 0; i < shards2().size(); ++i) {
    inputs.push_back(temp_path("m2-concurrent-" + std::to_string(i) + ".drs"));
    copy_with_meta(shards2()[i], inputs.back(), kMergeConcurrentKey, "2");
  }
  expect_merge_error(inputs, "meta key 'join.merge_concurrent' holds '2'");
  expect_merge_error(inputs, inputs[0]);
  for (const std::string& path : inputs) std::filesystem::remove(path);
}

// Scan failures carry the file path and column, so a corrupt-but-CRC-
// valid block (possible only via add_encoded, whose caller vouches for the
// payload) is still attributed to its shard file.
TEST(StoreReader, DecodeErrorNamesPathAndColumn) {
  const std::string path = temp_path("decode-err.drs");
  {
    Writer writer(path);
    // One truncated varint: the continuation bit promises a second byte
    // that never comes. The CRC is computed over this payload as
    // written, so checksum validation passes and only the decode fails.
    const std::string payload(1, '\x80');
    writer.add_encoded("ds", "col", ColumnType::U64, Encoding::Varint, 1,
                       payload);
    writer.finish();
  }
  const Reader reader(path, ReadMode::Buffered);
  ColumnArena arena;
  try {
    scan<std::uint64_t>(reader, reader.column("ds", "col"), arena);
    FAIL() << "decode of a truncated varint did not throw";
  } catch (const StoreError& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find(path), std::string::npos) << message;
    EXPECT_NE(message.find("column 'ds.col'"), std::string::npos) << message;
  }
  std::filesystem::remove(path);
}

// ---- malformed blocks that pass their CRC ----------------------------

// Copy `src` to `dst` block for block, dataset.column's footer entry
// and payload first passed to edit(desc, payload). The writer checksums
// every block and the footer, so only the reader's own rules can catch
// the edit.
void copy_with_edit(
    const std::string& src, const std::string& dst,
    const std::string& dataset, const std::string& column,
    const std::function<void(ColumnDesc&, std::string&)>& edit) {
  const Reader reader(src);
  Writer writer(dst);
  for (const auto& [key, value] : reader.meta()) writer.add_meta(key, value);
  for (const ColumnDesc& stored : reader.columns()) {
    ColumnDesc desc = stored;
    std::string payload(reader.verified_payload(stored));
    if (desc.dataset == dataset && desc.column == column) edit(desc, payload);
    writer.add_encoded(desc.dataset, desc.column, desc.type, desc.encoding,
                       desc.rows, payload);
  }
  writer.finish();
}

// Copy `src` to `dst` with the payload of dataset.column replaced by
// `payload` (row count kept), so only its decode can catch it.
void copy_with_block(const std::string& src, const std::string& dst,
                     const std::string& dataset, const std::string& column,
                     const std::string& payload) {
  copy_with_edit(src, dst, dataset, column,
                 [&](ColumnDesc&, std::string& p) { p = payload; });
}

struct MalformedBlock {
  const char* name;
  const char* column;  // in the events dataset, which every consumer reads
  std::string (*payload)(std::uint64_t rows);
};

std::string ones(std::uint64_t n) { return std::string(n, '\x01'); }

const MalformedBlock kMalformedBlocks[] = {
    {"truncated varint", "nsset",
     [](std::uint64_t rows) { return ones(rows - 1) + "\x80"; }},
    {"non-canonical 10-byte varint", "nsset",
     [](std::uint64_t rows) {
       return std::string(9, '\xff') + "\x02" + ones(rows - 1);
     }},
    {"trailing bytes", "nsset",
     [](std::uint64_t rows) { return ones(rows + 1); }},
    {"fixed block not rows x 8", "peak_impact",
     [](std::uint64_t rows) { return std::string(rows * 8 + 1, '\0'); }},
    {"string length past the end", "org",
     [](std::uint64_t rows) {
       return std::string(rows - 1, '\0') + "\x05" + "ab";
     }},
    // Length 2^64-1: an unchecked `pos + len` moves pos back one byte, to
    // the length's own last byte (0x01), which the last row then reads
    // as a 1-byte string "x" — a block that parses to its exact end.
    {"string length that wraps", "org",
     [](std::uint64_t rows) {
       std::string payload(rows - 2, '\0');
       put_varint(payload, ~std::uint64_t{0});
       return payload + "x";
     }},
};

void expect_names_path_and_column(const std::function<void()>& consume,
                                  const std::string& path,
                                  const std::string& column,
                                  const std::string& what,
                                  const std::string& defect = "") {
  try {
    consume();
    ADD_FAILURE() << what << ": no StoreError";
  } catch (const StoreError& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find(path), std::string::npos) << what << ": " << message;
    EXPECT_NE(message.find("column '" + column + "'"), std::string::npos)
        << what << ": " << message;
    EXPECT_NE(message.find(defect), std::string::npos)
        << what << ": " << message;
  }
}

// load_run, analyze_store, serve::load_engine and merge_stores share one
// decoder, so each malformed block fails all four the same way.
TEST(MalformedBlock, EveryConsumerNamesPathAndColumn) {
  const scenario::LongitudinalConfig cfg = test_config();
  const std::string whole = temp_path("malformed-whole.drs");
  scenario::save_run(whole, cfg, 1, scenario::run_longitudinal(cfg));
  const std::uint64_t rows = Reader(whole).dataset_rows("events");
  ASSERT_GE(rows, 2u);  // the wrapping-length block needs two rows

  // The shard to damage must own events for its events block to decode.
  std::size_t target = shards2().size();
  for (std::size_t i = 0; i < shards2().size(); ++i) {
    if (Reader(shards2()[i]).dataset_rows("events") >= 2) target = i;
  }
  ASSERT_LT(target, shards2().size());
  const std::uint64_t shard_rows =
      Reader(shards2()[target]).dataset_rows("events");

  const std::string bad = temp_path("malformed.drs");
  const std::string bad_shard = temp_path("malformed-shard.drs");
  const std::string merged = temp_path("malformed-merged.drs");
  for (const MalformedBlock& block : kMalformedBlocks) {
    const std::string column = std::string("events.") + block.column;
    copy_with_block(whole, bad, "events", block.column, block.payload(rows));
    expect_names_path_and_column([&] { scenario::load_run(bad); }, bad,
                                 column, block.name + std::string(" load_run"));
    expect_names_path_and_column([&] { scenario::analyze_store(bad); }, bad,
                                 column, block.name + std::string(" analyze"));
    expect_names_path_and_column([&] { serve::load_engine(bad); }, bad, column,
                                 block.name + std::string(" load_engine"));

    copy_with_block(shards2()[target], bad_shard, "events", block.column,
                    block.payload(shard_rows));
    std::vector<std::string> inputs = shards2();
    inputs[target] = bad_shard;
    expect_names_path_and_column([&] { merge_stores(merged, inputs); },
                                 bad_shard, column,
                                 block.name + std::string(" merge"));
  }
  for (const std::string& path : {whole, bad, bad_shard, merged}) {
    std::filesystem::remove(path);
  }
}

// A footer entry whose (type, encoding) pair the column-type rule does
// not admit — an f64 or u8 block marked with a varint encoding, its
// payload and CRC intact — fails every reader at open, naming the
// column, where the block used to load as Fixed.
TEST(MalformedBlock, PairsOutsideTheColumnTypeRuleFailEveryReader) {
  const scenario::LongitudinalConfig cfg = test_config();
  const std::string whole = temp_path("pair-whole.drs");
  scenario::save_run(whole, cfg, 1, scenario::run_longitudinal(cfg));
  const std::string bad = temp_path("pair.drs");
  const std::string bad_shard = temp_path("pair-shard.drs");
  const std::string merged = temp_path("pair-merged.drs");
  const struct {
    const char* dataset;
    const char* column;
    Encoding encoding;
  } cases[] = {
      {"events", "peak_impact", Encoding::Varint},
      {"feed", "protocol", Encoding::DeltaVarint},
  };
  for (const auto& c : cases) {
    const std::string column = std::string(c.dataset) + "." + c.column;
    const auto mark = [&](ColumnDesc& desc, std::string&) {
      desc.encoding = c.encoding;
    };
    copy_with_edit(whole, bad, c.dataset, c.column, mark);
    expect_names_path_and_column([&] { scenario::load_run(bad); }, bad,
                                 column, column + " load_run", "admits");
    expect_names_path_and_column([&] { scenario::analyze_store(bad); }, bad,
                                 column, column + " analyze", "admits");
    expect_names_path_and_column([&] { serve::load_engine(bad); }, bad, column,
                                 column + " load_engine", "admits");

    copy_with_edit(shards2()[0], bad_shard, c.dataset, c.column, mark);
    std::vector<std::string> inputs = shards2();
    inputs[0] = bad_shard;
    expect_names_path_and_column([&] { merge_stores(merged, inputs); },
                                 bad_shard, column, column + " merge",
                                 "admits");
  }
  for (const std::string& path : {whole, bad, bad_shard, merged}) {
    std::filesystem::remove(path);
  }
}

// Blocks in columns analyze_store only checks (it decodes just the
// events dataset), most of them in columns serve::load_engine never
// decodes either (it reads feed victim/window, some daily columns and
// the events); each is refused with the decoder's own defect.
struct UndecodedBlock {
  const char* name;
  const char* dataset;
  const char* column;
  const char* defect;
  std::string (*payload)(std::uint64_t rows);
};

const UndecodedBlock kUndecodedBlocks[] = {
    {"one varint short of the row count", "feed", "victim",
     "truncated varint block",
     [](std::uint64_t rows) { return ones(rows - 1); }},
    {"trailing continuation byte", "feed", "victim",
     "trailing bytes after varint block",
     [](std::uint64_t rows) { return ones(rows) + "\x80"; }},
    // Starts at byte 3, so it straddles an 8-byte word boundary.
    {"non-canonical 10-byte varint at an unaligned offset", "feed", "victim",
     "malformed varint in block",
     [](std::uint64_t rows) {
       return ones(3) + std::string(9, '\xff') + "\x02" + ones(rows - 4);
     }},
    {"fixed block one row short", "feed", "max_ppm",
     "fixed block size does not match row count",
     [](std::uint64_t rows) { return std::string((rows - 1) * 8, '\0'); }},
    {"window varint one short of the row count", "window", "measured",
     "truncated varint block",
     [](std::uint64_t rows) { return ones(rows - 1); }},
    {"ns_seen delta varint one short of the row count", "ns_seen", "ip",
     "truncated varint block",
     [](std::uint64_t rows) { return ones(rows - 1); }},
};

// Every store reader opens through one check (scenario::CheckedStore),
// so each bad block fails them all — load_engine included, though it
// decodes none of the damaged columns but feed.victim.
TEST(MalformedBlock, UndecodedColumnsAreStillRefused) {
  const scenario::LongitudinalConfig cfg = test_config();
  const std::string whole = temp_path("undecoded-whole.drs");
  scenario::save_run(whole, cfg, 1, scenario::run_longitudinal(cfg));

  // Damage the shard with the most feed rows.
  std::size_t target = 0;
  for (std::size_t i = 1; i < shards2().size(); ++i) {
    if (Reader(shards2()[i]).dataset_rows("feed") >
        Reader(shards2()[target]).dataset_rows("feed"))
      target = i;
  }

  const std::string bad = temp_path("undecoded.drs");
  const std::string bad_shard = temp_path("undecoded-shard.drs");
  const std::string merged = temp_path("undecoded-merged.drs");
  for (const UndecodedBlock& block : kUndecodedBlocks) {
    const std::string column =
        std::string(block.dataset) + "." + block.column;
    const std::uint64_t rows = Reader(whole).dataset_rows(block.dataset);
    const std::uint64_t shard_rows =
        Reader(shards2()[target]).dataset_rows(block.dataset);
    // The unaligned 10-byte varint needs four rows.
    ASSERT_GE(shard_rows, 4u) << column;
    const auto expect_refused = [&](const std::function<void()>& consume,
                                    const std::string& path,
                                    const char* consumer) {
      expect_names_path_and_column(consume, path, column,
                                   block.name + std::string(" ") + consumer,
                                   block.defect);
    };
    copy_with_block(whole, bad, block.dataset, block.column,
                    block.payload(rows));
    expect_refused([&] { scenario::analyze_store(bad); }, bad, "analyze");
    expect_refused([&] { scenario::analyze_store(bad, false); }, bad,
                   "analyze --no-mmap");
    expect_refused([&] { scenario::load_run(bad); }, bad, "load_run");
    expect_refused([&] { serve::load_engine(bad); }, bad, "load_engine");

    copy_with_block(shards2()[target], bad_shard, block.dataset, block.column,
                    block.payload(shard_rows));
    std::vector<std::string> inputs = shards2();
    inputs[target] = bad_shard;
    expect_refused([&] { merge_stores(merged, inputs); }, bad_shard, "merge");
  }
  for (const std::string& path : {whole, bad, bad_shard, merged}) {
    std::filesystem::remove(path);
  }
}

// ---- varint structure check against the decoders ---------------------

// A valid varint block of `rows` values whose encoded widths span 1..10
// bytes (the widest need bit 63).
std::string random_varint_block(netsim::Rng& rng, std::uint64_t rows) {
  std::string payload;
  for (std::uint64_t i = 0; i < rows; ++i) {
    const unsigned bits = static_cast<unsigned>(rng.uniform_u64(65));
    const std::uint64_t v =
        bits == 0 ? 0
                  : (rng.next_u64() >> (64 - bits)) |
                        (std::uint64_t{1} << (bits - 1));
    put_varint(payload, v);
  }
  return payload;
}

// One of the damages a block can take: a changed, inserted or dropped
// byte, a cut, an appended tail, a row count off by one, or a run of
// continuation bytes (legal or not) written over it.
void mutate(netsim::Rng& rng, std::string& payload, std::uint64_t& rows) {
  const auto at = [&](std::size_t extra) {
    return static_cast<std::size_t>(rng.uniform_u64(payload.size() + extra));
  };
  const auto byte = [&] {
    return static_cast<char>(rng.uniform_u64(256));
  };
  switch (rng.uniform_u64(8)) {
    case 0:
      if (!payload.empty()) payload[at(0)] ^= static_cast<char>(0x80);
      break;
    case 1:
      if (!payload.empty()) payload[at(0)] = byte();
      break;
    case 2: payload.insert(at(1), 1, byte()); break;
    case 3:
      if (!payload.empty()) payload.erase(at(0), 1);
      break;
    case 4: payload.resize(at(1)); break;
    case 5: payload.push_back(byte()); break;
    case 6:
      if (rows == 0 || rng.uniform_u64(2) == 0) {
        ++rows;
      } else {
        --rows;
      }
      break;
    default: {
      std::string run(8 + rng.uniform_u64(4), '\xff');
      run.push_back(static_cast<char>(rng.uniform_u64(4)));  // 0x00..0x03
      payload.replace(at(1), run.size(), run);
      break;
    }
  }
}

bool has_nine_continuation_run(std::string_view payload) {
  std::size_t run = 0;
  for (const char c : payload) {
    run = (static_cast<std::uint8_t>(c) & 0x80u) != 0 ? run + 1 : 0;
    if (run >= 9) return true;
  }
  return false;
}

// The decoder's verdict: empty when it accepts, else its message.
template <typename Decode>
std::string verdict(Decode decode) {
  try {
    decode();
    return {};
  } catch (const StoreError& e) {
    return std::string("refused: ") + e.what();
  }
}

// The structure check may only accept what both decoders accept, and may
// pass on a block they accept only for a run of nine or more
// continuation bytes (a legal 10-byte varint). Both decoders refuse the
// same blocks with the same message, so check_all's fallback to the scan
// gives one verdict whichever encoding the block has.
TEST(MalformedBlock, VarintStructureCheckAgreesWithTheDecoders) {
  netsim::Rng rng(0x5CA11);
  std::vector<std::uint64_t> out;
  std::size_t accepted = 0;
  std::size_t refused = 0;
  std::size_t deferred = 0;
  for (int iter = 0; iter < 50000; ++iter) {
    std::uint64_t rows = rng.uniform_u64(40);
    std::string payload = random_varint_block(rng, rows);
    const int damages = static_cast<int>(rng.uniform_u64(4));  // 0 = intact
    for (int i = 0; i < damages; ++i) mutate(rng, payload, rows);

    const std::string varint =
        verdict([&] { decode_varint_block(payload, rows, out); });
    const std::string delta =
        verdict([&] { decode_delta_varint_block(payload, rows, out); });
    ASSERT_EQ(varint, delta) << "iteration " << iter;
    const bool fast = varint_block_well_formed(payload, rows);
    if (fast) {
      ASSERT_EQ(varint, "") << "iteration " << iter;
    }
    if (!varint.empty()) {
      ++refused;
    } else if (fast) {
      ++accepted;
    } else {
      ASSERT_TRUE(has_nine_continuation_run(payload))
          << "iteration " << iter << ": a decodable block without a "
          << "nine-byte run was not accepted from its structure";
      ++deferred;
    }
  }
  // Every kind of outcome is exercised, not just one.
  EXPECT_GT(accepted, 5000u);
  EXPECT_GT(refused, 5000u);
  EXPECT_GT(deferred, 100u);
}

// check_all refuses exactly what scan_all refuses, with the same
// message, on stores of one mutated varint block (one block per store,
// so the refusal is not a race between failing blocks).
TEST(MalformedBlock, CheckAllRefusesWhatScanAllRefuses) {
  netsim::Rng rng(0xC4EC);
  const std::string path = temp_path("check-all.drs");
  std::size_t refused = 0;
  for (int iter = 0; iter < 400; ++iter) {
    std::uint64_t rows = rng.uniform_u64(40);
    std::string payload = random_varint_block(rng, rows);
    const int damages = static_cast<int>(rng.uniform_u64(3));
    for (int i = 0; i < damages; ++i) mutate(rng, payload, rows);
    const Encoding encoding =
        iter % 2 == 0 ? Encoding::Varint : Encoding::DeltaVarint;
    {
      Writer writer(path);
      writer.add_encoded("ds", "col", ColumnType::U64, encoding, rows,
                         payload);
      writer.finish();
    }
    const Reader reader(path, ReadMode::Mapped);
    ColumnArena arena;
    const std::string scan = verdict([&] { scan_all(reader, arena); });
    ASSERT_EQ(verdict([&] { check_all(reader); }), scan)
        << "iteration " << iter;
    if (!scan.empty()) ++refused;
  }
  EXPECT_GT(refused, 100u);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace ddos::store
