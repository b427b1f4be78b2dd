// The zero-copy mmap read path: Mapped and Buffered readers must be
// byte-equal on every column type, the lazy per-block CRC must fail
// loudly on FIRST TOUCH (not at open) and keep failing on every touch,
// the ColumnArena must reuse its buffers across repeat scans, and v3's
// 8-byte block alignment must hold so Fixed columns map as aligned
// spans straight over the file. The serving load path (which reads only
// a few columns) must still refuse a store with any corrupt block, a
// count that disagrees with its meta or a malformed victims dataset, as
// analyze_store and load_run do.
#include <gtest/gtest.h>

#include <unistd.h>

#include <array>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "net/server.h"
#include "scan_columns.h"
#include "scenario/driver.h"
#include "serve/query_engine.h"
#include "store/dataset.h"
#include "store/epoch.h"
#include "store/format.h"
#include "store/reader.h"
#include "store/scan.h"
#include "store/writer.h"
#include "util/strings.h"

namespace ddos::store {
namespace {

using testing_columns::f64s;
using testing_columns::strings;
using testing_columns::u64s;
using testing_columns::u8s;

// Per-process temp names: gtest_discover_tests runs each case as its own
// ctest entry, so concurrent ctest -j workers would otherwise race on
// one file.
std::string temp_path(const char* name) {
  return (std::filesystem::path(testing::TempDir()) /
          (std::to_string(::getpid()) + "-" + name))
      .string();
}

void corrupt_byte(const std::string& path, std::uint64_t offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f) << path;
  f.seekg(static_cast<std::streamoff>(offset));
  char c = 0;
  f.get(c);
  f.seekp(static_cast<std::streamoff>(offset));
  f.put(static_cast<char>(c ^ 0xFF));
}

// One store exercising every (type, encoding) pair the writer produces.
// The columns are read back through the scan layer (scan_columns.h).
std::string write_sample_store(const char* name) {
  const std::string path = temp_path(name);
  const std::vector<std::uint64_t> sorted = {3, 7, 7, 40, 1000, 1000000};
  const std::vector<std::uint64_t> counts = {0, 1, 127, 128, 300000,
                                             1ull << 40};
  const std::vector<double> reals = {0.0, -1.5, 3.25, 1e308, -0.0, 42.0};
  const std::vector<std::uint8_t> bytes = {0, 1, 2, 0, 255, 7};
  const std::vector<std::string> names = {"transip", "", "ovh",
                                          "a much longer org name",
                                          "x",       "selfhosted"};
  Writer writer(path);
  writer.add_meta("purpose", "mmap-parity-test");
  write_column(writer, "ds", "sorted", U64Appender(Encoding::DeltaVarint),
               sorted);
  write_column(writer, "ds", "counts", U64Appender(Encoding::Varint), counts);
  write_column(writer, "ds", "raw", U64Appender(Encoding::Fixed), counts);
  write_column(writer, "ds", "reals", F64Appender(), reals);
  write_column(writer, "ds", "bytes", U8Appender(), bytes);
  write_column(writer, "ds", "names", StringAppender(), names);
  writer.finish();
  return path;
}

TEST(MmapReader, MappedMatchesBufferedOnEveryColumnType) {
  const std::string path = write_sample_store("mmap_parity.drs");
  const Reader mapped(path, ReadMode::Mapped);
  const Reader buffered(path, ReadMode::Buffered);
  EXPECT_TRUE(mapped.mapped());
  EXPECT_FALSE(buffered.mapped());

  EXPECT_EQ(u64s(mapped, "ds", "sorted"), u64s(buffered, "ds", "sorted"));
  EXPECT_EQ(u64s(mapped, "ds", "counts"), u64s(buffered, "ds", "counts"));
  EXPECT_EQ(u64s(mapped, "ds", "raw"), u64s(buffered, "ds", "raw"));
  EXPECT_EQ(u64s(mapped, "ds", "raw"), u64s(mapped, "ds", "counts"));
  EXPECT_EQ(f64s(mapped, "ds", "reals"), f64s(buffered, "ds", "reals"));
  EXPECT_EQ(u8s(mapped, "ds", "bytes"), u8s(buffered, "ds", "bytes"));
  EXPECT_EQ(strings(mapped, "ds", "names"), strings(buffered, "ds", "names"));
  EXPECT_EQ(mapped.meta_value("purpose"), buffered.meta_value("purpose"));
  EXPECT_EQ(strings(mapped, "ds", "names"),
            (std::vector<std::string>{"transip", "", "ovh",
                                      "a much longer org name", "x",
                                      "selfhosted"}));
}

TEST(MmapReader, V3BlocksAreEightByteAlignedAndFixedSpansZeroCopy) {
  const std::string path = write_sample_store("mmap_aligned.drs");
  const Reader reader(path, ReadMode::Mapped);
  ASSERT_TRUE(reader.mapped());
  for (const auto& desc : reader.columns()) {
    EXPECT_EQ(desc.offset % 8, 0u) << desc.dataset << "." << desc.column;
  }
  // Fixed-width spans alias the mapping itself: same bytes, no arena copy.
  ColumnArena arena;
  const std::size_t slots_before = arena.slots();
  const auto reals = scan<double>(reader, reader.column("ds", "reals"), arena);
  const auto raw =
      scan<std::uint64_t>(reader, reader.column("ds", "raw"), arena);
  EXPECT_EQ(arena.slots(), slots_before);  // zero-copy: no buffer created
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(reals.data()) % 8, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(raw.data()) % 8, 0u);
  EXPECT_EQ(reinterpret_cast<const char*>(reals.data()),
            reader.verified_payload(reader.column("ds", "reals")).data());
}

TEST(MmapReader, LazyCrcFailsOnFirstTouchNotAtOpen) {
  for (const ReadMode mode : {ReadMode::Mapped, ReadMode::Buffered}) {
    const std::string path = write_sample_store("mmap_corrupt.drs");
    // The first block's payload starts right after the 16-byte header.
    corrupt_byte(path, kHeaderSize);
    // Open parses only the footer — the bit flip goes unnoticed here.
    const Reader reader(path, mode);
    EXPECT_EQ(reader.lazy_crc_checks(), 0u);
    // Healthy columns stay readable around the corrupt one.
    EXPECT_NO_THROW(u64s(reader, "ds", "counts"));
    EXPECT_EQ(reader.lazy_crc_checks(), 1u);
    // First touch of the corrupt block throws...
    EXPECT_THROW(u64s(reader, "ds", "sorted"), StoreError);
    // ...and a failed check is never recorded as verified, so every
    // subsequent touch fails just as loudly.
    EXPECT_THROW(u64s(reader, "ds", "sorted"), StoreError);
    EXPECT_EQ(reader.lazy_crc_checks(), 1u);
    // A repeat read of a verified block does not re-hash it.
    EXPECT_NO_THROW(u64s(reader, "ds", "counts"));
    EXPECT_EQ(reader.lazy_crc_checks(), 1u);
    std::filesystem::remove(path);
  }
}

TEST(MmapReader, TruncatedFileFailsAtOpenInBothModes) {
  for (const ReadMode mode : {ReadMode::Mapped, ReadMode::Buffered}) {
    const std::string path = write_sample_store("mmap_truncated.drs");
    std::filesystem::resize_file(path,
                                 std::filesystem::file_size(path) - 8);
    EXPECT_THROW(Reader(path, mode), StoreError);
    std::filesystem::remove(path);
  }
}

TEST(MmapReader, ArenaReusesBuffersAcrossRepeatScans) {
  const std::string path = write_sample_store("mmap_arena.drs");
  const Reader reader(path, ReadMode::Mapped);
  ColumnArena arena;
  const std::uint64_t payload1 = scan_all(reader, arena);
  const std::size_t slots = arena.slots();
  EXPECT_GT(slots, 0u);
  const std::uint64_t payload2 = scan_all(reader, arena);
  EXPECT_EQ(payload1, payload2);
  EXPECT_EQ(arena.slots(), slots);  // repeat scans allocate no new slots
  // Lazy CRC tracking means the repeat scan re-hashed nothing.
  EXPECT_EQ(reader.lazy_crc_checks(), reader.columns().size());
}

TEST(MmapReader, UnrolledDecoderRejectsTrailingBytes) {
  const std::string path = temp_path("mmap_trailing.drs");
  std::string payload;
  put_varint(payload, 5);
  put_varint(payload, 6);
  payload.push_back('\x01');  // one varint too many for rows=2
  Writer writer(path);
  writer.add_encoded("ds", "bad", ColumnType::U64, Encoding::Varint, 2,
                     std::array{PayloadPiece(payload)});
  writer.finish();
  const Reader reader(path, ReadMode::Mapped);
  ColumnArena arena;
  EXPECT_THROW(
      scan<std::uint64_t>(reader, reader.column("ds", "bad"), arena),
      StoreError);
}

// End-to-end: a saved pipeline run loads identically through both
// backings, and the corrupt-block failure surfaces through load_run.
TEST(MmapReader, LoadRunIdenticalInBothModes) {
  const std::string path = temp_path("mmap_run.drs");
  const auto config = scenario::small_longitudinal_config(21);
  const auto result = scenario::run_longitudinal(config);
  scenario::save_run(path, config, 1, result);

  const scenario::StoredRun via_mmap = scenario::load_run(path, true);
  const scenario::StoredRun via_buffer = scenario::load_run(path, false);
  EXPECT_EQ(via_mmap.joined, via_buffer.joined);
  EXPECT_EQ(via_mmap.joined, result.joined);
  EXPECT_EQ(via_mmap.feed_records, via_buffer.feed_records);
  EXPECT_EQ(via_mmap.swept_measurements, via_buffer.swept_measurements);
  EXPECT_EQ(via_mmap.threads, via_buffer.threads);

  corrupt_byte(path, kHeaderSize + 3);
  EXPECT_THROW(scenario::load_run(path, true), StoreError);
  EXPECT_THROW(scenario::load_run(path, false), StoreError);
  std::filesystem::remove(path);
}

// ---- the serving load path (serve::load_engine via EngineHandle) -----

class ServingLoad : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    config_ = new scenario::LongitudinalConfig(
        scenario::small_longitudinal_config(21));
    result_ = new scenario::LongitudinalResult(
        scenario::run_longitudinal(*config_));
  }
  static void TearDownTestSuite() {
    delete result_;
    result_ = nullptr;
    delete config_;
    config_ = nullptr;
  }

  static std::string saved(const char* name) {
    const std::string path = temp_path(name);
    EXPECT_GT(scenario::save_run(path, *config_, 1, *result_), 0u);
    return path;
  }

  static scenario::LongitudinalConfig* config_;
  static scenario::LongitudinalResult* result_;
};

scenario::LongitudinalConfig* ServingLoad::config_ = nullptr;
scenario::LongitudinalResult* ServingLoad::result_ = nullptr;

// Copy `src` to `dst` block for block, with meta `key` set to `value`.
void copy_with_meta(const std::string& src, const std::string& dst,
                    const std::string& key, const std::string& value) {
  const Reader reader(src);
  Writer writer(dst);
  for (const auto& [k, v] : reader.meta()) {
    writer.add_meta(k, k == key ? value : v);
  }
  for (const ColumnDesc& desc : reader.columns()) {
    writer.add_encoded(desc.dataset, desc.column, desc.type, desc.encoding,
                       desc.rows,
                       std::array{PayloadPiece(reader.verified_payload(desc))});
  }
  writer.finish();
}

// The engine reads a handful of columns, yet a corrupt block anywhere
// fails the load, and the error names the store and the column.
TEST_F(ServingLoad, CorruptColumnTheEngineNeverReadsFailsTheLoad) {
  const std::string path = saved("serve_corrupt.drs");
  ASSERT_NO_THROW(net::EngineHandle::load(path, 1));
  for (const auto& [dataset, column] :
       {std::pair<std::string, std::string>{"feed", "protocol"},
        {"window", "rtt_m2"}}) {
    const std::string copy = temp_path("serve_corrupt_copy.drs");
    std::filesystem::copy_file(
        path, copy, std::filesystem::copy_options::overwrite_existing);
    std::uint64_t offset = 0;
    {
      const Reader reader(copy);
      const ColumnDesc& desc = reader.column(dataset, column);
      offset = desc.offset + desc.size / 2;
    }
    corrupt_byte(copy, offset);
    try {
      net::EngineHandle::load(copy, 1);
      ADD_FAILURE() << dataset << "." << column << ": load succeeded";
    } catch (const StoreError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(copy), std::string::npos) << what;
      EXPECT_NE(what.find(dataset + "." + column), std::string::npos) << what;
    }
    std::filesystem::remove(copy);
  }
  std::filesystem::remove(path);
}

// A store whose feed, stitched-event or joined count disagrees with its
// meta is refused by the serving load, as by load_run; the feed and
// joined counts, which every reader checks in its one checked open, by
// analyze_store too (mapped and buffered).
TEST_F(ServingLoad, MetaCountMismatchIsRejected) {
  const std::string path = saved("serve_counts.drs");
  const Reader original(path);
  for (const char* key :
       {"result.feed_records", "result.events", "result.joined"}) {
    const std::string copy = temp_path("serve_counts_copy.drs");
    // The unchanged copy loads: the copy itself is sound.
    copy_with_meta(path, copy, key, original.meta_value(key));
    ASSERT_NO_THROW(serve::load_engine(copy)) << key;

    std::uint64_t stored = 0;
    ASSERT_TRUE(util::parse_u64(original.meta_value(key), stored));
    copy_with_meta(path, copy, key, std::to_string(stored + 1));
    try {
      net::EngineHandle::load(copy, 1);
      ADD_FAILURE() << key << ": load succeeded";
    } catch (const StoreError& e) {
      EXPECT_NE(std::string(e.what()).find("count mismatch"),
                std::string::npos)
          << e.what();
    }
    EXPECT_THROW(scenario::load_run(copy), StoreError) << key;
    if (std::string_view(key) != "result.events") {
      for (const bool use_mmap : {true, false}) {
        try {
          scenario::analyze_store(copy, use_mmap);
          ADD_FAILURE() << key << ": analyze succeeded, mmap " << use_mmap;
        } catch (const StoreError& e) {
          EXPECT_NE(std::string(e.what()).find("count mismatch"),
                    std::string::npos)
              << e.what();
        }
      }
    }
    std::filesystem::remove(copy);
  }
  std::filesystem::remove(path);
}

// Copy `src` to `dst` block for block, with the victims dataset written
// from `rows` in its place, or left out when `rows` is null.
void copy_with_victims(const std::string& src, const std::string& dst,
                       const std::vector<telescope::VictimAttacks>* rows) {
  const Reader reader(src);
  Writer writer(dst);
  for (const auto& [key, value] : reader.meta()) writer.add_meta(key, value);
  for (const ColumnDesc& desc : reader.columns()) {
    if (desc.dataset != "victims") {
      writer.add_encoded(desc.dataset, desc.column, desc.type, desc.encoding,
                         desc.rows,
                         std::array{PayloadPiece(
                             reader.verified_payload(desc))});
    } else if (rows != nullptr && desc.column == "victim") {
      write_dataset<VictimColumns>(writer, "victims", *rows);
    }
  }
  writer.finish();
}

// The serving load reads the stored per-victim counts instead of
// stitching the feed, so it trusts them only when they are well formed:
// victims strictly ascending, every count at least 1, the counts summing
// to the stitched-event count, the dataset present. Each defect is
// refused naming victims by every store reader: load_run, which also
// reads them, and analyze_store, which checks them though it decodes
// only the events.
TEST_F(ServingLoad, HostileVictimsAreRejected) {
  const std::string path = saved("serve_victims.drs");
  const std::vector<telescope::VictimAttacks> stored =
      telescope::count_attacks(result_->events);
  ASSERT_GE(stored.size(), 2u);

  std::vector<telescope::VictimAttacks> unsorted = stored;
  std::swap(unsorted[0], unsorted[1]);
  std::vector<telescope::VictimAttacks> zero = stored;
  zero[0].attacks += zero[1].attacks;  // the sum stays the event count
  zero[1].attacks = 0;
  std::vector<telescope::VictimAttacks> extra = stored;
  ++extra.back().attacks;
  struct Case {
    const char* name;
    const std::vector<telescope::VictimAttacks>* rows;
    const char* needle;
  };
  const Case cases[] = {
      {"not strictly ascending", &unsorted, "column 'victims.victim'"},
      {"a zero count", &zero, "column 'victims.attacks'"},
      {"counts off the event count", &extra,
       "victims.attacks count mismatch"},
      {"dataset missing", nullptr, "missing dataset 'victims'"},
  };

  const std::string copy = temp_path("serve_victims_copy.drs");
  // The unchanged rows load: the copy itself is sound.
  copy_with_victims(path, copy, &stored);
  ASSERT_NO_THROW(serve::load_engine(copy));
  ASSERT_NO_THROW(scenario::analyze_store(copy));
  for (const Case& c : cases) {
    copy_with_victims(path, copy, c.rows);
    const auto expect_refused = [&](const std::function<void()>& load,
                                    const char* reader) {
      try {
        load();
        ADD_FAILURE() << c.name << ": " << reader << " succeeded";
      } catch (const StoreError& e) {
        EXPECT_NE(std::string(e.what()).find(c.needle), std::string::npos)
            << c.name << ", " << reader << ": " << e.what();
        EXPECT_NE(std::string(e.what()).find(copy), std::string::npos)
            << c.name << ", " << reader << ": " << e.what();
      }
    };
    expect_refused([&] { serve::load_engine(copy); }, "load_engine");
    expect_refused([&] { net::EngineHandle::load(copy, 1); },
                   "EngineHandle::load");
    expect_refused([&] { scenario::load_run(copy); }, "load_run");
    expect_refused([&] { scenario::analyze_store(copy, true); },
                   "analyze_store");
    expect_refused([&] { scenario::analyze_store(copy, false); },
                   "analyze_store --no-mmap");
  }
  std::filesystem::remove(copy);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace ddos::store
