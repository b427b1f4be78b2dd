#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "store/checksum.h"
#include "store/format.h"
#include "store/reader.h"
#include "store/writer.h"

namespace ddos::store {
namespace {

std::string temp_path(const char* name) {
  return (std::filesystem::path(testing::TempDir()) / name).string();
}

// Flip one byte at `offset` in the file at `path`.
void corrupt_byte(const std::string& path, std::uint64_t offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f) << path;
  f.seekg(static_cast<std::streamoff>(offset));
  char c = 0;
  f.get(c);
  f.seekp(static_cast<std::streamoff>(offset));
  f.put(static_cast<char>(c ^ 0xFF));
}

TEST(Checksum, KnownVector) {
  // The canonical CRC32C check value for the ASCII digits "123456789".
  EXPECT_EQ(crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(crc32c("", 0), 0u);
}

TEST(Checksum, SeedChains) {
  const std::uint32_t whole = crc32c("123456789", 9);
  const std::uint32_t first = crc32c("12345", 5);
  EXPECT_EQ(crc32c("6789", 4, first), whole);
}

TEST(Format, VarintRoundTrip) {
  const std::vector<std::uint64_t> values = {
      0, 1, 127, 128, 16383, 16384, 1ull << 32,
      std::numeric_limits<std::uint64_t>::max()};
  std::string buf;
  for (const auto v : values) put_varint(buf, v);
  std::size_t pos = 0;
  for (const auto v : values) {
    std::uint64_t got = 0;
    ASSERT_TRUE(get_varint(buf, pos, got));
    EXPECT_EQ(got, v);
  }
  EXPECT_EQ(pos, buf.size());
}

TEST(Format, VarintRejectsTruncation) {
  std::string buf;
  put_varint(buf, 1ull << 40);
  buf.pop_back();
  std::size_t pos = 0;
  std::uint64_t got = 0;
  EXPECT_FALSE(get_varint(buf, pos, got));
}

TEST(Format, ZigzagRoundTrip) {
  for (const std::int64_t v :
       {std::int64_t{0}, std::int64_t{-1}, std::int64_t{1},
        std::int64_t{-123456789}, std::numeric_limits<std::int64_t>::min(),
        std::numeric_limits<std::int64_t>::max()}) {
    EXPECT_EQ(zigzag_decode(zigzag_encode(v)), v);
  }
  // Small magnitudes stay small: the point of zigzag before varint.
  EXPECT_EQ(zigzag_encode(-1), 1u);
  EXPECT_EQ(zigzag_encode(1), 2u);
}

TEST(Format, DeltaVarintHandlesDescendingValues) {
  // Deltas wrap mod 2^64, so unsorted and descending sequences survive.
  const std::vector<std::uint64_t> values = {
      100, 5, std::numeric_limits<std::uint64_t>::max(), 0, 100};
  const std::string payload = encode_u64_column(values, Encoding::DeltaVarint);
  EXPECT_EQ(decode_u64_column(payload, Encoding::DeltaVarint, values.size()),
            values);
}

TEST(Format, DecodeRejectsTrailingBytes) {
  const std::vector<std::uint64_t> values = {1, 2, 3};
  std::string payload = encode_u64_column(values, Encoding::Varint);
  payload.push_back('\0');
  EXPECT_THROW(decode_u64_column(payload, Encoding::Varint, values.size()),
               StoreError);
}

TEST(WriterReader, RoundTripAllColumnTypes) {
  const std::string path = temp_path("roundtrip.drs");
  const std::vector<std::uint64_t> keys = {10, 20, 20, 35};
  const std::vector<std::uint64_t> counts = {0, 7, 1u << 20, 3};
  const std::vector<double> rtts = {0.0, -1.5, 1e308, 5e-324};
  const std::vector<std::uint8_t> protocols = {17, 6, 1, 17};
  const std::vector<std::string> orgs = {"NForce B.V.", "", "with,comma",
                                         std::string(1, '\0')};
  {
    Writer writer(path);
    writer.add_meta("seed", "42");
    writer.add_meta("seed", "43");  // same key overwrites
    writer.add_meta("tool", "test");
    writer.add_u64("ds", "key", keys, Encoding::DeltaVarint);
    writer.add_u64("ds", "count", counts, Encoding::Varint);
    writer.add_f64("ds", "rtt", rtts);
    writer.add_u8("ds", "protocol", protocols);
    writer.add_strings("ds", "org", orgs);
    writer.finish();
    EXPECT_EQ(writer.bytes_written(),
              std::filesystem::file_size(path));
  }
  const Reader reader(path);
  EXPECT_EQ(reader.meta_value("seed"), "43");
  EXPECT_EQ(reader.meta_value("tool"), "test");
  EXPECT_EQ(reader.meta_or("absent", "fallback"), "fallback");
  EXPECT_THROW(reader.meta_value("absent"), StoreError);
  EXPECT_EQ(reader.dataset_rows("ds"), 4u);
  EXPECT_EQ(reader.read_u64("ds", "key"), keys);
  EXPECT_EQ(reader.read_u64("ds", "count"), counts);
  EXPECT_EQ(reader.read_f64("ds", "rtt"), rtts);
  EXPECT_EQ(reader.read_u8("ds", "protocol"), protocols);
  EXPECT_EQ(reader.read_strings("ds", "org"), orgs);
  EXPECT_FALSE(reader.has_column("ds", "absent"));
  EXPECT_THROW(reader.column("ds", "absent"), StoreError);
  EXPECT_NO_THROW(reader.validate_all());
}

TEST(WriterReader, EmptyDatasetRoundTrips) {
  const std::string path = temp_path("empty.drs");
  {
    Writer writer(path);
    writer.add_u64("feed", "window", {}, Encoding::DeltaVarint);
    writer.add_f64("feed", "ppm", {});
    writer.add_strings("feed", "org", {});
    writer.finish();
  }
  const Reader reader(path);
  EXPECT_EQ(reader.dataset_rows("feed"), 0u);
  EXPECT_TRUE(reader.read_u64("feed", "window").empty());
  EXPECT_TRUE(reader.read_f64("feed", "ppm").empty());
  EXPECT_TRUE(reader.read_strings("feed", "org").empty());
  EXPECT_NO_THROW(reader.validate_all());
}

TEST(WriterReader, SingleRowBlocks) {
  const std::string path = temp_path("single.drs");
  {
    Writer writer(path);
    writer.add_u64("ds", "key", std::vector<std::uint64_t>{
        std::numeric_limits<std::uint64_t>::max()});
    writer.add_f64("ds", "value", std::vector<double>{-0.0});
    writer.finish();
  }
  const Reader reader(path);
  EXPECT_EQ(reader.read_u64("ds", "key"),
            (std::vector<std::uint64_t>{
                std::numeric_limits<std::uint64_t>::max()}));
  const auto values = reader.read_f64("ds", "value");
  ASSERT_EQ(values.size(), 1u);
  EXPECT_TRUE(std::signbit(values[0]));  // -0.0 bit pattern preserved
}

TEST(WriterReader, DetectsCorruptBlock) {
  const std::string path = temp_path("corrupt.drs");
  {
    Writer writer(path);
    const std::vector<std::uint64_t> keys = {1000, 2000, 3000, 4000};
    writer.add_u64("ds", "key", keys);
    writer.finish();
  }
  // First block payload starts right after the 16-byte header.
  corrupt_byte(path, kHeaderSize);
  const Reader reader(path);  // footer itself is intact
  EXPECT_THROW(reader.read_u64("ds", "key"), StoreError);
  EXPECT_THROW(reader.validate_all(), StoreError);
}

TEST(WriterReader, DetectsTruncatedFile) {
  const std::string path = temp_path("truncated.drs");
  {
    Writer writer(path);
    writer.add_u64("ds", "key", std::vector<std::uint64_t>{1, 2, 3});
    writer.finish();
  }
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size - 8);
  EXPECT_THROW(Reader{path}, StoreError);
}

TEST(WriterReader, RejectsBadMagicAndVersion) {
  const std::string path = temp_path("versioned.drs");
  {
    Writer writer(path);
    writer.add_u64("ds", "key", std::vector<std::uint64_t>{7});
    writer.finish();
  }
  {
    // Bump the format version field (bytes 4..7 of the header).
    corrupt_byte(path, 4);
    try {
      const Reader reader(path);
      FAIL() << "expected StoreError";
    } catch (const StoreError& e) {
      EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
    }
    corrupt_byte(path, 4);  // restore
  }
  corrupt_byte(path, 0);  // break the magic
  EXPECT_THROW(Reader{path}, StoreError);
}

TEST(WriterReader, MissingFileThrows) {
  EXPECT_THROW(Reader{temp_path("does-not-exist.drs")}, StoreError);
}

TEST(Writer, RejectsColumnsAfterFinish) {
  const std::string path = temp_path("finished.drs");
  Writer writer(path);
  writer.finish();
  EXPECT_THROW(
      writer.add_u64("ds", "key", std::vector<std::uint64_t>{1}),
      StoreError);
}

// A one-dataset store whose "gen" meta and key column identify which
// write produced it.
void write_generation(const std::string& path, const std::string& gen,
                      const std::vector<std::uint64_t>& keys) {
  Writer writer(path);
  writer.add_meta("gen", gen);
  writer.add_u64("ds", "key", keys);
  writer.finish();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(Writer, UnwritablePathThrowsNamingIt) {
  const std::string bad = temp_path("missing-dir") + "/x.drs";
  try {
    Writer writer(bad);
    FAIL() << "opening " << bad << " did not throw";
  } catch (const StoreError& e) {
    EXPECT_NE(std::string(e.what()).find(bad), std::string::npos) << e.what();
  }
}

// A writer that never reaches finish() (a run that threw midway) must not
// touch the published store, and must not leave its temp file behind.
TEST(Writer, AbandonedWriterLeavesOldFileAndNoTempFile) {
  const std::filesystem::path dir = temp_path("abandon-dir");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "s.drs").string();
  write_generation(path, "old", {1, 2, 3});
  const std::string before = read_file(path);
  {
    Writer writer(path);
    writer.add_meta("gen", "new");
    writer.add_u64("ds", "key", std::vector<std::uint64_t>{9, 9, 9, 9});
  }
  EXPECT_EQ(read_file(path), before);
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    names.push_back(entry.path().filename().string());
  }
  EXPECT_EQ(names, std::vector<std::string>{"s.drs"});
  std::filesystem::remove_all(dir);
}

// Publishing by rename leaves the old inode intact under an existing
// mapping: a serving reader never sees a torn or swapped-out store.
TEST(Writer, MappedReaderSurvivesRepublish) {
  const std::string path = temp_path("republish.drs");
  write_generation(path, "old", {1, 2, 3});
  const Reader old_reader(path, ReadMode::Mapped);
  write_generation(path, "new", {4, 5, 6, 7});

  old_reader.validate_all();
  EXPECT_EQ(old_reader.meta_value("gen"), "old");
  EXPECT_EQ(old_reader.read_u64("ds", "key"),
            (std::vector<std::uint64_t>{1, 2, 3}));
  const Reader new_reader(path, ReadMode::Mapped);
  EXPECT_EQ(new_reader.meta_value("gen"), "new");
  EXPECT_EQ(new_reader.read_u64("ds", "key"),
            (std::vector<std::uint64_t>{4, 5, 6, 7}));
}

}  // namespace
}  // namespace ddos::store
