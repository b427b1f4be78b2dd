#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "scan_columns.h"
#include "store/checksum.h"
#include "store/epoch.h"
#include "store/format.h"
#include "store/reader.h"
#include "store/scan.h"
#include "store/writer.h"

namespace ddos::store {
namespace {

using testing_columns::f64s;
using testing_columns::strings;
using testing_columns::u64s;
using testing_columns::u8s;

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
  U64Appender appender(Encoding::DeltaVarint);
  for (const auto v : values) appender.append(v);
  std::vector<std::uint64_t> decoded;
  decode_delta_varint_block(appender.payload(), values.size(), decoded);
  EXPECT_EQ(decoded, values);
}

TEST(Format, DecodeRejectsTrailingBytes) {
  U64Appender appender(Encoding::Varint);
  for (const std::uint64_t v : {1, 2, 3}) appender.append(v);
  std::string payload = appender.payload();
  payload.push_back('\0');
  std::vector<std::uint64_t> decoded;
  EXPECT_THROW(decode_varint_block(payload, 3, decoded), StoreError);
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
    write_column(writer, "ds", "key", U64Appender(Encoding::DeltaVarint),
                 keys);
    write_column(writer, "ds", "count", U64Appender(Encoding::Varint),
                 counts);
    write_column(writer, "ds", "rtt", F64Appender(), rtts);
    write_column(writer, "ds", "protocol", U8Appender(), protocols);
    write_column(writer, "ds", "org", StringAppender(), orgs);
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
  EXPECT_EQ(u64s(reader, "ds", "key"), keys);
  EXPECT_EQ(u64s(reader, "ds", "count"), counts);
  EXPECT_EQ(f64s(reader, "ds", "rtt"), rtts);
  EXPECT_EQ(u8s(reader, "ds", "protocol"), protocols);
  EXPECT_EQ(strings(reader, "ds", "org"), orgs);
  EXPECT_FALSE(reader.has_column("ds", "absent"));
  EXPECT_THROW(reader.column("ds", "absent"), StoreError);
  EXPECT_NO_THROW(check_all(reader));
}

TEST(WriterReader, EmptyDatasetRoundTrips) {
  const std::string path = temp_path("empty.drs");
  {
    Writer writer(path);
    write_column(writer, "feed", "window", U64Appender(Encoding::DeltaVarint),
                 std::vector<std::uint64_t>{});
    write_column(writer, "feed", "ppm", F64Appender(), std::vector<double>{});
    write_column(writer, "feed", "org", StringAppender(),
                 std::vector<std::string>{});
    writer.finish();
  }
  const Reader reader(path);
  EXPECT_EQ(reader.dataset_rows("feed"), 0u);
  EXPECT_TRUE(u64s(reader, "feed", "window").empty());
  EXPECT_TRUE(f64s(reader, "feed", "ppm").empty());
  EXPECT_TRUE(strings(reader, "feed", "org").empty());
  EXPECT_NO_THROW(check_all(reader));
}

TEST(WriterReader, SingleRowBlocks) {
  const std::string path = temp_path("single.drs");
  {
    Writer writer(path);
    write_column(writer, "ds", "key", U64Appender(),
                 std::vector<std::uint64_t>{
                     std::numeric_limits<std::uint64_t>::max()});
    write_column(writer, "ds", "value", F64Appender(),
                 std::vector<double>{-0.0});
    writer.finish();
  }
  const Reader reader(path);
  EXPECT_EQ(u64s(reader, "ds", "key"),
            (std::vector<std::uint64_t>{
                std::numeric_limits<std::uint64_t>::max()}));
  const auto values = f64s(reader, "ds", "value");
  ASSERT_EQ(values.size(), 1u);
  EXPECT_TRUE(std::signbit(values[0]));  // -0.0 bit pattern preserved
}

TEST(WriterReader, DetectsCorruptBlock) {
  const std::string path = temp_path("corrupt.drs");
  {
    Writer writer(path);
    const std::vector<std::uint64_t> keys = {1000, 2000, 3000, 4000};
    write_column(writer, "ds", "key", U64Appender(), keys);
    writer.finish();
  }
  // First block payload starts right after the 16-byte header.
  corrupt_byte(path, kHeaderSize);
  const Reader reader(path);  // footer itself is intact
  EXPECT_THROW(u64s(reader, "ds", "key"), StoreError);
  EXPECT_THROW(check_all(reader), StoreError);
}

TEST(WriterReader, DetectsTruncatedFile) {
  const std::string path = temp_path("truncated.drs");
  {
    Writer writer(path);
    write_column(writer, "ds", "key", U64Appender(),
                 std::vector<std::uint64_t>{1, 2, 3});
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
    write_column(writer, "ds", "key", U64Appender(),
                 std::vector<std::uint64_t>{7});
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
  EXPECT_THROW(write_column(writer, "ds", "key", U64Appender(),
                            std::vector<std::uint64_t>{1}),
               StoreError);
}

// A one-dataset store whose "gen" meta and key column identify which
// write produced it.
void write_generation(const std::string& path, const std::string& gen,
                      const std::vector<std::uint64_t>& keys) {
  Writer writer(path);
  writer.add_meta("gen", gen);
  write_column(writer, "ds", "key", U64Appender(), keys);
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
    write_column(writer, "ds", "key", U64Appender(),
                 std::vector<std::uint64_t>{9, 9, 9, 9});
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

  check_all(old_reader);
  EXPECT_EQ(old_reader.meta_value("gen"), "old");
  EXPECT_EQ(u64s(old_reader, "ds", "key"),
            (std::vector<std::uint64_t>{1, 2, 3}));
  const Reader new_reader(path, ReadMode::Mapped);
  EXPECT_EQ(new_reader.meta_value("gen"), "new");
  EXPECT_EQ(u64s(new_reader, "ds", "key"),
            (std::vector<std::uint64_t>{4, 5, 6, 7}));
}

TEST(Reader, MetaParsersNameThePathAndKey) {
  const std::string path = temp_path("meta.drs");
  {
    Writer writer(path);
    writer.add_meta("count", "12");
    writer.add_meta("ratio", "0.25");
    writer.add_meta("word", "twelve");
    writer.finish();
  }
  const Reader reader(path);
  EXPECT_EQ(reader.meta_u64("count"), 12u);
  EXPECT_EQ(reader.meta_f64("ratio"), 0.25);
  for (const char* key : {"word", "absent"}) {
    try {
      reader.meta_u64(key);
      ADD_FAILURE() << key << ": parsed";
    } catch (const StoreError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(path), std::string::npos) << what;
      EXPECT_NE(what.find(key), std::string::npos) << what;
    }
  }
  EXPECT_THROW(reader.meta_f64("word"), StoreError);
}

// ---- hostile footers: the footer CRC matches (the test recomputes it),
// so only the reader's bounds checks stand between the bytes and an
// out-of-range access. Both sums they guard could wrap on u64 overflow.

// The header and blocks of the store at `path`: the file without its
// footer and trailer.
std::string block_region(const std::string& path) {
  std::string file = read_file(path);
  std::size_t tpos = file.size() - kTrailerSize;
  std::uint64_t footer_size = 0;
  EXPECT_TRUE(get_fixed64(file, tpos, footer_size));
  file.resize(file.size() - kTrailerSize - footer_size);
  return file;
}

// Write `blocks`, `footer` and a trailer whose CRC covers it to `path`.
void write_store(const std::string& path, std::string blocks,
                 const std::string& footer) {
  blocks += footer;
  put_fixed64(blocks, footer.size());
  put_fixed32(blocks, crc32c(footer));
  put_fixed32(blocks, kMagic);
  std::ofstream(path, std::ios::binary | std::ios::trunc) << blocks;
}

// Replace the footer of the store at `path` with `footer` and a fresh
// trailer whose CRC covers it.
void replace_footer(const std::string& path, const std::string& footer) {
  write_store(path, block_region(path), footer);
}

// The footer Writer::finish writes for `reader`'s meta and `columns`.
std::string encode_footer(const Reader& reader,
                          const std::vector<ColumnDesc>& columns) {
  std::string footer;
  put_varint(footer, reader.meta().size());
  for (const auto& [key, value] : reader.meta()) {
    put_string(footer, key);
    put_string(footer, value);
  }
  put_varint(footer, columns.size());
  for (const ColumnDesc& c : columns) {
    put_string(footer, c.dataset);
    put_string(footer, c.column);
    footer.push_back(static_cast<char>(c.type));
    footer.push_back(static_cast<char>(c.encoding));
    put_varint(footer, c.rows);
    put_varint(footer, c.offset);
    put_varint(footer, c.size);
    put_fixed32(footer, c.crc);
  }
  return footer;
}

void expect_open_fails(const std::string& path, const std::string& expected) {
  for (const ReadMode mode : {ReadMode::Mapped, ReadMode::Buffered}) {
    try {
      const Reader reader(path, mode);
      ADD_FAILURE() << "opened a store with a hostile footer";
    } catch (const StoreError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(path), std::string::npos) << what;
      EXPECT_NE(what.find(expected), std::string::npos) << what;
    }
  }
}

// Row counts come from the footer too. rows * 8 wraps to 8 for the f64
// column, and a varint or string block cannot hold more rows than bytes:
// each is a StoreError, never a span past the payload or a huge buffer.
TEST(HostileFooter, RowCountsBeyondThePayloadAreRejected) {
  const std::string path = temp_path("hostile-rows.drs");
  const std::uint64_t huge = (std::uint64_t{1} << 61) + 1;
  {
    Writer writer(path);
    writer.add_encoded("f", "x", ColumnType::F64, Encoding::Fixed, huge,
                       std::string(8, '\0'));
    writer.add_encoded("v", "x", ColumnType::U64, Encoding::Varint, huge,
                       "\x01");
    writer.add_encoded("s", "x", ColumnType::Str, Encoding::StringBlock, huge,
                       std::string(1, '\0'));
    writer.finish();
  }
  const Reader reader(path);
  EXPECT_THROW(f64s(reader, "f", "x"), StoreError);
  EXPECT_THROW(u64s(reader, "v", "x"), StoreError);
  EXPECT_THROW(strings(reader, "s", "x"), StoreError);
}

TEST(HostileFooter, ColumnExtentWhoseEndWrapsIsRejected) {
  const std::string path = temp_path("hostile-extent.drs");
  write_generation(path, "x", {1, 2, 3});
  std::string footer;
  put_varint(footer, 0);  // no metadata
  put_varint(footer, 1);  // one column
  put_string(footer, "ds");
  put_string(footer, "key");
  footer.push_back(static_cast<char>(ColumnType::U64));
  footer.push_back(static_cast<char>(Encoding::DeltaVarint));
  put_varint(footer, 3);                         // rows
  put_varint(footer, std::uint64_t{1} << 63);    // offset
  put_varint(footer, (std::uint64_t{1} << 63) + 16);  // offset + size == 16
  put_fixed32(footer, 0);
  replace_footer(path, footer);
  expect_open_fails(path, "extends outside the block region");
}

TEST(HostileFooter, StringLengthThatWrapsIsRejected) {
  const std::string path = temp_path("hostile-string.drs");
  write_generation(path, "x", {1, 2, 3});
  std::string footer;
  put_varint(footer, 1);  // one metadata pair whose key length is 2^64-1:
  put_varint(footer, ~std::uint64_t{0});  // pos + len wraps to pos - 1
  footer += "key";
  put_string(footer, "value");
  put_varint(footer, 0);  // no columns
  replace_footer(path, footer);
  expect_open_fails(path, "malformed footer metadata");
}

// Format v3 starts every block at an 8-byte offset, so Fixed columns are
// aligned spans over the backing. One byte inserted before the f64 block
// (its offset and every later one shifted, footer and trailer
// recomputed) makes a store every block of which is intact but
// misaligned; the reader refuses it at open, naming the column.
TEST(HostileFooter, MisalignedBlockIsRefusedAtOpen) {
  const std::string path = temp_path("hostile-misaligned.drs");
  {
    Writer writer(path);
    writer.add_meta("gen", "aligned");
    write_column(writer, "ds", "key", U64Appender(),
                 std::vector<std::uint64_t>{1, 2, 3});
    write_column(writer, "ds", "rtt", F64Appender(),
                 std::vector<double>{0.5, -1.5, 1e300});
    write_column(writer, "ds", "protocol", U8Appender(),
                 std::vector<std::uint8_t>{6, 17, 1});
    writer.finish();
  }
  std::string blocks = block_region(path);
  std::string footer;
  std::uint64_t rtt_offset = 0;
  {
    const Reader reader(path);
    std::vector<ColumnDesc> columns = reader.columns();
    rtt_offset = reader.column("ds", "rtt").offset;
    for (ColumnDesc& c : columns) {
      if (c.offset >= rtt_offset) ++c.offset;
    }
    footer = encode_footer(reader, columns);
  }
  blocks.insert(rtt_offset, 1, '\0');
  write_store(path, blocks, footer);
  expect_open_fails(path, "column 'ds.rtt' starts at offset " +
                              std::to_string(rtt_offset + 1));
}

// Every (type, encoding) pair outside the column-type rule is refused at
// open, naming the column, with payload and CRCs intact: an f64 or u8
// block marked with a varint encoding, a u64 block marked StringBlock, a
// string block marked Fixed, and unknown type and encoding bytes.
TEST(HostileFooter, PairsOutsideTheColumnTypeRuleAreRefused) {
  F64Appender impact;
  impact.append(0.25);
  U8Appender protocol;
  protocol.append(17);
  U64Appender victim(Encoding::Varint);
  victim.append(7);
  StringAppender org;
  org.append("x");
  const struct {
    const char* column;  // dataset.column
    ColumnType type;
    Encoding encoding;
    std::string payload;
  } cases[] = {
      {"events.peak_impact", ColumnType::F64, Encoding::Varint,
       impact.payload()},
      {"feed.protocol", ColumnType::U8, Encoding::DeltaVarint,
       protocol.payload()},
      {"feed.victim", ColumnType::U64, Encoding::StringBlock,
       victim.payload()},
      {"events.org", ColumnType::Str, Encoding::Fixed, org.payload()},
      {"feed.victim", static_cast<ColumnType>(9), Encoding::Varint,
       victim.payload()},
      {"feed.victim", ColumnType::U64, static_cast<Encoding>(7),
       victim.payload()},
  };
  const std::string path = temp_path("hostile-pair.drs");
  for (const auto& c : cases) {
    const std::string name = c.column;
    const std::size_t dot = name.find('.');
    {
      Writer writer(path);
      writer.add_encoded(name.substr(0, dot), name.substr(dot + 1), c.type,
                         c.encoding, 1, c.payload);
      writer.finish();
    }
    expect_open_fails(path, "column '" + name + "' has type byte " +
                                std::to_string(static_cast<int>(c.type)));
  }
}

}  // namespace
}  // namespace ddos::store
