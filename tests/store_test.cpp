#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <algorithm>
#include <bit>
#include <csignal>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "exec/pool.h"
#include "scan_columns.h"
#include "store/checksum.h"
#include "store/dataset.h"
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

std::string random_bytes(std::size_t n, std::mt19937_64& rng) {
  std::string bytes(n, '\0');
  for (char& c : bytes) c = static_cast<char>(rng());
  return bytes;
}

// Every kernel computes the slice-by-8 tables' bits at every length up
// to 4096 (the three-lane path starts at three 256-byte stripes), around
// the 8 KiB long-stripe steps and past 1 MiB, from aligned and unaligned
// starts and random seeds. On a CPU without SSE4.2 the hardware kernels
// run the tables and this compares the tables with themselves.
TEST(Checksum, KernelsMatchTheTables) {
  std::mt19937_64 rng(0xC5C32);
  const std::string bytes = random_bytes((std::size_t{1} << 20) + 64, rng);
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 4096; ++n) lengths.push_back(n);
  for (const std::size_t n : {24575u, 24576u, 24577u, 25343u, 25344u,
                              25345u, 49920u, 1048576u, 1048583u}) {
    lengths.push_back(n);
  }
  for (const std::size_t n : lengths) {
    for (const std::size_t at : {0u, 1u, 7u}) {
      const std::uint32_t seed =
          n % 3 == 0 ? 0u : static_cast<std::uint32_t>(rng());
      const char* p = bytes.data() + at;
      const std::uint32_t table =
          crc32c_with(Crc32cKernel::Table, p, n, seed);
      ASSERT_EQ(crc32c_with(Crc32cKernel::ThreeLane, p, n, seed), table)
          << "length " << n << " at " << at;
      ASSERT_EQ(crc32c_with(Crc32cKernel::OneLane, p, n, seed), table)
          << "length " << n << " at " << at;
      ASSERT_EQ(crc32c(p, n, seed), table) << "length " << n << " at " << at;
    }
  }
}

// Checksums of pieces hashed apart merge to the whole buffer's, for
// random 1-, 2- and 3-way splits (empty pieces included), and a merge
// equals chaining through the seed.
TEST(Checksum, CombineMergesPiecesInOrder) {
  std::mt19937_64 rng(0xC0B1E);
  const std::string bytes = random_bytes(70000, rng);
  for (int iter = 0; iter < 3000; ++iter) {
    const std::size_t n = rng() % (bytes.size() + 1);
    const std::string_view whole(bytes.data(), n);
    std::vector<std::size_t> cuts = {0, n};
    const std::size_t ways = 1 + iter % 3;
    for (std::size_t i = 1; i < ways; ++i) cuts.push_back(rng() % (n + 1));
    std::sort(cuts.begin(), cuts.end());
    std::uint32_t merged = 0;
    for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
      const std::string_view piece =
          whole.substr(cuts[i], cuts[i + 1] - cuts[i]);
      merged = crc32c_combine(merged, crc32c(piece), piece.size());
      ASSERT_EQ(merged, crc32c(whole.substr(0, cuts[i + 1])))
          << "iteration " << iter << ", piece " << i;
    }
    ASSERT_EQ(merged, crc32c(whole)) << "iteration " << iter;
    const std::string_view head = whole.substr(0, cuts[1]);
    const std::string_view tail = whole.substr(cuts[1]);
    ASSERT_EQ(crc32c_combine(crc32c(head), crc32c(tail), tail.size()),
              crc32c(tail, crc32c(head)))
        << "iteration " << iter;
  }
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

// A v3 store has no victims dataset, which serving loads now read in
// place of the feed, so it is refused at open by its header version.
TEST(WriterReader, RefusesAVersion3Store) {
  const std::string path = temp_path("v3.drs");
  {
    Writer writer(path);
    write_column(writer, "ds", "key", U64Appender(),
                 std::vector<std::uint64_t>{7});
    writer.finish();
  }
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(4);  // the version field, u32 LE
    f.write("\x03\x00\x00\x00", 4);
  }
  try {
    const Reader reader(path);
    FAIL() << "a v3 store opened";
  } catch (const StoreError& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported DRS version 3 "
                                         "(expected 4)"),
              std::string::npos)
        << e.what();
  }
  std::filesystem::remove(path);
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

// A block goes out in one writev of its pieces; past IOV_MAX pieces (and
// with empty ones among them) it takes several, and the block, its CRC
// and the offsets of the blocks after it still come out whole.
TEST(Writer, BlockOfMorePiecesThanOneWritevTakes) {
  const std::string path = temp_path("many-pieces.drs");
  std::vector<std::string> bytes(3000);
  std::vector<PayloadPiece> pieces;
  std::string joined;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i].assign(i % 7, static_cast<char>('a' + i % 26));
    pieces.emplace_back(bytes[i]);
    joined += bytes[i];
  }
  {
    Writer writer(path);
    writer.add_encoded("ds", "bytes", ColumnType::U8, Encoding::Fixed,
                       joined.size(), pieces);
    write_column(writer, "ds", "key", U64Appender(),
                 std::vector<std::uint64_t>{5, 3, 8});
    writer.finish();
  }
  const Reader reader(path);
  const ColumnDesc& desc = reader.column("ds", "bytes");
  EXPECT_TRUE(reader.payload(desc) == joined);
  EXPECT_EQ(desc.crc, crc32c(joined));
  EXPECT_EQ(check_all(reader), 0u);
  EXPECT_EQ(u64s(reader, "ds", "key"), (std::vector<std::uint64_t>{5, 3, 8}));
}

// A write the file system refuses (here: past the process's file-size
// limit, in a forked child) fails finish() naming the path, publishes
// nothing and leaves no temp file.
TEST(Writer, FailedWriteFailsFinishNamingThePath) {
  const std::filesystem::path dir = temp_path("full-dir");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "s.drs").string();
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::signal(SIGXFSZ, SIG_IGN);  // a write past the limit fails with EFBIG
    const rlimit limit{4096, 4096};
    if (::setrlimit(RLIMIT_FSIZE, &limit) != 0) ::_exit(2);
    try {
      Writer writer(path);
      write_column(writer, "ds", "key", U64Appender(Encoding::Fixed),
                   std::vector<std::uint64_t>(10'000, 7));
      writer.finish();
    } catch (const StoreError& e) {
      const std::string what = e.what();
      ::_exit(what.find(path) != std::string::npos &&
                      what.find("write failed") != std::string::npos
                  ? 0
                  : 3);
    }
    ::_exit(4);  // finish() did not throw
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  EXPECT_TRUE(std::filesystem::is_empty(dir));
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
                       std::array{PayloadPiece(std::string(8, '\0'))});
    writer.add_encoded("v", "x", ColumnType::U64, Encoding::Varint, huge,
                       std::array{PayloadPiece("\x01")});
    writer.add_encoded("s", "x", ColumnType::Str, Encoding::StringBlock, huge,
                       std::array{PayloadPiece(std::string(1, '\0'))});
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
                         c.encoding, 1, std::array{PayloadPiece(c.payload)});
      writer.finish();
    }
    expect_open_fails(path, "column '" + name + "' has type byte " +
                                std::to_string(static_cast<int>(c.type)));
  }
}

// ---- the piece encoder -------------------------------------------------

// The oracle of the piece encoder: the payload one appender fed every
// value builds.
template <typename Appender, typename Values>
std::string one_appender_payload(Appender appender, const Values& values) {
  for (const auto& v : values) appender.append(v);
  return appender.payload();
}

// DeltaVarint values that step by small amounts inside a piece and jump
// at every piece seam: the last row before a seam sits just under 2^64,
// and the first row after it is a third of that (odd seams: the delta is
// negative) or 100 more (even seams: the value wraps mod 2^64).
std::vector<std::uint64_t> seam_values(std::size_t n, std::mt19937_64& rng) {
  std::vector<std::uint64_t> values;
  values.reserve(n);
  std::uint64_t v = 1000;
  for (std::size_t r = 0; r < n; ++r) {
    if (r > 0 && r % kPieceRows == 0) {
      v = (r / kPieceRows) % 2 == 1 ? v / 3 : v + 100;
    } else if ((r + 1) % kPieceRows == 0) {
      v = std::numeric_limits<std::uint64_t>::max() - rng() % 64;
    } else {
      v += rng() % 5;
    }
    values.push_back(v);
  }
  return values;
}

std::vector<std::uint64_t> tailed_u64s(std::size_t n, std::mt19937_64& rng) {
  std::vector<std::uint64_t> values(n);
  for (std::uint64_t& v : values) v = rng() >> (rng() % 64);
  return values;
}

std::vector<double> any_doubles(std::size_t n, std::mt19937_64& rng) {
  std::vector<double> values(n);
  for (double& v : values) v = std::bit_cast<double>(rng());
  return values;
}

std::vector<std::uint8_t> any_bytes(std::size_t n, std::mt19937_64& rng) {
  std::vector<std::uint8_t> values(n);
  for (std::uint8_t& v : values) v = static_cast<std::uint8_t>(rng());
  return values;
}

std::vector<std::string> short_strings(std::size_t n, std::mt19937_64& rng) {
  std::vector<std::string> values(n);
  for (std::string& v : values) v.assign(rng() % 12, static_cast<char>(rng()));
  return values;
}

// Encodes `values` as one column through `pieces` and checks the joined
// pieces against the one-appender payload, each piece's CRC against its
// bytes and the fold of those CRCs against the CRC of the whole.
template <typename Appender, typename Values>
void expect_pieces_join_to_oracle(PieceEncoder& pieces,
                                  const Appender& appender,
                                  const Values& values,
                                  const std::string& what) {
  const std::string oracle = one_appender_payload(appender, values);
  const std::span<const PayloadPiece> out =
      pieces.encode(appender, std::span(&values, 1));
  const std::size_t expected_pieces =
      std::is_same_v<Appender, StringAppender>
          ? 1
          : (values.size() + kPieceRows - 1) / kPieceRows;
  EXPECT_EQ(out.size(), expected_pieces) << what;
  std::string joined;
  std::uint32_t folded = 0;
  for (const PayloadPiece& piece : out) {
    EXPECT_EQ(piece.crc, crc32c(piece.bytes)) << what;
    joined += piece.bytes;
    folded = crc32c_combine(folded, piece.crc, piece.bytes.size());
  }
  EXPECT_TRUE(joined == oracle) << what << ": " << joined.size() << " vs "
                                << oracle.size() << " bytes";
  EXPECT_EQ(folded, crc32c(oracle)) << what;
}

const std::size_t kPieceSizes[] = {0,          1,
                                   kPieceRows - 1, kPieceRows,
                                   kPieceRows + 1, 3 * kPieceRows + 7};

// Every appender type and encoding, at sizes around the piece seams and
// at pool widths 1 to 8, joins to the one-appender payload; one encoder
// serves every column, so its reused buffers are covered too.
TEST(PieceEncoder, PiecesJoinToTheOneAppenderPayload) {
  std::mt19937_64 rng(0x91EC);
  for (const unsigned width : {1u, 2u, 4u, 8u}) {
    exec::set_global_threads(width);
    PieceEncoder pieces;
    for (const std::size_t n : kPieceSizes) {
      const std::string at =
          " n=" + std::to_string(n) + " width=" + std::to_string(width);
      expect_pieces_join_to_oracle(pieces, U64Appender(Encoding::DeltaVarint),
                                   seam_values(n, rng), "delta" + at);
      expect_pieces_join_to_oracle(pieces, U64Appender(Encoding::Varint),
                                   tailed_u64s(n, rng), "varint" + at);
      expect_pieces_join_to_oracle(pieces, U64Appender(Encoding::Fixed),
                                   tailed_u64s(n, rng), "fixed u64" + at);
      expect_pieces_join_to_oracle(pieces, F64Appender(), any_doubles(n, rng),
                                   "f64" + at);
      expect_pieces_join_to_oracle(pieces, U8Appender(), any_bytes(n, rng),
                                   "u8" + at);
      expect_pieces_join_to_oracle(pieces, StringAppender(),
                                   short_strings(n, rng), "strings" + at);
    }
  }
  exec::set_global_threads(0);
}

// A column given as segments (merge_stores' shards) carries DeltaVarint
// from the last row of the last non-empty segment, across empty ones.
TEST(PieceEncoder, SegmentsCarryAcrossEmptyOnes) {
  std::mt19937_64 rng(0x5E6);
  const std::vector<std::uint64_t> a = seam_values(kPieceRows + 3, rng);
  std::vector<std::uint64_t> b = {a.back() - 7, 5,
                                  std::numeric_limits<std::uint64_t>::max()};
  const std::vector<std::span<const std::uint64_t>> segments = {
      {}, a, {}, {}, b};
  std::vector<std::uint64_t> whole = a;
  whole.insert(whole.end(), b.begin(), b.end());
  exec::set_global_threads(4);
  PieceEncoder pieces;
  const auto out =
      pieces.encode(U64Appender(Encoding::DeltaVarint), segments);
  ASSERT_EQ(out.size(), 3u);  // two pieces of a, one of b
  std::string joined;
  for (const PayloadPiece& piece : out) joined += piece.bytes;
  EXPECT_TRUE(joined == one_appender_payload(
                            U64Appender(Encoding::DeltaVarint), whole));
  exec::set_global_threads(0);
}

// write_column stores the joined pieces as one block whose footer CRC is
// the fold of the pieces' CRCs: the CRC of the whole payload.
TEST(PieceEncoder, BlockCrcIsTheCrcOfTheJoinedPayload) {
  std::mt19937_64 rng(0xB10C);
  const std::size_t n = 3 * kPieceRows + 7;
  const std::vector<std::uint64_t> keys = seam_values(n, rng);
  const std::vector<std::uint64_t> counts = tailed_u64s(n, rng);
  const std::vector<double> reals = any_doubles(n, rng);
  const std::vector<std::uint8_t> bytes = any_bytes(n, rng);
  const std::string path = temp_path("pieces.drs");
  exec::set_global_threads(4);
  {
    Writer writer(path);
    PieceEncoder pieces;
    write_column(writer, pieces, "ds", "key",
                 U64Appender(Encoding::DeltaVarint), keys);
    write_column(writer, pieces, "ds", "count", U64Appender(Encoding::Varint),
                 counts);
    write_column(writer, pieces, "ds", "real", F64Appender(), reals);
    write_column(writer, pieces, "ds", "byte", U8Appender(), bytes);
    writer.finish();
  }
  exec::set_global_threads(0);
  const Reader reader(path);
  const auto expect_block = [&](const char* column, const std::string& oracle) {
    const ColumnDesc& desc = reader.column("ds", column);
    EXPECT_EQ(desc.rows, n) << column;
    EXPECT_EQ(desc.crc, crc32c(oracle)) << column;
    EXPECT_TRUE(reader.payload(desc) == oracle) << column;
  };
  expect_block("key", one_appender_payload(U64Appender(Encoding::DeltaVarint),
                                           keys));
  expect_block("count",
               one_appender_payload(U64Appender(Encoding::Varint), counts));
  expect_block("real", one_appender_payload(F64Appender(), reals));
  expect_block("byte", one_appender_payload(U8Appender(), bytes));
  EXPECT_EQ(u64s(reader, "ds", "key"), keys);
  EXPECT_NO_THROW(check_all(reader));
}

// ---- the streaming dataset appender ------------------------------------

using FeedBatch = std::vector<std::vector<telescope::RSDoSRecord>>;

// Feed batches of the given part sizes, with random fields. Windows
// descend: by 0-2 inside a batch and by 1-4 across each batch seam, and
// the first seam steps from window 0 to a negative one, so the stored
// DeltaVarint deltas wrap mod 2^64 across every seam.
std::vector<FeedBatch> feed_batches(
    const std::vector<std::vector<std::size_t>>& shape, std::mt19937_64& rng) {
  std::vector<FeedBatch> batches;
  std::vector<std::uint64_t> steps;  // window step into each row
  std::size_t first_batch_rows = 0;
  for (const std::vector<std::size_t>& sizes : shape) {
    FeedBatch& batch = batches.emplace_back();
    bool seam = !steps.empty();
    for (const std::size_t n : sizes) {
      auto& part = batch.emplace_back(n);
      for (telescope::RSDoSRecord& rec : part) {
        steps.push_back(seam ? 1 + rng() % 4 : rng() % 3);
        seam = false;
        rec.victim = netsim::IPv4Addr(static_cast<std::uint32_t>(rng()));
        rec.distinct_slash16 = static_cast<std::uint32_t>(rng() % 65536);
        rec.protocol =
            rng() % 2 ? attack::Protocol::UDP : attack::Protocol::TCP;
        rec.first_port = static_cast<std::uint16_t>(rng());
        rec.unique_ports = static_cast<std::uint16_t>(rng());
        rec.max_ppm = std::bit_cast<double>(rng());
        rec.packets = rng() >> (rng() % 64);
      }
    }
    if (first_batch_rows == 0) first_batch_rows = steps.size();
  }
  // The first non-empty batch ends on window 0.
  std::uint64_t window = 0;
  for (std::size_t r = 1; r < first_batch_rows; ++r) window += steps[r];
  std::size_t r = 0;
  for (FeedBatch& batch : batches) {
    for (auto& part : batch) {
      for (telescope::RSDoSRecord& rec : part) {
        if (r > 0) window -= steps[r];
        rec.window = static_cast<netsim::WindowIndex>(window);
        ++r;
      }
    }
  }
  return batches;
}

// DatasetAppender, fed batches whose parts sit around the piece seams
// (empty batches and empty parts included) at pool widths 1 to 8, writes
// the blocks — payloads and CRCs — that write_dataset writes for the
// concatenated rows, byte for byte.
TEST(DatasetAppender, BatchesWriteTheWholeDatasetBlocks) {
  std::mt19937_64 rng(0xFEED);
  const std::vector<FeedBatch> batches =
      feed_batches({{1, kPieceRows - 1, 0, kPieceRows + 1},
                    {},
                    {0, 1},
                    {0},
                    {kPieceRows + 1, kPieceRows - 1},
                    {1}},
                   rng);
  std::vector<telescope::RSDoSRecord> rows;
  for (const FeedBatch& batch : batches) {
    for (const auto& part : batch) {
      rows.insert(rows.end(), part.begin(), part.end());
    }
  }
  const std::size_t first_seam = 2 * kPieceRows + 1;  // the first batch's rows
  ASSERT_EQ(rows[first_seam - 1].window, 0);
  ASSERT_LT(rows[first_seam].window, 0);
  const std::string oracle_path = temp_path("feed_whole.drs");
  const std::string path = temp_path("feed_batches.drs");
  for (const unsigned width : {1u, 2u, 4u, 8u}) {
    exec::set_global_threads(width);
    {
      Writer oracle(oracle_path);
      write_dataset<FeedColumns>(oracle, "feed", rows);
      oracle.finish();
    }
    {
      Writer writer(path);
      DatasetAppender<FeedColumns> feed("feed");
      for (const FeedBatch& batch : batches) {
        const std::vector<std::span<const telescope::RSDoSRecord>> parts(
            batch.begin(), batch.end());
        feed.append(parts);
      }
      feed.flush_to(writer);
      writer.finish();
    }
    const Reader oracle(oracle_path);
    const Reader reader(path);
    ASSERT_EQ(reader.columns().size(), oracle.columns().size());
    for (std::size_t c = 0; c < oracle.columns().size(); ++c) {
      const ColumnDesc& want = oracle.columns()[c];
      const ColumnDesc& got = reader.columns()[c];
      const std::string at = want.column + " width=" + std::to_string(width);
      EXPECT_EQ(got.column, want.column) << at;
      EXPECT_EQ(got.rows, rows.size()) << at;
      EXPECT_EQ(got.crc, want.crc) << at;
      EXPECT_TRUE(reader.payload(got) == oracle.payload(want)) << at;
    }
    EXPECT_TRUE(read_file(path) == read_file(oracle_path))
        << "width=" << width;
  }
  exec::set_global_threads(0);
}

// ---- check_all's fast path ---------------------------------------------

// A sound store, with varint blocks of several 1 MiB check pieces, is
// accepted from its structure alone: no block goes to the scan. A legal
// 10-byte varint is no structure verdict, so its block is scanned (and
// accepted).
TEST(CheckAll, SoundBlocksNeverFallBackToTheScan) {
  std::mt19937_64 rng(0xFA57);
  const std::size_t n = 600'000;
  std::vector<std::uint64_t> big(n);  // ~5 bytes per varint: ~3 MB
  for (std::uint64_t& v : big) v = rng() >> 30;
  std::vector<std::uint64_t> keys(n);
  std::uint64_t key = 0;
  for (std::uint64_t& v : keys) v = key += 1 + rng() % 100'000;
  const std::string path = temp_path("check-fast.drs");
  {
    Writer writer(path);
    write_column(writer, "ds", "big", U64Appender(Encoding::Varint), big);
    write_column(writer, "ds", "keys", U64Appender(Encoding::DeltaVarint),
                 keys);
    write_column(writer, "ds", "real", F64Appender(), any_doubles(n, rng));
    write_column(writer, "ds", "name", StringAppender(),
                 short_strings(n, rng));
    writer.finish();
  }
  {
    const Reader reader(path);
    ASSERT_GT(reader.column("ds", "big").size, std::uint64_t{2} << 20);
    ASSERT_GT(reader.column("ds", "keys").size, std::uint64_t{1} << 20);
    EXPECT_EQ(check_all(reader), 0u);
  }
  {
    Writer writer(path);
    write_column(writer, "ds", "big", U64Appender(Encoding::Varint),
                 std::vector<std::uint64_t>{
                     1, std::numeric_limits<std::uint64_t>::max(), 2});
    write_column(writer, "ds", "keys", U64Appender(Encoding::DeltaVarint),
                 std::vector<std::uint64_t>{3, 4});
    writer.finish();
  }
  const Reader reader(path);
  EXPECT_GE(check_all(reader), 1u);
  EXPECT_EQ(u64s(reader, "ds", "big"),
            (std::vector<std::uint64_t>{
                1, std::numeric_limits<std::uint64_t>::max(), 2}));
}

}  // namespace
}  // namespace ddos::store
