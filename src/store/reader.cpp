#include "store/reader.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <fstream>
#include <sstream>

#include "exec/parallel.h"
#include "obs/obs.h"
#include "store/checksum.h"
#include "store/epoch.h"
#include "util/strings.h"

namespace ddos::store {

namespace {

[[noreturn]] void fail(const std::string& path, const std::string& what) {
  throw StoreError(path + ": " + what);
}

}  // namespace

Reader::Reader(const std::string& path, ReadMode mode) : path_(path) {
  if (mode == ReadMode::Mapped) {
    int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd >= 0) {
      struct stat st {};
      if (::fstat(fd, &st) == 0 && st.st_size > 0) {
        auto size = static_cast<std::size_t>(st.st_size);
        void* m = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
        if (m != MAP_FAILED) {
          // The scan path touches every block front to back; tell the
          // kernel so readahead stays aggressive.
          ::posix_madvise(m, size, POSIX_MADV_WILLNEED);
          map_ = m;
          map_size_ = size;
          data_ = std::string_view(static_cast<const char*>(m), size);
        }
      }
      ::close(fd);
    }
    // Any failure above (no file, empty file, mmap refused — e.g. some
    // network/overlay filesystems) falls through to the buffered path,
    // which reports "cannot open" with the usual message if the file
    // really is absent.
  }

  if (map_ == nullptr) {
    std::ifstream in(path, std::ios::binary);
    if (!in) fail(path, "cannot open");
    std::ostringstream buf;
    buf << in.rdbuf();
    buffer_ = std::move(buf).str();
    data_ = buffer_;
  }

  try {
    parse(data_);
  } catch (...) {
    if (map_ != nullptr) ::munmap(map_, map_size_);
    map_ = nullptr;
    throw;
  }

  crc_checked_ =
      std::make_unique<std::atomic<std::uint8_t>[]>(columns_.size());
  for (std::size_t i = 0; i < columns_.size(); ++i)
    crc_checked_[i].store(0, std::memory_order_relaxed);

  if (map_ != nullptr) {
    if (obs::Observer* o = obs::Observer::installed())
      o->pipeline.store_blocks_mapped.inc(columns_.size());
  }
}

Reader::~Reader() {
  if (map_ != nullptr) ::munmap(map_, map_size_);
}

void Reader::parse(std::string_view data) {
  const std::string& path = path_;
  if (data.size() < kHeaderSize + kTrailerSize)
    fail(path, "truncated: smaller than header + trailer");
  // mmap is page-aligned and the buffered string comes from operator new;
  // with the block offsets checked below, every payload is 8-aligned.
  if (reinterpret_cast<std::uintptr_t>(data.data()) % 8 != 0)
    fail(path, "store backing is not 8-byte aligned");

  std::size_t pos = 0;
  std::uint32_t magic = 0, version = 0;
  std::uint64_t reserved = 0;
  get_fixed32(data, pos, magic);
  get_fixed32(data, pos, version);
  get_fixed64(data, pos, reserved);
  if (magic != kMagic) fail(path, "bad magic: not a DRS store");
  if (version != kFormatVersion)
    fail(path, "unsupported DRS version " + std::to_string(version) +
                   " (expected " + std::to_string(kFormatVersion) + ")");

  std::size_t tpos = data.size() - kTrailerSize;
  std::uint64_t footer_size = 0;
  std::uint32_t footer_crc = 0, trailer_magic = 0;
  get_fixed64(data, tpos, footer_size);
  get_fixed32(data, tpos, footer_crc);
  get_fixed32(data, tpos, trailer_magic);
  if (trailer_magic != kMagic)
    fail(path, "bad trailer magic: truncated or corrupt file");
  if (footer_size > data.size() - kHeaderSize - kTrailerSize)
    fail(path, "footer size exceeds file");

  const std::size_t footer_begin = data.size() - kTrailerSize - footer_size;
  const std::string_view footer = data.substr(footer_begin, footer_size);
  if (crc32c(footer) != footer_crc) fail(path, "footer checksum mismatch");

  std::size_t fpos = 0;
  std::uint64_t meta_count = 0;
  if (!get_varint(footer, fpos, meta_count)) fail(path, "malformed footer");
  for (std::uint64_t i = 0; i < meta_count; ++i) {
    std::string key, value;
    if (!get_string(footer, fpos, key) || !get_string(footer, fpos, value))
      fail(path, "malformed footer metadata");
    meta_.emplace_back(std::move(key), std::move(value));
  }

  std::uint64_t column_count = 0;
  if (!get_varint(footer, fpos, column_count)) fail(path, "malformed footer");
  for (std::uint64_t i = 0; i < column_count; ++i) {
    ColumnDesc c;
    if (!get_string(footer, fpos, c.dataset) ||
        !get_string(footer, fpos, c.column) || fpos + 2 > footer.size())
      fail(path, "malformed footer column index");
    c.type = static_cast<ColumnType>(footer[fpos++]);
    c.encoding = static_cast<Encoding>(footer[fpos++]);
    if (!get_varint(footer, fpos, c.rows) ||
        !get_varint(footer, fpos, c.offset) ||
        !get_varint(footer, fpos, c.size))
      fail(path, "malformed footer column index");
    if (!get_fixed32(footer, fpos, c.crc))
      fail(path, "malformed footer column index");
    // Subtraction, not `offset + size`: both are untrusted and the sum
    // can wrap past the check.
    const std::string name = "column '" + c.dataset + "." + c.column + "'";
    if (c.offset < kHeaderSize || c.offset > footer_begin ||
        c.size > footer_begin - c.offset)
      fail(path, name + " extends outside the block region");
    // Format v3 pads every block to an 8-byte offset, so a Fixed block
    // is an aligned span over the backing.
    if (c.offset % 8 != 0)
      fail(path, name + " starts at offset " + std::to_string(c.offset) +
                     ", not a multiple of 8");
    if (!ColumnTypes::admits(c.type, c.encoding))
      fail(path, name + " has type byte " +
                     std::to_string(static_cast<int>(c.type)) + " (" +
                     to_string(c.type) + ") with encoding byte " +
                     std::to_string(static_cast<int>(c.encoding)) +
                     ", which no column type admits");
    columns_.push_back(std::move(c));
  }
  if (fpos != footer.size()) fail(path, "trailing bytes in footer");
}

bool Reader::has_meta(std::string_view key) const {
  for (const auto& [k, v] : meta_)
    if (k == key) return true;
  return false;
}

std::string Reader::meta_value(std::string_view key) const {
  for (const auto& [k, v] : meta_)
    if (k == key) return v;
  fail(path_, "missing metadata key '" + std::string(key) + "'");
}

std::string Reader::meta_or(std::string_view key,
                            std::string_view fallback) const {
  for (const auto& [k, v] : meta_)
    if (k == key) return v;
  return std::string(fallback);
}

std::uint64_t Reader::meta_u64(std::string_view key) const {
  std::uint64_t out = 0;
  if (!util::parse_u64(meta_value(key), out))
    fail(path_, "meta key '" + std::string(key) +
                    "' is not an unsigned integer");
  return out;
}

double Reader::meta_f64(std::string_view key) const {
  double out = 0.0;
  if (!util::parse_double(meta_value(key), out))
    fail(path_, "meta key '" + std::string(key) + "' is not a double");
  return out;
}

bool Reader::has_column(std::string_view dataset,
                        std::string_view column) const {
  for (const auto& c : columns_)
    if (c.dataset == dataset && c.column == column) return true;
  return false;
}

const ColumnDesc& Reader::column(std::string_view dataset,
                                 std::string_view column) const {
  for (const auto& c : columns_)
    if (c.dataset == dataset && c.column == column) return c;
  fail(path_, "missing column '" + std::string(dataset) + "." +
                  std::string(column) + "'");
}

std::uint64_t Reader::dataset_rows(std::string_view dataset) const {
  std::uint64_t rows = 0;
  bool found = false;
  for (const auto& c : columns_) {
    if (c.dataset != dataset) continue;
    if (found && c.rows != rows)
      fail(path_, "dataset '" + std::string(dataset) +
                      "' has columns with differing row counts");
    rows = c.rows;
    found = true;
  }
  if (!found) fail(path_, "missing dataset '" + std::string(dataset) + "'");
  return rows;
}

std::string_view Reader::payload(const ColumnDesc& desc) const {
  return data_.substr(desc.offset, desc.size);
}

void Reader::check_crc(const ColumnDesc& desc) const {
  // Descs handed out by this reader are elements of columns_, so the
  // pointer difference is the block index into the lazy-check flags.
  const auto idx = static_cast<std::size_t>(&desc - columns_.data());
  if (idx >= columns_.size()) {  // foreign desc: verify, nothing to track
    if (crc32c(payload(desc)) != desc.crc)
      fail(path_, "checksum mismatch in block '" + desc.dataset + "." +
                      desc.column + "' (corrupt store)");
    return;
  }
  std::atomic<std::uint8_t>& flag = crc_checked_[idx];
  if (flag.load(std::memory_order_acquire) != 0) return;
  if (crc32c(payload(desc)) != desc.crc)
    fail(path_, "checksum mismatch in block '" + desc.dataset + "." +
                    desc.column + "' (corrupt store)");
  if (flag.exchange(1, std::memory_order_acq_rel) == 0) {
    lazy_checks_.fetch_add(1, std::memory_order_relaxed);
    if (obs::Observer* o = obs::Observer::installed())
      o->pipeline.store_crc_lazy_checks.inc();
  }
}

void Reader::parallel_decode(const std::vector<std::function<void()>>& jobs) {
  exec::RegionOptions opts;
  opts.label = "store.read";
  exec::parallel_for(jobs.size(), opts, [&](const exec::ShardRange& range) {
    for (std::size_t i = range.begin; i < range.end; ++i) jobs[i]();
  });
}

}  // namespace ddos::store
