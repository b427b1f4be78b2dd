#include "store/writer.h"

#include <fcntl.h>
#include <limits.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "store/checksum.h"

namespace ddos::store {

Writer::Writer(const std::string& path)
    : path_(path),
      tmp_path_(path + ".tmp." + std::to_string(::getpid())),
      fd_(::open(tmp_path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                 0666)) {
  if (fd_ < 0) {
    throw StoreError(path_ + ": cannot create store file (" +
                     std::strerror(errno) + ")");
  }
  std::string header;
  put_fixed32(header, kMagic);
  put_fixed32(header, kFormatVersion);
  put_fixed64(header, 0);  // reserved
  const std::string_view part = header;
  write_parts({&part, 1});
  offset_ = header.size();
}

Writer::~Writer() {
  if (published_) return;
  if (fd_ >= 0) ::close(fd_);
  std::remove(tmp_path_.c_str());
}

void Writer::write_parts(std::span<const std::string_view> parts) {
  std::vector<iovec> iov;
  iov.reserve(parts.size());
  for (const std::string_view part : parts) {
    if (!part.empty()) {
      iov.push_back({const_cast<char*>(part.data()), part.size()});
    }
  }
  std::size_t next = 0;
  while (next < iov.size() && write_errno_ == 0) {
    const int count =
        static_cast<int>(std::min<std::size_t>(iov.size() - next, IOV_MAX));
    const ssize_t n = ::writev(fd_, iov.data() + next, count);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      write_errno_ = n < 0 ? errno : EIO;
      return;
    }
    // Step past what was written; a short write resumes mid-part.
    auto done = static_cast<std::size_t>(n);
    while (done > 0 && done >= iov[next].iov_len) done -= iov[next++].iov_len;
    if (done > 0) {
      iov[next].iov_base = static_cast<char*>(iov[next].iov_base) + done;
      iov[next].iov_len -= done;
    }
  }
}

void Writer::add_meta(std::string_view key, std::string_view value) {
  for (auto& [k, v] : meta_) {
    if (k == key) {
      v = value;
      return;
    }
  }
  meta_.emplace_back(key, value);
}

PayloadPiece::PayloadPiece(std::string_view payload)
    : bytes(payload), crc(crc32c(payload)) {}

void Writer::add_encoded(std::string_view dataset, std::string_view column,
                         ColumnType type, Encoding encoding,
                         std::uint64_t rows,
                         std::span<const PayloadPiece> pieces) {
  if (finished_) throw StoreError("Writer: add after finish()");
  // Format v3: zero-pad so every payload starts 8-byte aligned and a
  // mapped reader can hand out Fixed f64 columns as aligned spans.
  static constexpr char kPad[8] = {};
  std::vector<std::string_view> parts = {
      std::string_view(kPad, (8 - offset_ % 8) % 8)};
  offset_ += parts[0].size();
  ColumnDesc desc;
  desc.dataset = dataset;
  desc.column = column;
  desc.type = type;
  desc.encoding = encoding;
  desc.rows = rows;
  desc.offset = offset_;
  for (const PayloadPiece& piece : pieces) {
    desc.crc = crc32c_combine(desc.crc, piece.crc, piece.bytes.size());
    desc.size += piece.bytes.size();
    parts.push_back(piece.bytes);
  }
  write_parts(parts);
  offset_ += desc.size;
  columns_.push_back(std::move(desc));
}

void Writer::finish() {
  if (finished_) return;
  finished_ = true;

  std::string footer;
  put_varint(footer, meta_.size());
  for (const auto& [key, value] : meta_) {
    put_string(footer, key);
    put_string(footer, value);
  }
  put_varint(footer, columns_.size());
  for (const ColumnDesc& c : columns_) {
    put_string(footer, c.dataset);
    put_string(footer, c.column);
    footer.push_back(static_cast<char>(c.type));
    footer.push_back(static_cast<char>(c.encoding));
    put_varint(footer, c.rows);
    put_varint(footer, c.offset);
    put_varint(footer, c.size);
    put_fixed32(footer, c.crc);
  }

  std::string trailer;
  put_fixed64(trailer, footer.size());
  put_fixed32(trailer, crc32c(footer));
  put_fixed32(trailer, kMagic);

  const std::string_view tail[] = {footer, trailer};
  write_parts(tail);
  offset_ += footer.size() + trailer.size();
  if (::close(fd_) != 0 && write_errno_ == 0) write_errno_ = errno;
  fd_ = -1;
  if (write_errno_ != 0) {
    throw StoreError(path_ + ": write failed (" +
                     std::strerror(write_errno_) + ")");
  }
  if (std::rename(tmp_path_.c_str(), path_.c_str()) != 0) {
    throw StoreError(path_ + ": cannot publish store file (" +
                     std::strerror(errno) + ")");
  }
  published_ = true;
}

}  // namespace ddos::store
