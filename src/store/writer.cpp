#include "store/writer.h"

#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "store/checksum.h"

namespace ddos::store {

Writer::Writer(const std::string& path)
    : path_(path),
      tmp_path_(path + ".tmp." + std::to_string(::getpid())),
      out_(tmp_path_, std::ios::binary | std::ios::trunc) {
  if (!out_) {
    throw StoreError(path_ + ": cannot create store file (" +
                     std::strerror(errno) + ")");
  }
  std::string header;
  put_fixed32(header, kMagic);
  put_fixed32(header, kFormatVersion);
  put_fixed64(header, 0);  // reserved
  out_.write(header.data(), static_cast<std::streamsize>(header.size()));
  offset_ = header.size();
}

Writer::~Writer() {
  if (published_) return;
  out_.close();
  std::remove(tmp_path_.c_str());
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

void Writer::append_block(std::string_view dataset, std::string_view column,
                          ColumnType type, Encoding encoding,
                          std::uint64_t rows, const std::string& payload) {
  if (finished_) throw StoreError("Writer: add after finish()");
  // Format v3: zero-pad so every payload starts 8-byte aligned and a
  // mapped reader can hand out Fixed f64 columns as aligned spans.
  static constexpr char kPad[8] = {};
  if (std::size_t rem = offset_ % 8; rem != 0) {
    std::size_t pad = 8 - rem;
    out_.write(kPad, static_cast<std::streamsize>(pad));
    offset_ += pad;
  }
  ColumnDesc desc;
  desc.dataset = dataset;
  desc.column = column;
  desc.type = type;
  desc.encoding = encoding;
  desc.rows = rows;
  desc.offset = offset_;
  desc.size = payload.size();
  desc.crc = crc32c(payload);
  out_.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  offset_ += payload.size();
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

  out_.write(footer.data(), static_cast<std::streamsize>(footer.size()));
  out_.write(trailer.data(), static_cast<std::streamsize>(trailer.size()));
  offset_ += footer.size() + trailer.size();
  out_.close();
  if (!out_) throw StoreError(path_ + ": write failed");
  if (std::rename(tmp_path_.c_str(), path_.c_str()) != 0) {
    throw StoreError(path_ + ": cannot publish store file (" +
                     std::strerror(errno) + ")");
  }
  published_ = true;
}

}  // namespace ddos::store
