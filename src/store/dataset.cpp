#include "store/dataset.h"

#include <cstdint>
#include <string>

#include "obs/obs.h"

namespace ddos::store {

void write_joined_events(Writer& writer, const core::EventFrame& events) {
  for_each_event_column(events, [&]<typename Values>(const char* column,
                                                     Encoding encoding,
                                                     const Values& values) {
    write_column(writer, "events", column,
                 AppenderFor<typename Values::value_type>(encoding), values);
  });
}

void write_counts(Writer& writer, const RunCounts& counts) {
  for_each_count(counts, [&](std::string_view key, CountMerge,
                             std::uint64_t value) {
    writer.add_meta(key, std::to_string(value));
  });
}

RunCounts read_counts(const Reader& reader) {
  RunCounts counts;
  for_each_count(counts, [&](std::string_view key, CountMerge,
                             std::uint64_t& value) {
    value = reader.meta_u64(key);
  });
  return counts;
}

void check_count(const Reader& reader, std::string_view what,
                 std::uint64_t stored, std::uint64_t decoded) {
  if (stored != decoded) {
    throw StoreError(reader.path() + ": " + std::string(what) +
                     " count mismatch (" + std::to_string(decoded) +
                     " decoded, provenance says " + std::to_string(stored) +
                     ") — store and generating run disagree");
  }
}

double mb_per_s(std::uint64_t bytes,
                std::chrono::steady_clock::duration elapsed) {
  const double ns = std::chrono::duration<double, std::nano>(elapsed).count();
  return ns > 0.0 ? static_cast<double>(bytes) * 1e3 / ns : 0.0;
}

double record_store_read(std::uint64_t bytes,
                         std::chrono::steady_clock::duration elapsed) {
  const double mbps = mb_per_s(bytes, elapsed);
  if (obs::Observer* observer = obs::Observer::installed()) {
    observer->pipeline.store_bytes_read.set(static_cast<double>(bytes));
    observer->pipeline.store_read_MBps.set(mbps);
  }
  return mbps;
}

}  // namespace ddos::store
