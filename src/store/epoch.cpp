#include "store/epoch.h"

namespace ddos::store {

U64Appender::U64Appender(Encoding encoding)
    : BlockAppender(ColumnType::U64, encoding) {
  if (encoding == Encoding::StringBlock)
    throw StoreError("u64 column cannot use string-block encoding");
}

void FeedColumnsAppender::append(const telescope::RSDoSRecord& record) {
  window_.append(static_cast<std::uint64_t>(record.window));
  victim_.append(record.victim.value());
  slash16_.append(record.distinct_slash16);
  protocol_.append(static_cast<std::uint8_t>(record.protocol));
  first_port_.append(record.first_port);
  unique_ports_.append(record.unique_ports);
  max_ppm_.append(record.max_ppm);
  packets_.append(record.packets);
}

void FeedColumnsAppender::flush_to(Writer& writer) const {
  window_.flush_to(writer, "feed", "window");
  victim_.flush_to(writer, "feed", "victim");
  slash16_.flush_to(writer, "feed", "slash16");
  protocol_.flush_to(writer, "feed", "protocol");
  first_port_.flush_to(writer, "feed", "first_port");
  unique_ports_.flush_to(writer, "feed", "unique_ports");
  max_ppm_.flush_to(writer, "feed", "max_ppm");
  packets_.flush_to(writer, "feed", "packets");
}

void AggregateColumnsAppender::append(std::uint64_t key,
                                      const openintel::Aggregate& agg) {
  key_.append(key);
  measured_.append(agg.measured);
  ok_.append(agg.ok);
  timeout_.append(agg.timeout);
  servfail_.append(agg.servfail);
  const util::RunningStats::Raw raw = agg.rtt.raw();
  rtt_n_.append(raw.n);
  rtt_sum_.append(raw.sum);
  rtt_m_.append(raw.m);
  rtt_m2_.append(raw.m2);
  rtt_min_.append(raw.min);
  rtt_max_.append(raw.max);
}

void AggregateColumnsAppender::flush_to(Writer& writer) const {
  key_.flush_to(writer, dataset_, "key");
  measured_.flush_to(writer, dataset_, "measured");
  ok_.flush_to(writer, dataset_, "ok");
  timeout_.flush_to(writer, dataset_, "timeout");
  servfail_.flush_to(writer, dataset_, "servfail");
  rtt_n_.flush_to(writer, dataset_, "rtt_n");
  rtt_sum_.flush_to(writer, dataset_, "rtt_sum");
  rtt_m_.flush_to(writer, dataset_, "rtt_m");
  rtt_m2_.flush_to(writer, dataset_, "rtt_m2");
  rtt_min_.flush_to(writer, dataset_, "rtt_min");
  rtt_max_.flush_to(writer, dataset_, "rtt_max");
}

void NsSeenAppender::append(netsim::DayIndex day, netsim::IPv4Addr ip) {
  day_.append(static_cast<std::uint64_t>(day));
  ip_.append(ip.value());
}

void NsSeenAppender::flush_to(Writer& writer) const {
  day_.flush_to(writer, "ns_seen", "day");
  ip_.flush_to(writer, "ns_seen", "ip");
}

}  // namespace ddos::store
