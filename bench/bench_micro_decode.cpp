// Micro-benchmarks of the DRS block decoders behind the scan layer
// (store/scan.h decode_varint_block / decode_delta_varint_block /
// decode_string_offsets, the store's one decoder): they decode into a
// pre-sized buffer with a fully unrolled LEB128 inner loop, and strings
// to SoA offsets instead of per-row std::string copies. Beside them,
// what store::check_all runs on every block: the structure-only varint
// check (scalar and SSE2) and the CRC32C kernels (store/checksum.h).
// Payloads are encoded by the store/epoch.h appenders, the store's one
// encoder; BM_EncodeColumnPieces times that encode itself, one appender
// per column against the piece encoder that save_run and merge_stores
// use.
//
// Inputs are pipeline-shaped, not uniform-random:
//
//   * varint — counts/ids like the feed and events datasets carry:
//     mostly 1-2 byte varints with a heavy tail (packet totals);
//   * delta-varint — sorted window keys like the sweep dataset's
//     time-major measurement keys (small positive deltas);
//   * strings — short org names (the events dataset's one string
//     column).
//
// Throughput is reported as bytes_per_second over the ENCODED payload
// (the number comparable to store_read_MBps) and items_per_second over
// rows. Run with --benchmark_format=json for a machine-readable file,
// the same harness contract as bench_micro_maps.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "exec/pool.h"
#include "netsim/rng.h"
#include "store/checksum.h"
#include "store/dataset.h"
#include "store/epoch.h"
#include "store/scan.h"

using namespace ddos;

namespace {

// Counts/ids with a heavy tail: ~70% fit one LEB128 byte, ~25% two to
// four bytes, ~5% are large packet-total-like values.
std::vector<std::uint64_t> tailed_values(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint64_t> values;
  values.reserve(n);
  netsim::Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t draw = rng.uniform_u64(100);
    if (draw < 70) {
      values.push_back(rng.uniform_u64(128));
    } else if (draw < 95) {
      values.push_back(rng.uniform_u64(1u << 21));
    } else {
      values.push_back(rng.uniform_u64(std::uint64_t{1} << 40));
    }
  }
  return values;
}

// Sorted time-major keys: windows advancing with small positive steps —
// the distribution the sweep dataset's DeltaVarint columns see.
std::vector<std::uint64_t> sorted_keys(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint64_t> values;
  values.reserve(n);
  netsim::Rng rng(seed);
  std::uint64_t key = 0;
  for (std::size_t i = 0; i < n; ++i) {
    key += 1 + rng.uniform_u64(64);
    values.push_back(key);
  }
  return values;
}

// Short org-name-like strings (the events dataset's `org` column).
std::vector<std::string> org_names(std::size_t n, std::uint64_t seed) {
  static const char* const kStems[] = {"transip", "ovh",    "hetzner",
                                       "gandi",   "cldflr", "selfhost"};
  std::vector<std::string> values;
  values.reserve(n);
  netsim::Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const auto stem = kStems[rng.uniform_u64(std::size(kStems))];
    values.push_back(std::string(stem) + "-as" +
                     std::to_string(rng.uniform_u64(65536)));
  }
  return values;
}

// The column payload the store writes for `values`.
template <typename Appender, typename Values>
std::string encode(Appender appender, const Values& values) {
  for (const auto& v : values) appender.append(v);
  return appender.payload();
}

void set_throughput(benchmark::State& state, std::size_t rows,
                    std::size_t payload_bytes) {
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(rows));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(payload_bytes));
}

// ---- varint (tailed counts) -----------------------------------------

void BM_VarintDecodeUnrolled(benchmark::State& state) {
  const auto values =
      tailed_values(static_cast<std::size_t>(state.range(0)), 1);
  const std::string payload =
      encode(store::U64Appender(store::Encoding::Varint), values);
  std::vector<std::uint64_t> out;
  for (auto _ : state) {
    store::decode_varint_block(payload, values.size(), out);
    benchmark::DoNotOptimize(out.data());
  }
  set_throughput(state, values.size(), payload.size());
}
BENCHMARK(BM_VarintDecodeUnrolled)->Arg(1 << 16)->Arg(1 << 20);

// The structure-only check store::check_all applies to every varint
// block (store/scan.h VarintSummary::well_formed): no output buffer, so its
// bytes/s reads against the decode above, store_read_MBps and the memcpy
// ceiling. Summarize is the kernel: the SSE2 one check_all runs on
// x86-64, or the word-at-a-time oracle.
template <store::VarintSummary (*Summarize)(std::string_view)>
void varint_check_structure(benchmark::State& state) {
  const auto values =
      tailed_values(static_cast<std::size_t>(state.range(0)), 1);
  const std::string payload =
      encode(store::U64Appender(store::Encoding::Varint), values);
  if (!Summarize(payload).well_formed(values.size())) {
    state.SkipWithError("structure check refused a well-formed block");
    return;
  }
  for (auto _ : state) {
    bool ok = Summarize(payload).well_formed(values.size());
    benchmark::DoNotOptimize(ok);
  }
  set_throughput(state, values.size(), payload.size());
}

void BM_VarintCheckStructure(benchmark::State& state) {
  varint_check_structure<&store::varint_summary_scalar>(state);
}
BENCHMARK(BM_VarintCheckStructure)->Arg(1 << 16)->Arg(1 << 20);

void BM_VarintCheckStructureSse2(benchmark::State& state) {
  varint_check_structure<&store::varint_summary>(state);
}
BENCHMARK(BM_VarintCheckStructureSse2)->Arg(1 << 16)->Arg(1 << 20);

// ---- delta-varint (sorted keys) -------------------------------------

void BM_DeltaVarintDecodeUnrolled(benchmark::State& state) {
  const auto values = sorted_keys(static_cast<std::size_t>(state.range(0)), 2);
  const std::string payload =
      encode(store::U64Appender(store::Encoding::DeltaVarint), values);
  std::vector<std::uint64_t> out;
  for (auto _ : state) {
    store::decode_delta_varint_block(payload, values.size(), out);
    benchmark::DoNotOptimize(out.data());
  }
  set_throughput(state, values.size(), payload.size());
}
BENCHMARK(BM_DeltaVarintDecodeUnrolled)->Arg(1 << 16)->Arg(1 << 20);

// ---- strings (org names) --------------------------------------------

void BM_StringDecodeOffsets(benchmark::State& state) {
  const auto values = org_names(static_cast<std::size_t>(state.range(0)), 3);
  const std::string payload = encode(store::StringAppender(), values);
  std::vector<std::uint64_t> starts;
  std::vector<std::uint64_t> lens;
  for (auto _ : state) {
    store::decode_string_offsets(payload, values.size(), starts, lens);
    benchmark::DoNotOptimize(starts.data());
    benchmark::DoNotOptimize(lens.data());
  }
  set_throughput(state, values.size(), payload.size());
}
BENCHMARK(BM_StringDecodeOffsets)->Arg(1 << 14)->Arg(1 << 18);

// ---- column encode: one appender vs pieces ----------------------------

// Feed-shaped rows, as many as the default store's feed (1,819,461):
// windows ascending by small steps, victims and counts with the tails of
// tailed_values, a two-valued protocol and real-valued rates.
std::vector<telescope::RSDoSRecord> feed_rows() {
  constexpr std::size_t kRows = 1'819'461;
  const std::vector<std::uint64_t> tails = tailed_values(kRows, 5);
  std::vector<telescope::RSDoSRecord> rows(kRows);
  netsim::Rng rng(6);
  netsim::WindowIndex window = 0;
  for (std::size_t i = 0; i < kRows; ++i) {
    telescope::RSDoSRecord& row = rows[i];
    window += static_cast<netsim::WindowIndex>(rng.uniform_u64(3));
    row.window = window;
    row.victim = netsim::IPv4Addr(static_cast<std::uint32_t>(rng.next_u64()));
    row.distinct_slash16 = static_cast<std::uint32_t>(rng.uniform_u64(300));
    row.protocol = rng.uniform_u64(4) == 0 ? attack::Protocol::UDP
                                           : attack::Protocol::TCP;
    row.first_port = static_cast<std::uint16_t>(rng.uniform_u64(1024));
    row.unique_ports = static_cast<std::uint16_t>(1 + rng.uniform_u64(8));
    row.max_ppm = static_cast<double>(tails[i]) / 3.0;
    row.packets = tails[i];
  }
  return rows;
}

// Every feed column of feed_rows(), as save_run writes them, without the
// file. threads == 0: one appender per column fed every row on the
// calling thread (save_run before the piece encoder); otherwise the
// piece encoder at that pool width. Bytes are the encoded payload.
void BM_EncodeColumnPieces(benchmark::State& state) {
  using Row = telescope::RSDoSRecord;
  static const std::vector<Row> rows = feed_rows();
  const auto threads = static_cast<unsigned>(state.range(0));
  if (threads > 0) exec::set_global_threads(threads);
  store::PieceEncoder pieces;
  std::size_t bytes = 0;
  for (auto _ : state) {
    bytes = 0;
    store::FeedColumns::for_each_column([&]<typename T>(
                                            std::string_view,
                                            store::Encoding encoding,
                                            T Row::*field) {
      const store::AppenderFor<store::ColumnValue<T>> appender(encoding);
      const auto get = [field](const Row& row) {
        return store::to_column(row.*field);
      };
      if (threads == 0) {
        auto one = appender;
        for (const Row& row : rows) one.append(get(row));
        bytes += one.payload().size();
        benchmark::DoNotOptimize(one.payload().data());
        return;
      }
      for (const store::PayloadPiece& piece :
           pieces.encode(appender, std::span(&rows, 1), get)) {
        bytes += piece.bytes.size();
        benchmark::DoNotOptimize(piece.bytes.data());
      }
    });
    benchmark::ClobberMemory();
  }
  if (threads > 0) exec::set_global_threads(0);
  set_throughput(state, rows.size(), bytes);
}
BENCHMARK(BM_EncodeColumnPieces)
    ->ArgName("threads")
    ->Arg(0)
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// ---- block CRC32C -----------------------------------------------------

// The block checksum over 1 MiB (check_all's piece) of random bytes,
// per kernel: the slice-by-8 tables, one crc32 chain, three chains. The
// bytes/s of the last is the CRC ceiling bench/e2e reports.
void crc32c_kernel(benchmark::State& state, store::Crc32cKernel kernel) {
  if (!store::crc32c_supported(kernel)) {
    state.SkipWithError("this CPU has no SSE4.2");
    return;
  }
  std::string bytes(std::size_t{1} << 20, '\0');
  netsim::Rng rng(4);
  for (char& c : bytes) c = static_cast<char>(rng.uniform_u64(256));
  for (auto _ : state) {
    std::uint32_t crc = store::crc32c_with(kernel, bytes.data(), bytes.size());
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes.size()));
}

void BM_Crc32cTable(benchmark::State& state) {
  crc32c_kernel(state, store::Crc32cKernel::Table);
}
BENCHMARK(BM_Crc32cTable);

void BM_Crc32cOneLane(benchmark::State& state) {
  crc32c_kernel(state, store::Crc32cKernel::OneLane);
}
BENCHMARK(BM_Crc32cOneLane);

void BM_Crc32cThreeLane(benchmark::State& state) {
  crc32c_kernel(state, store::Crc32cKernel::ThreeLane);
}
BENCHMARK(BM_Crc32cThreeLane);

}  // namespace

BENCHMARK_MAIN();
