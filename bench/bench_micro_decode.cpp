// Micro-benchmarks of the DRS block decoders behind the scan layer
// (store/scan.h decode_varint_block / decode_delta_varint_block /
// decode_string_offsets, the store's one decoder): they decode into a
// pre-sized buffer with a fully unrolled LEB128 inner loop, and strings
// to SoA offsets instead of per-row std::string copies. Beside them,
// what store::check_all runs on every block: the structure-only varint
// check (scalar and SSE2) and the CRC32C kernels (store/checksum.h).
// Payloads are encoded by the store/epoch.h appenders, the store's one
// encoder.
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
#include <string>
#include <vector>

#include "netsim/rng.h"
#include "store/checksum.h"
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
