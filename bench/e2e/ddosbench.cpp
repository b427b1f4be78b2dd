// ddosbench entry point: argument parsing, the Report, process
// measurements and the machine fingerprint. See bench.h and README.md.
//
//   ddosbench --workload W --seed S --seconds N [--trace] --out-dir DIR
//
// Writes DIR/result.json (and DIR/trace.json with --trace), prints one
// "workload metric value unit (n=...)" line per metric and exits 1 when
// any output check failed.
#include <malloc.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "bench.h"
#include "exec/pool.h"
#include "netsim/rng.h"

namespace ddosbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  if (frac == 0.0 || values[lo] == values[hi]) return values[lo];
  return values[lo] + (values[hi] - values[lo]) * frac;
}

// ---- Report -----------------------------------------------------------------

void Report::set(const std::string& name, double value, const std::string& unit,
                 Better better, Kind kind, double bound, std::size_t n) {
  Metric m;
  m.value = value;
  m.unit = unit;
  m.better = better;
  m.kind = kind;
  m.bound = bound;
  m.n = n;
  m.q1 = m.q3 = value;
  metrics_[name] = m;
}

void Report::set_samples(const std::string& name,
                         const std::vector<double>& samples,
                         const std::string& unit, Better better, Kind kind,
                         double bound) {
  set(name, quantile(samples, 0.5), unit, better, kind, bound);
  Metric& m = metrics_[name];
  m.n = samples.size();
  m.q1 = quantile(samples, 0.25);
  m.q3 = quantile(samples, 0.75);
  m.samples = samples;
}

void Report::check(bool ok, const std::string& what) {
  checks_.emplace_back(what, ok);
  if (!ok) failures_.push_back(what);
}

namespace {

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char esc[8];
      std::snprintf(esc, sizeof esc, "\\u%04x", c);
      out += esc;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string first_line_of(const std::string& path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      const auto colon = line.find(':');
      if (colon == std::string::npos) continue;
      std::string v = line.substr(colon + 1);
      v.erase(0, v.find_first_not_of(" \t"));
      return v;
    }
  }
  return "unknown";
}

std::uint64_t llc_bytes() {
  const long v = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (v > 0) return static_cast<std::uint64_t>(v);
  std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index3/size");
  std::uint64_t kb = 0;
  in >> kb;
  return kb * 1024;
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

void Report::print(const std::string& workload) const {
  for (const auto& [name, m] : metrics_) {
    std::cout << workload << " " << name << " " << number(m.value) << " "
              << m.unit << " (n=" << m.n;
    if (m.n > 1) {
      std::cout << ", q1=" << number(m.q1) << ", q3=" << number(m.q3);
    }
    std::cout << ")\n";
  }
  for (const auto& [what, ok] : checks_) {
    std::cout << workload << " check " << (ok ? "ok" : "FAILED") << ": "
              << what << "\n";
  }
  std::cout << workload << " ops attempted " << attempted_ << ", failed "
            << failed_ << "\n";
}

void Report::write_json(const std::string& path, const Options& options,
                        unsigned threads) const {
  std::ostringstream o;
  o << "{\n  \"workload\": " << quoted(options.workload)
    << ",\n  \"seed\": " << options.seed
    << ",\n  \"seconds\": " << number(options.seconds)
    << ",\n  \"trace\": " << (options.trace ? "true" : "false");
  o << ",\n  \"machine\": {\"nproc\": " << std::thread::hardware_concurrency()
    << ", \"cpu_model\": "
    << quoted(first_line_of("/proc/cpuinfo", "model name"))
    << ", \"llc_bytes\": " << llc_bytes()
    << ", \"compiler\": " << quoted(compiler())
    << ", \"build_type\": " << quoted(DDOSBENCH_BUILD_TYPE)
    << ", \"threads\": " << threads << "}";
  o << ",\n  \"correct\": " << (correct() ? "true" : "false")
    << ",\n  \"attempted\": " << attempted_ << ",\n  \"failed\": " << failed_;
  o << ",\n  \"checks\": [";
  for (std::size_t i = 0; i < checks_.size(); ++i) {
    o << (i ? ", " : "") << "{\"check\": " << quoted(checks_[i].first)
      << ", \"ok\": " << (checks_[i].second ? "true" : "false") << "}";
  }
  o << "],\n  \"info\": {";
  bool first = true;
  for (const auto& [k, v] : info_) {
    o << (first ? "" : ", ") << quoted(k) << ": " << quoted(v);
    first = false;
  }
  o << "},\n  \"metrics\": {";
  first = true;
  for (const auto& [name, m] : metrics_) {
    o << (first ? "\n" : ",\n") << "    " << quoted(name) << ": {\"value\": "
      << number(m.value) << ", \"unit\": " << quoted(m.unit)
      << ", \"better\": "
      << (m.better == Better::Lower ? "\"lower\"" : "\"higher\"")
      << ", \"kind\": "
      << (m.kind == Kind::EndToEnd ? "\"end_to_end\"" : "\"layer\"");
    if (m.kind == Kind::EndToEnd) o << ", \"bound\": " << number(m.bound);
    o << ", \"n\": " << m.n << ", \"q1\": " << number(m.q1)
      << ", \"q3\": " << number(m.q3);
    if (!m.samples.empty()) {
      o << ", \"samples\": [";
      for (std::size_t i = 0; i < m.samples.size(); ++i) {
        o << (i ? ", " : "") << number(m.samples[i]);
      }
      o << "]";
    }
    o << "}";
    first = false;
  }
  o << "\n  }\n}\n";
  std::ofstream out(path);
  out << o.str();
  if (!out) throw std::runtime_error("cannot write " + path);
}

// ---- inputs -----------------------------------------------------------------

ddos::scenario::LongitudinalConfig config_for(std::uint64_t seed,
                                              double scale) {
  using ddos::netsim::mix64;
  ddos::scenario::LongitudinalConfig cfg =
      ddos::scenario::default_longitudinal_config();
  cfg.workload.scale = scale;
  cfg.sweep_seed = mix64(seed ^ 0x7377656570ULL);     // "sweep"
  cfg.feed_seed = mix64(seed ^ 0x66656564ULL);        // "feed"
  return cfg;
}

std::uint64_t serve_seed(std::uint64_t seed) {
  return ddos::netsim::mix64(seed ^ 0x7365727665ULL);  // "serve"
}

// ---- process measurements ---------------------------------------------------

namespace {

double status_mb(const char* key) {
  const std::string v = first_line_of("/proc/self/status", key);
  return std::strtod(v.c_str(), nullptr) / 1024.0;  // kB -> MiB
}

}  // namespace

void release_heap() { malloc_trim(0); }

void reset_peak_rss() {
  // "5" resets the peak RSS mark (VmHWM) to the current RSS.
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

double peak_rss_mb() { return status_mb("VmHWM"); }
double current_rss_mb() { return status_mb("VmRSS"); }

bool files_equal(const std::string& a, const std::string& b) {
  std::ifstream fa(a, std::ios::binary);
  std::ifstream fb(b, std::ios::binary);
  if (!fa || !fb) return false;
  std::vector<char> ba(1 << 20);
  std::vector<char> bb(1 << 20);
  for (;;) {
    fa.read(ba.data(), static_cast<std::streamsize>(ba.size()));
    fb.read(bb.data(), static_cast<std::streamsize>(bb.size()));
    const std::streamsize na = fa.gcount();
    if (na != fb.gcount()) return false;
    if (std::memcmp(ba.data(), bb.data(), static_cast<std::size_t>(na)) != 0)
      return false;
    if (na == 0 || !fa || !fb) return fa.eof() && fb.eof();
  }
}

void run_in_child(const std::function<void(int fd)>& child, void* out,
                  std::size_t size) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::close(fds[0]);
    int status = 0;
    try {
      child(fds[1]);
    } catch (const std::exception& e) {
      std::cerr << "ddosbench child: " << e.what() << "\n";
      status = 1;
    }
    ::_exit(status);  // no destructors: the parent owns every resource
  }
  ::close(fds[1]);
  std::size_t got = 0;
  while (got < size) {
    const ssize_t n =
        ::read(fds[0], static_cast<char*>(out) + got, size - got);
    if (n <= 0) break;
    got += static_cast<std::size_t>(n);
  }
  ::close(fds[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (got != size || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("child process failed");
  }
}

std::uint64_t file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return in ? static_cast<std::uint64_t>(in.tellg()) : 0;
}

}  // namespace ddosbench

namespace {

int usage() {
  std::cerr << "usage: ddosbench --workload "
               "generate|shard-merge|analyze|serve-point|serve-refill\n"
               "                 --seed S --seconds N --out-dir DIR "
               "[--trace]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ddosbench;
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--out-dir" && has_value) {
      options.out_dir = argv[++i];
    } else if (arg == "--trace") {
      options.trace = true;
    } else {
      return usage();
    }
  }
  if (options.out_dir.empty() || !(options.seconds > 0.0)) return usage();

  void (*run)(Bench&) = nullptr;
  if (options.workload == "generate") run = run_generate;
  if (options.workload == "shard-merge") run = run_shard_merge;
  if (options.workload == "analyze") run = run_analyze;
  if (options.workload == "serve-point") run = run_serve_point;
  if (options.workload == "serve-refill") run = run_serve_refill;
  if (!run) return usage();

  Bench bench;
  bench.options = options;
  bench.threads = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  ddos::exec::set_global_threads(bench.threads);
  try {
    run(bench);
  } catch (const std::exception& e) {
    std::cerr << "ddosbench " << options.workload << ": " << e.what() << "\n";
    return 1;
  }
  if (options.trace) {
    std::ofstream out(bench.path("trace.json"));
    bench.trace_store.write_chrome_json(out);
  }
  bench.report.print(options.workload);
  bench.report.write_json(bench.path("result.json"), options, bench.threads);
  return bench.report.correct() ? 0 : 1;
}
