#include "common.hpp"

#include <sys/mman.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>

namespace perfbench {

namespace fs = std::filesystem;

namespace {
std::string& temp_root() {
  static std::string root;
  return root;
}
}  // namespace

void TempDir::set_root(const std::string& root) { temp_root() = root; }

TempDir::TempDir(const std::string& label) {
  if (temp_root().empty()) throw std::logic_error("TempDir root not set");
  std::string pattern = temp_root() + "/" + label + "-XXXXXX";
  if (mkdtemp(pattern.data()) == nullptr) {
    throw std::runtime_error("mkdtemp failed under " + temp_root());
  }
  path_ = pattern;
}

TempDir::~TempDir() {
  std::error_code ec;
  fs::remove_all(path_, ec);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

bool reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

double cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

std::uint64_t dir_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out << content;
  out.flush();
  if (!out) throw std::runtime_error("cannot write " + path);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

std::size_t bench_jobs() {
  return std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
}

namespace {
// splitmix64, restated rather than taken from fuzz/rng.hpp: the
// reference unit must not run library code.
std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}
}  // namespace

double reference_s() {
  constexpr std::uint32_t kNames = 400000;
  constexpr int kMixes = 12000000;
  constexpr std::size_t kSlots = std::size_t{1} << 20;
  // Mapped afresh and unmapped on return, so the table never adds to the
  // resident set a workload's iterations are measured in.
  const std::size_t bytes = 2 * kSlots * sizeof(std::uint64_t);
  const double start = now_s();
  void* mem = mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) throw std::runtime_error("reference unit: mmap failed");
  auto* keys = static_cast<std::uint64_t*>(mem);  // zero-filled: 0 marks an empty slot
  std::uint64_t* values = keys + kSlots;
  char name[32];
  std::uint64_t acc = 0;
  for (std::uint32_t i = 0; i < kNames; ++i) {
    const int n = std::snprintf(name, sizeof name, "as%ur%u", i % 42, (i * 7919u) % 300000u);
    std::uint64_t h = 1469598103934665603ULL;  // FNV-1a
    for (int k = 0; k < n; ++k) h = (h ^ static_cast<unsigned char>(name[k])) * 1099511628211ULL;
    h |= 1;
    std::size_t slot = h & (kSlots - 1);
    while (keys[slot] != 0 && keys[slot] != h) slot = (slot + 1) & (kSlots - 1);
    keys[slot] = h;
    values[slot] += i;
    acc += values[splitmix(i) & (kSlots - 1)];
  }
  munmap(mem, bytes);
  for (int i = 0; i < kMixes; ++i) acc = splitmix(acc);
  static volatile std::uint64_t sink;
  sink = sink + acc;
  return now_s() - start;
}

void Outcome::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    failures.push_back(what);
  }
}

bool Loop::more() const {
  if (times_.empty()) return true;
  return now_s() - start_ + median(times_) <= seconds_;
}

}  // namespace perfbench
