#include "perfbench/measure.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <thread>

#include "common/rng.h"

namespace perfbench {

using jarvis::SplitMix64;
using jarvis::stream::Record;
using jarvis::stream::RecordBatch;

void Fingerprint::Fold(const RecordBatch& batch) {
  for (const Record& r : batch) {
    uint64_t h = SplitMix64(static_cast<uint64_t>(r.window_start));
    for (size_t i = 0; i < r.fields.size(); ++i) {
      const auto& v = r.fields[i];
      uint64_t part = 0;
      if (const auto* x = std::get_if<int64_t>(&v)) {
        part = static_cast<uint64_t>(*x);
      } else if (const auto* s = std::get_if<std::string>(&v)) {
        part = std::hash<std::string>{}(*s);
      } else {
        continue;
      }
      h = SplitMix64(h ^ SplitMix64(part + i));
    }
    ++results;
    exact += h;
    const double w = 1.0 + static_cast<double>(h >> 11) * 0x1.0p-53;
    if (weighted.size() < r.fields.size()) weighted.resize(r.fields.size());
    for (size_t i = 0; i < r.fields.size(); ++i) {
      if (const auto* d = std::get_if<double>(&r.fields[i])) {
        weighted[i] += w * *d;
      }
    }
  }
}

std::string Fingerprint::Diff(const Fingerprint& o) const {
  if (results != o.results) {
    return "result count " + std::to_string(results) + " vs " +
           std::to_string(o.results);
  }
  if (exact != o.exact) return "window/key/count fields differ";
  if (weighted.size() != o.weighted.size()) return "result width differs";
  for (size_t i = 0; i < weighted.size(); ++i) {
    const double a = weighted[i];
    const double b = o.weighted[i];
    const double scale = std::max({std::fabs(a), std::fabs(b), 1e-300});
    if (std::fabs(a - b) > 1e-9 * scale) {
      return "double field " + std::to_string(i) + " differs beyond 1e-9";
    }
  }
  return "";
}

void NoteEmissions(const RecordBatch& batch, int epoch, Emissions* out) {
  for (const Record& r : batch) ++(*out)[{r.window_start, epoch}];
}

double WeightedQuantile(std::vector<Weighted> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end(),
            [](const Weighted& a, const Weighted& b) {
              return a.value < b.value;
            });
  double total = 0.0;
  for (const Weighted& s : samples) total += s.weight;
  double acc = 0.0;
  for (const Weighted& s : samples) {
    acc += s.weight;
    if (acc >= q * total) return s.value;
  }
  return samples.back().value;
}

double Quantile(std::vector<double> samples, double q) {
  std::vector<Weighted> w;
  w.reserve(samples.size());
  for (double v : samples) w.push_back({v, 1.0});
  return WeightedQuantile(std::move(w), q);
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

namespace {

// Latency-bound integer chain: no memory traffic at all.
uint64_t SpinWork(uint64_t seed) {
  uint64_t x = seed;
  for (int i = 0; i < 4'000'000; ++i) x = SplitMix64(x);
  return x;
}

// A 256 KiB buffer rewritten over and over: L2-resident store bandwidth,
// the shape of the runtime's column-batch churn.
uint64_t MemWork(uint64_t seed) {
  std::vector<uint8_t> buf(256 * 1024);
  uint64_t x = seed;
  for (int i = 0; i < 3000; ++i) {
    std::memset(buf.data(), static_cast<int>(x + i), buf.size());
    x += buf[(x + i) % buf.size()];
  }
  return x;
}

// Wall seconds for `threads` copies of `work` running concurrently.
double TimeParallel(int threads, uint64_t (*work)(uint64_t)) {
  std::vector<uint64_t> sink(threads);
  const double start = NowSeconds();
  std::vector<std::thread> pool;
  for (int t = 1; t < threads; ++t) {
    pool.emplace_back([&sink, t, work] { sink[t] = work(t + 1); });
  }
  sink[0] = work(1);
  for (std::thread& th : pool) th.join();
  const double elapsed = NowSeconds() - start;
  volatile uint64_t keep = 0;
  for (uint64_t v : sink) keep = keep + v;
  return elapsed;
}

// Throughput at `threads` over throughput at one thread, median of three.
double Scaling(int threads, uint64_t (*work)(uint64_t)) {
  std::vector<double> ratios;
  for (int rep = 0; rep < 3; ++rep) {
    const double one = TimeParallel(1, work);
    const double many = TimeParallel(threads, work);
    ratios.push_back(many > 0 ? threads * one / many : 0.0);
  }
  return Median(ratios);
}

}  // namespace

HostScaling ProbeHost(int threads) {
  HostScaling h;
  h.cpu = Scaling(threads, SpinWork);
  h.mem = Scaling(threads, MemWork);
  return h;
}

double PeakRssMb() {
  struct rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
