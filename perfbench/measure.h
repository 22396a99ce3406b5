// Measurement helpers: result fingerprints, emission bookkeeping,
// percentiles, the host calibration probe and peak memory.
#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/units.h"
#include "stream/record.h"

namespace perfbench {

inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Order-independent summary of a stream of window results, folded batch by
/// batch so no result outlives the epoch that emitted it. Window start and
/// every integer or string field are compared exactly; each double field
/// is summed with a per-result key weight and compared within a relative
/// 1e-9, because partial-state merge order moves the last bits of floating
/// aggregates when placement changes.
struct Fingerprint {
  uint64_t results = 0;
  uint64_t exact = 0;
  std::vector<double> weighted;  // indexed by field position

  void Fold(const jarvis::stream::RecordBatch& batch);
  /// Empty string when equal, otherwise what differs.
  std::string Diff(const Fingerprint& other) const;
};

/// Which epoch emitted how many results of which window, for one pass.
/// Results emitted by the end-of-run flush are folded with epoch -1.
using Emissions = std::map<std::pair<jarvis::Micros, int>, uint64_t>;

void NoteEmissions(const jarvis::stream::RecordBatch& batch, int epoch,
                   Emissions* out);

/// A value with a weight (how many results it stands for).
struct Weighted {
  double value = 0.0;
  double weight = 1.0;
};

/// Quantile `q` in [0, 1] of weighted samples (the smallest value whose
/// cumulative weight reaches q of the total); 0 when empty.
double WeightedQuantile(std::vector<Weighted> samples, double q);
/// Unweighted form: nearest-rank quantile.
double Quantile(std::vector<double> samples, double q);
double Median(std::vector<double> samples);

/// Host calibration: how a compute-bound and a memory-bound loop scale from
/// one thread to `threads` threads (throughput ratio; `threads` is ideal).
struct HostScaling {
  double cpu = 0.0;
  double mem = 0.0;
};
HostScaling ProbeHost(int threads);

/// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
