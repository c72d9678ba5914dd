// Shared plumbing of the perfbench program: run options, latency samples,
// the in-memory span tracer, process gauges and the result report.
//
// Every workload file (nyt_ram.cc, nyt_snapshot.cc, yago_live.cc,
// nyt_log_coarse.cc) drives the topk library only through its public
// headers and fills one Report; main.cc prints it as a single JSON line
// that perfbench/run.py turns into the benchmark result.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <malloc.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/ranking.h"
#include "core/statistics.h"
#include "core/status.h"
#include "core/types.h"
#include "metric/knn.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

/// Share of a run's seconds given to the single-caller latency phase; the
/// rest measures throughput. Sized so the slowest single-caller workload
/// (nyt_snapshot) still collects 1000 range samples at 15 s, as a p99
/// with ten samples beyond it needs.
inline constexpr double kLatencyShare = 0.65;

/// Untimed multi-threaded work before each throughput window. The
/// single-caller phase leaves the other vCPUs idle, and the first batches
/// after it ran up to 3x slow, by a different amount in every run.
inline constexpr double kExecutorWarmupSeconds = 0.5;

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for snapshot files and span dumps.
  std::string work_dir = ".";
  /// Source revision, as the caller identified it.
  std::string commit = "unknown";
};

/// Latency samples in milliseconds.
class Samples {
 public:
  void Add(double ms) {
    ms_.push_back(ms);
    sorted_.clear();
  }
  void Append(const Samples& other) {
    ms_.insert(ms_.end(), other.ms_.begin(), other.ms_.end());
    sorted_.clear();
  }
  size_t size() const { return ms_.size(); }
  /// Nearest-rank quantile, q in [0, 1]; 0 when empty.
  double Quantile(double q) const;
  double Mean() const;

 private:
  std::vector<double> ms_;  // insertion order
  mutable std::vector<double> sorted_;  // cache for Quantile
};

/// One recorded span. `parent` indexes the same tracer's span vector
/// (-1 for a root). A `replay` child re-executes part of its parent's work
/// through a lower layer's public call after the parent returned, so its
/// whole duration (not its overlap) is charged against the parent's self
/// time.
struct Span {
  const char* name;
  uint64_t request;
  int32_t parent;
  bool replay;
  int64_t start_ns;
  int64_t end_ns;
};

/// In-memory span recorder owned by one thread. Disabled tracers record
/// nothing and cost one branch per call.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  int32_t Begin(const char* name, uint64_t request, int32_t parent = -1,
                bool replay = false) {
    if (!enabled_) return -1;
    spans_.push_back(Span{name, request, parent, replay, NowNs(), 0});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void End(int32_t id) {
    if (id >= 0) spans_[static_cast<size_t>(id)].end_ns = NowNs();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Summed duration (ms) and count of the spans called `name`.
  double TotalMs(const std::string& name, size_t* count = nullptr) const;
  /// Durations (ms) of the spans called `name`, in recording order.
  Samples DurationsMs(const std::string& name) const;
  /// Summed self time (ms) of the spans called `name`: duration minus the
  /// part nested children cover, minus replay children's durations.
  double SelfMs(const std::string& name, size_t* count = nullptr) const;
  /// Appends the spans as tab-separated lines tagged with `thread`.
  void Dump(const std::string& path, int thread, bool append) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t request,
             int32_t parent = -1, bool replay = false)
      : tracer_(tracer), id_(tracer->Begin(name, request, parent, replay)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  int32_t id() const { return id_; }

 private:
  Tracer* tracer_;
  int32_t id_;
};

/// Progress line on stderr, stamped with seconds since process start.
void Log(const std::string& message);

/// Runs a single-caller phase until `end_ns`, split into equal time slices
/// with the calling thread pinned to each allowed CPU in turn (affinity is
/// restored afterwards). On a VM the vCPUs' speeds differ by up to 40%
/// for microsecond-scale reads and a lone thread tends to stay on one of
/// them for a whole run; rotating samples them all alike. `serve_one`
/// serves one request and returns false when the stream is exhausted.
void RotateAcrossCpus(int64_t end_ns, const std::function<bool()>& serve_one);

/// Resident set size of this process in bytes (VmRSS).
size_t ResidentBytes();

/// Median of a small vector (copies).
double Median(std::vector<double> values);

/// Everything one run reports. End-to-end metrics carry their sample
/// count; layer metrics and exact counts are filled by the traced run.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit,
              size_t samples);
  /// range_p50_ms and range_p90_ms (gated), range_p99_ms (reported with
  /// its sample count, ungated: see README "Why the gate uses p90").
  void RangeLatency(const Samples& samples);
  void Layer(const std::string& name, double value, const std::string& unit,
             size_t samples = 0);
  void Count(const std::string& name, uint64_t value);
  void Info(const std::string& key, const std::string& value);
  void Info(const std::string& key, double value);

  /// Counts one served request: attempted, plus refused (shed) or failed
  /// when its status is not OK.
  void CountStatus(const topk::Status& status);

  /// Request accounting behind error_ratio.
  uint64_t attempted = 0;
  uint64_t failed = 0;   // non-OK status
  uint64_t refused = 0;  // shed / unavailable
  uint64_t wrong = 0;    // answer differs from brute force
  /// Answers checked against brute force.
  uint64_t checked = 0;

  std::string ToJson() const;

 private:
  struct Value {
    double value;
    std::string unit;
    size_t samples;
  };
  std::map<std::string, Value> metrics_;
  std::map<std::string, Value> layers_;
  std::map<std::string, uint64_t> counts_;
  std::map<std::string, std::string> info_;
};

/// Builds the serving structures `reps` times with `make` (which returns a
/// unique_ptr, null on failure) and keeps the last build. Reports setup_s
/// as the median build time and mem_bytes_per_ranking as the resident
/// bytes the first build added, divided by the `n` rankings served.
template <typename Make>
auto RepeatedSetup(int reps, size_t n, Report* report, Make make) {
  std::vector<double> seconds;
  decltype(make()) kept;
  for (int rep = 0; rep < reps; ++rep) {
    kept.reset();  // the previous build is released before the next
    // Freed heap pages return to the OS first, so the build's footprint
    // shows as new resident pages instead of reused ones.
    malloc_trim(0);
    const size_t rss_before = ResidentBytes();
    const int64_t start = NowNs();
    kept = make();
    seconds.push_back(SecondsSince(start));
    if (kept == nullptr) break;
    if (rep == 0) {
      report->Metric("mem_bytes_per_ranking",
                     static_cast<double>(ResidentBytes() - rss_before) /
                         static_cast<double>(n),
                     "B", 1);
    }
  }
  report->Metric("setup_s", Median(seconds), "s", seconds.size());
  return kept;
}

/// Every ticker of `stats` as an exact count named "ticker.<name>".
void AddCounts(const topk::Statistics& stats, Report* report);

/// The NYT-like corpus every nyt_* workload serves. Its generator seed is
/// fixed: the giant Zipf clusters make the corpus itself move latency by
/// up to 5x between seeds, so --seed varies the traffic, not the corpus.
topk::RankingStore NytCorpus(size_t n);
/// The Yago-like corpus of yago_live (fixed generator seed, as above).
topk::RankingStore YagoCorpus(size_t n);

/// One request of a mixed range/k-NN stream.
struct MixedRequest {
  const topk::PreparedQuery* query = nullptr;
  bool knn = false;
  double theta = 0;  // range requests
  topk::RawDistance theta_raw = 0;
  size_t j = 0;  // k-NN requests
};

/// Owns the queries the requests point into (moving keeps them valid).
struct RequestStream {
  std::vector<topk::PreparedQuery> queries;
  std::vector<MixedRequest> requests;
};

/// Every `knn_every`-th request (0: none) is a k-NN with j = 10; the rest
/// are range requests whose theta cycles through `thetas` in a seeded
/// order that is reshuffled every cycle, so each theta carries an equal
/// share of any window. Queries follow the corpus distribution
/// (data/workload.h); with `repeat_fraction` = 0 every exact repeat is
/// removed, so a result cache can never hit, otherwise that share
/// re-issues earlier queries with Zipf popularity.
RequestStream MakeMixedStream(const topk::RankingStore& store, uint64_t seed,
                              size_t count, size_t knn_every,
                              const std::vector<double>& thetas = {0.1, 0.2,
                                                                   0.3},
                              double repeat_fraction = 0);

/// Keeps every `every`-th served answer and checks them against brute
/// force (LinearScanQuery / LinearScanKnn) once timing is over.
class SampleChecker {
 public:
  explicit SampleChecker(size_t every) : every_(every) {}
  void Offer(const MixedRequest& request,
             const std::vector<topk::RankingId>& ids,
             const std::vector<topk::Neighbor>& neighbors = {});
  /// Counts checked and wrong answers into `report`.
  void Verify(const topk::RankingStore& store, Report* report);

 private:
  struct Kept {
    MixedRequest request;
    std::vector<topk::RankingId> ids;
    std::vector<topk::Neighbor> neighbors;
  };
  size_t every_;
  size_t offered_ = 0;
  std::vector<Kept> kept_;
};

/// Fills the run metadata (build, ISA backends, caches, seed).
void AddRunMetadata(const RunOptions& options, Report* report);
/// Records a workload's working-set bytes against L2/L3 and the result
/// cache capacity.
void AddWorkingSet(Report* report, size_t working_set_bytes,
                   size_t distinct_requests, size_t result_cache_capacity);

/// Writes every tracer's spans to `<work_dir>/spans-<workload>-<seed>.tsv`.
std::string DumpSpans(const RunOptions& options,
                      const std::vector<const Tracer*>& tracers);

// Workload entry points (one per file).
void RunNytRam(const RunOptions& options, Report* report);
void RunNytSnapshot(const RunOptions& options, Report* report);
void RunYagoLive(const RunOptions& options, Report* report);
void RunNytLogCoarse(const RunOptions& options, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
