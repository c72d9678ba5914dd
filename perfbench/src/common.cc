#include "common.h"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

#include "core/rng.h"
#include "data/generator.h"
#include "data/workload.h"
#include "kernel/simd.h"
#include "metric/linear_scan.h"
#include "storage/varint_simd.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS ""
#endif

namespace perfbench {

double Samples::Quantile(double q) const {
  if (ms_.empty()) return 0;
  if (sorted_.size() != ms_.size()) {
    sorted_ = ms_;
    std::sort(sorted_.begin(), sorted_.end());
  }
  const double rank = std::ceil(q * static_cast<double>(ms_.size()));
  const size_t index =
      static_cast<size_t>(std::clamp(rank, 1.0, double(ms_.size()))) - 1;
  return sorted_[index];
}

double Samples::Mean() const {
  if (ms_.empty()) return 0;
  double sum = 0;
  for (double v : ms_) sum += v;
  return sum / static_cast<double>(ms_.size());
}

double Tracer::TotalMs(const std::string& name, size_t* count) const {
  double total = 0;
  size_t n = 0;
  for (const Span& span : spans_) {
    if (name != span.name) continue;
    total += static_cast<double>(span.end_ns - span.start_ns) / 1e6;
    ++n;
  }
  if (count != nullptr) *count = n;
  return total;
}

Samples Tracer::DurationsMs(const std::string& name) const {
  Samples durations;
  for (const Span& span : spans_) {
    if (name == span.name) {
      durations.Add(static_cast<double>(span.end_ns - span.start_ns) / 1e6);
    }
  }
  return durations;
}

double Tracer::SelfMs(const std::string& name, size_t* count) const {
  // Children of each matching span, collected in one pass.
  std::map<int32_t, std::vector<const Span*>> children;
  for (const Span& span : spans_) {
    if (span.parent >= 0 && name == spans_[span.parent].name) {
      children[span.parent].push_back(&span);
    }
  }
  double total = 0;
  size_t n = 0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (name != span.name) continue;
    ++n;
    int64_t self = span.end_ns - span.start_ns;
    auto it = children.find(static_cast<int32_t>(i));
    if (it != children.end()) {
      std::vector<std::pair<int64_t, int64_t>> nested;
      for (const Span* child : it->second) {
        if (child->replay) {
          self -= child->end_ns - child->start_ns;
        } else {
          nested.emplace_back(std::max(child->start_ns, span.start_ns),
                              std::min(child->end_ns, span.end_ns));
        }
      }
      std::sort(nested.begin(), nested.end());
      int64_t covered_until = span.start_ns;
      for (const auto& [lo, hi] : nested) {
        const int64_t from = std::max(lo, covered_until);
        if (hi > from) {
          self -= hi - from;
          covered_until = hi;
        }
      }
    }
    total += static_cast<double>(std::max<int64_t>(self, 0)) / 1e6;
  }
  if (count != nullptr) *count = n;
  return total;
}

void Tracer::Dump(const std::string& path, int thread, bool append) const {
  std::ofstream out(path, append ? std::ios::app : std::ios::trunc);
  if (!append) out << "thread\tid\tparent\treplay\trequest\tname\tstart_ns\tend_ns\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << thread << '\t' << i << '\t' << s.parent << '\t' << s.replay << '\t'
        << s.request << '\t' << s.name << '\t' << s.start_ns << '\t'
        << s.end_ns << '\n';
  }
}

std::string DumpSpans(const RunOptions& options,
                      const std::vector<const Tracer*>& tracers) {
  const std::string path = options.work_dir + "/spans-" + options.workload +
                           "-" + std::to_string(options.seed) + ".tsv";
  for (size_t t = 0; t < tracers.size(); ++t) {
    tracers[t]->Dump(path, static_cast<int>(t), t > 0);
  }
  return path;
}

namespace {
const int64_t kProcessStartNs = NowNs();
}  // namespace

void Log(const std::string& message) {
  std::fprintf(stderr, "[%7.2fs] %s\n", SecondsSince(kProcessStartNs),
               message.c_str());
}

void RotateAcrossCpus(int64_t end_ns, const std::function<bool()>& serve_one) {
  cpu_set_t original;
  CPU_ZERO(&original);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(original), &original) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &original)) cpus.push_back(cpu);
    }
  }
  if (cpus.empty()) {  // affinity unavailable: serve unpinned
    while (NowNs() < end_ns && serve_one()) {
    }
    return;
  }
  const int64_t start = NowNs();
  const int64_t slice = (end_ns - start) / static_cast<int64_t>(cpus.size());
  bool more = true;
  for (size_t i = 0; i < cpus.size() && more; ++i) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus[i], &one);
    sched_setaffinity(0, sizeof(one), &one);
    const int64_t slice_end =
        i + 1 == cpus.size() ? end_ns : start + slice * int64_t(i + 1);
    while (more && NowNs() < slice_end) more = serve_one();
  }
  sched_setaffinity(0, sizeof(original), &original);
}

size_t ResidentBytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      size_t kib = 0;
      fields >> kib;
      return kib * 1024;
    }
  }
  return 0;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit, size_t samples) {
  metrics_[name] = Value{value, unit, samples};
}

void Report::RangeLatency(const Samples& samples) {
  Metric("range_p50_ms", samples.Quantile(0.5), "ms", samples.size());
  Metric("range_p90_ms", samples.Quantile(0.9), "ms", samples.size());
  Layer("range_p99_ms", samples.Quantile(0.99), "ms", samples.size());
}

void Report::Layer(const std::string& name, double value,
                   const std::string& unit, size_t samples) {
  layers_[name] = Value{value, unit, samples};
}

void Report::CountStatus(const topk::Status& status) {
  ++attempted;
  if (status.code() == topk::Status::Code::kUnavailable) {
    ++refused;
  } else if (!status.ok()) {
    ++failed;
  }
}

void Report::Count(const std::string& name, uint64_t value) {
  counts_[name] = value;
}

void Report::Info(const std::string& key, const std::string& value) {
  std::string quoted = "\"";
  for (char c : value) {
    if (c == '"' || c == '\\') quoted += '\\';
    quoted += c;
  }
  info_[key] = quoted + "\"";
}

void Report::Info(const std::string& key, double value) {
  std::ostringstream out;
  out.precision(17);
  out << value;
  info_[key] = out.str();
}

std::string Report::ToJson() const {
  std::ostringstream out;
  out.precision(17);
  auto values = [&out](const std::map<std::string, Value>& map) {
    out << '{';
    bool first = true;
    for (const auto& [name, v] : map) {
      if (!first) out << ',';
      first = false;
      out << '"' << name << "\":{\"value\":" << v.value << ",\"unit\":\""
          << v.unit << "\",\"samples\":" << v.samples << '}';
    }
    out << '}';
  };
  out << "{\"attempted\":" << attempted << ",\"failed\":" << failed
      << ",\"refused\":" << refused << ",\"wrong\":" << wrong
      << ",\"checked\":" << checked << ",\"metrics\":";
  values(metrics_);
  out << ",\"layers\":";
  values(layers_);
  out << ",\"counts\":{";
  bool first = true;
  for (const auto& [name, v] : counts_) {
    if (!first) out << ',';
    first = false;
    out << '"' << name << "\":" << v;
  }
  out << "},\"info\":{";
  first = true;
  for (const auto& [key, v] : info_) {
    if (!first) out << ',';
    first = false;
    out << '"' << key << "\":" << v;
  }
  out << "}}";
  return out.str();
}

void AddCounts(const topk::Statistics& stats, Report* report) {
  for (int t = 0; t < topk::kNumTickers; ++t) {
    const auto ticker = static_cast<topk::Ticker>(t);
    report->Count(std::string("ticker.") + topk::TickerName(ticker),
                  stats.Get(ticker));
  }
}

topk::RankingStore NytCorpus(size_t n) {
  return topk::Generate(
      topk::NytLikeOptions(static_cast<uint32_t>(n), 10, /*seed=*/20150323));
}

topk::RankingStore YagoCorpus(size_t n) {
  return topk::Generate(
      topk::YagoLikeOptions(static_cast<uint32_t>(n), 10, /*seed=*/20150324));
}

RequestStream MakeMixedStream(const topk::RankingStore& store, uint64_t seed,
                              size_t count, size_t knn_every,
                              const std::vector<double>& thetas,
                              double repeat_fraction) {
  topk::WorkloadOptions options;
  options.seed = seed;
  options.repeat_fraction = repeat_fraction;
  RequestStream stream;
  if (repeat_fraction > 0) {
    options.num_queries = count;
    stream.queries = topk::MakeWorkload(store, options);
  } else {
    options.num_queries = count + count / 4;
    std::set<std::vector<topk::ItemId>> seen;
    for (topk::PreparedQuery& query : topk::MakeWorkload(store, options)) {
      if (stream.queries.size() == count) break;
      if (seen.insert(query.ranking.items()).second) {
        stream.queries.push_back(std::move(query));
      }
    }
  }
  topk::Rng rng(seed ^ 0x5eed5eed5eedull);
  std::vector<double> cycle = thetas;
  size_t next_theta = cycle.size();
  for (size_t i = 0; i < stream.queries.size(); ++i) {
    MixedRequest request;
    request.query = &stream.queries[i];
    if (knn_every > 0 && i % knn_every == knn_every - 1) {
      request.knn = true;
      request.j = 10;
    } else {
      if (next_theta == cycle.size()) {
        rng.Shuffle(&cycle);
        next_theta = 0;
      }
      request.theta = cycle[next_theta++];
      request.theta_raw = topk::RawThreshold(request.theta, store.k());
    }
    stream.requests.push_back(request);
  }
  return stream;
}

void SampleChecker::Offer(const MixedRequest& request,
                          const std::vector<topk::RankingId>& ids,
                          const std::vector<topk::Neighbor>& neighbors) {
  if (offered_++ % every_ != 0) return;
  kept_.push_back(Kept{request, ids, neighbors});
}

void SampleChecker::Verify(const topk::RankingStore& store, Report* report) {
  for (const Kept& kept : kept_) {
    const MixedRequest& r = kept.request;
    const bool same =
        r.knn ? topk::LinearScanKnn(store, *r.query, r.j) == kept.neighbors
              : topk::LinearScanQuery(store, *r.query, r.theta_raw) ==
                    kept.ids;
    ++report->checked;
    if (!same) ++report->wrong;
  }
}

namespace {

size_t CacheBytes(int index) {
  std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index" +
                   std::to_string(index) + "/size");
  std::string text;
  if (!(in >> text) || text.empty()) return 0;
  size_t scale = 1;
  if (text.back() == 'K') scale = 1024;
  if (text.back() == 'M') scale = 1024 * 1024;
  return static_cast<size_t>(std::stoull(text)) * scale;
}

}  // namespace

void AddRunMetadata(const RunOptions& options, Report* report) {
  report->Info("workload", options.workload);
  report->Info("seed", static_cast<double>(options.seed));
  report->Info("seconds", options.seconds);
  report->Info("trace", options.trace ? 1.0 : 0.0);
  report->Info("commit", options.commit);
  report->Info("build_type", PERFBENCH_BUILD_TYPE);
  report->Info("cxx_flags", PERFBENCH_CXX_FLAGS);
  report->Info("simd_backend", topk::kSimdBackendName);
  report->Info("decode_backend", topk::storage::kDecodeBackendName);
  report->Info("nproc",
               static_cast<double>(std::thread::hardware_concurrency()));
  // index2 = unified L2, index3 = L3 on x86 Linux.
  report->Info("l2_bytes", static_cast<double>(CacheBytes(2)));
  report->Info("l3_bytes", static_cast<double>(CacheBytes(3)));
}

void AddWorkingSet(Report* report, size_t working_set_bytes,
                   size_t distinct_requests, size_t result_cache_capacity) {
  const double l2 = static_cast<double>(CacheBytes(2));
  const double l3 = static_cast<double>(CacheBytes(3));
  report->Info("working_set_bytes", static_cast<double>(working_set_bytes));
  if (l2 > 0) {
    report->Info("working_set_over_l2",
                 static_cast<double>(working_set_bytes) / l2);
  }
  if (l3 > 0) {
    report->Info("working_set_over_l3",
                 static_cast<double>(working_set_bytes) / l3);
  }
  report->Info("distinct_requests", static_cast<double>(distinct_requests));
  report->Info("result_cache_capacity",
               static_cast<double>(result_cache_capacity));
}

}  // namespace perfbench
