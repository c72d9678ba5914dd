// bench_baseline: the machine-readable benchmark baseline.
//
// Where the fig*/table* binaries print the paper's figures as text tables
// for humans, this binary measures the numbers every future perf PR is
// judged against and writes them as JSON (default BENCH_baseline.json,
// override with --out=):
//
//   footrule_kernel  ns/call and Mcalls/s for the merge and naive distance
//                    kernels (the micro_footrule story, sans google-benchmark)
//   kernel, simd,    the filter/validate, lane-kernel, checksum and decode
//   storage          micro rows (kernel_bench.h, storage_bench.h; also
//                    emitted alone by bench_kernel)
//   index_build      per-index construction time and memory (the Table 6 story)
//   query_latency    per-algorithm workload wall time and per-query latency
//                    percentiles at several thetas (the Figure 8 story)
//
// Scaling knobs are shared with every other bench (see bench_util.h);
// scripts/run_benchmarks.sh drives this at CI scale.

#include <algorithm>
#include <chrono>
#include <ctime>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "core/footrule.h"
#include "core/rng.h"
#include "harness/query_algorithms.h"
#include "harness/runner.h"
#include "json_writer.h"
#include "kernel_bench.h"
#include "storage_bench.h"

namespace topk {
namespace {

using Clock = std::chrono::steady_clock;

double ElapsedNs(Clock::time_point start) {
  return std::chrono::duration<double, std::nano>(Clock::now() - start)
      .count();
}

RankingStore MakeKernelStore(uint32_t k, size_t n, uint64_t seed) {
  Rng rng(seed);
  RankingStore store(k);
  std::vector<ItemId> items;
  for (size_t i = 0; i < n; ++i) {
    items.clear();
    while (items.size() < k) {
      const auto item = static_cast<ItemId>(rng.Below(8 * k));
      if (std::find(items.begin(), items.end(), item) == items.end()) {
        items.push_back(item);
      }
    }
    store.AddUnchecked(items);
  }
  return store;
}

/// Times `distance(a, b)` over pre-drawn random pairs until ~50ms have
/// elapsed and reports ns per call. Pairs are generated outside the timed
/// loop so RNG overhead does not bias the kernel number.
template <typename Distance>
double MeasureKernelNs(const RankingStore& store, Distance&& distance) {
  Rng rng(2);
  std::vector<std::pair<RankingId, RankingId>> pairs(4096);
  for (auto& pair : pairs) {
    pair.first = static_cast<RankingId>(rng.Below(store.size()));
    pair.second = static_cast<RankingId>(rng.Below(store.size()));
  }
  // Warm-up: touch the store and fault-in code paths.
  RawDistance sink = 0;
  for (const auto& [a, b] : pairs) sink += distance(a, b);

  constexpr double kMinNs = 50e6;
  uint64_t calls = 0;
  const auto start = Clock::now();
  double elapsed = 0;
  do {
    for (const auto& [a, b] : pairs) sink += distance(a, b);
    calls += pairs.size();
    elapsed = ElapsedNs(start);
  } while (elapsed < kMinNs);
  // Keep the accumulated distances observable so the loop cannot be
  // dead-code eliminated.
  if (sink == std::numeric_limits<RawDistance>::max()) {
    std::cerr << "unreachable\n";
  }
  return elapsed / static_cast<double>(calls);
}

void EmitFootruleKernel(bench::JsonWriter* json) {
  json->Key("footrule_kernel");
  json->BeginArray();
  for (const uint32_t k : {5u, 10u, 15u, 20u, 25u}) {
    const RankingStore store = MakeKernelStore(k, 1024, 1);
    struct Kernel {
      const char* name;
      double ns;
    };
    const Kernel kernels[] = {
        {"footrule_merge", MeasureKernelNs(store,
                                           [&store](RankingId a, RankingId b) {
                                             return FootruleDistance(
                                                 store.sorted(a),
                                                 store.sorted(b));
                                           })},
        {"footrule_naive", MeasureKernelNs(store,
                                           [&store](RankingId a, RankingId b) {
                                             return FootruleDistanceNaive(
                                                 store.view(a), store.view(b));
                                           })},
    };
    for (const Kernel& kernel : kernels) {
      json->BeginObject();
      json->Key("kernel");
      json->String(kernel.name);
      json->Key("k");
      json->Uint(k);
      json->Key("ns_per_call");
      json->Double(kernel.ns);
      json->Key("mcalls_per_sec");
      json->Double(1e3 / kernel.ns);
      json->EndObject();
    }
    std::cerr << "  kernel k=" << k << " done\n";
  }
  json->EndArray();
}

struct DatasetRun {
  const char* name;
  const RankingStore* store;
  /// Shared across the index-build and query-latency sections so every
  /// index is constructed exactly once per baseline run.
  EngineSuite* suite;
};

void EmitIndexBuild(bench::JsonWriter* json,
                    const std::vector<DatasetRun>& datasets) {
  struct Row {
    const char* label;
    Algorithm algorithm;
  };
  const Row rows[] = {
      {"plain_inverted", Algorithm::kFV},
      {"augmented_inverted", Algorithm::kListMerge},
      {"blocked_inverted", Algorithm::kBlockedPrune},
      {"delta_inverted", Algorithm::kAdaptSearch},
      {"bk_tree", Algorithm::kBkTree},
      {"m_tree", Algorithm::kMTree},
      {"coarse", Algorithm::kCoarse},
      {"coarse_drop", Algorithm::kCoarseDrop},
  };
  json->Key("index_build");
  json->BeginArray();
  for (const DatasetRun& dataset : datasets) {
    for (const Row& row : rows) {
      const IndexBuildInfo info = dataset.suite->BuildInfo(row.algorithm);
      json->BeginObject();
      json->Key("dataset");
      json->String(dataset.name);
      json->Key("index");
      json->String(row.label);
      json->Key("build_ms");
      json->Double(info.build_ms);
      json->Key("memory_bytes");
      json->Uint(info.memory_bytes);
      json->EndObject();
    }
    std::cerr << "  index build on " << dataset.name << " done\n";
  }
  json->EndArray();
}

void EmitQueryLatency(bench::JsonWriter* json, const bench::BenchArgs& args,
                      const std::vector<DatasetRun>& datasets) {
  const std::vector<Algorithm> algorithms = {
      Algorithm::kFV,           Algorithm::kFVDrop,
      Algorithm::kListMerge,    Algorithm::kLaatPrune,
      Algorithm::kBlockedPrune, Algorithm::kBlockedPruneDrop,
      Algorithm::kCoarse,       Algorithm::kCoarseDrop,
      Algorithm::kAdaptSearch,  Algorithm::kMinimalFV,
      Algorithm::kBkTree,       Algorithm::kMTree,
      Algorithm::kLinearScan,
  };
  const double thetas[] = {0.1, 0.3};
  json->Key("query_latency");
  json->BeginArray();
  for (const DatasetRun& dataset : datasets) {
    const uint32_t k = dataset.store->k();
    const auto queries = bench::MakeBenchWorkload(*dataset.store, args);
    EngineSuite& suite = *dataset.suite;
    for (const Algorithm algorithm : algorithms) {
      for (const double theta : thetas) {
        const RawDistance theta_raw = RawThreshold(theta, k);
        auto engine = algorithm == Algorithm::kMinimalFV
                          ? suite.MakeOracleEngine(queries, theta_raw)
                          : suite.MakeEngine(algorithm);
        const RunResult result = RunQueries(engine.get(), queries, theta_raw);
        json->BeginObject();
        json->Key("dataset");
        json->String(dataset.name);
        json->Key("algorithm");
        json->String(AlgorithmName(algorithm));
        json->Key("k");
        json->Uint(k);
        json->Key("theta");
        json->Double(theta);
        json->Key("queries");
        json->Uint(result.num_queries);
        json->Key("wall_ms");
        json->Double(result.wall_ms);
        json->Key("mean_ms_per_query");
        json->Double(result.mean_ms_per_query());
        json->Key("p50_ms");
        json->Double(result.p50_ms);
        json->Key("p95_ms");
        json->Double(result.p95_ms);
        json->Key("p99_ms");
        json->Double(result.p99_ms);
        json->Key("total_results");
        json->Uint(result.total_results);
        json->EndObject();
      }
      std::cerr << "  latency " << dataset.name << "/"
                << AlgorithmName(algorithm) << " done\n";
    }
  }
  json->EndArray();
}

std::string UtcTimestamp() {
  const std::time_t now = std::time(nullptr);
  char buffer[32];
  std::tm tm_utc{};
#if defined(_WIN32)
  gmtime_s(&tm_utc, &now);
#else
  gmtime_r(&now, &tm_utc);
#endif
  std::strftime(buffer, sizeof(buffer), "%Y-%m-%dT%H:%M:%SZ", &tm_utc);
  return buffer;
}

int Run(int argc, char** argv) {
  const auto args = bench::BenchArgs::Parse(argc, argv);
  std::string out_path = "BENCH_baseline.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--out=", 0) == 0) out_path = arg.substr(6);
  }
  bench::PrintHeader("Benchmark baseline (JSON)", args);

  // Open the output before the (potentially minutes-long) measurement so
  // an unwritable path fails immediately.
  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot open " << out_path << " for writing\n";
    return 1;
  }

  const RankingStore nyt = bench::MakeNyt(args, 10);
  const RankingStore yago = bench::MakeYago(args, 10);
  EngineSuite nyt_suite(&nyt);
  EngineSuite yago_suite(&yago);
  const std::vector<DatasetRun> datasets = {{"nyt_like", &nyt, &nyt_suite},
                                            {"yago_like", &yago, &yago_suite}};
  bench::JsonWriter json(&out);
  json.BeginObject();
  json.Key("schema_version");
  json.Uint(1);
  json.Key("meta");
  json.BeginObject();
  json.Key("generated_at_utc");
  json.String(UtcTimestamp());
  json.Key("paper");
  json.String("EDBT 2015, 10.5441/002/edbt.2015.23");
  json.Key("nyt_n");
  json.Uint(args.nyt_n);
  json.Key("yago_n");
  json.Uint(args.yago_n);
  json.Key("queries");
  json.Uint(args.queries);
  json.Key("seed");
  json.Uint(args.seed);
  json.Key("hardware_concurrency");
  json.Uint(std::thread::hardware_concurrency());
  json.EndObject();

  EmitFootruleKernel(&json);
  bench::EmitKernelSection(&json, args);
  bench::EmitSimdSection(&json, args);
  EmitIndexBuild(&json, datasets);
  EmitQueryLatency(&json, args, datasets);
  bench::EmitStorageSection(&json, args);

  json.EndObject();
  out << "\n";
  std::cout << "wrote " << out_path << "\n";
  return 0;
}

}  // namespace
}  // namespace topk

int main(int argc, char** argv) { return topk::Run(argc, argv); }
