// bench_serving: online serving layer study — cached vs cold throughput.
//
// Sweeps the workload's re-issue fraction (the new Zipf repeat knob)
// against thread counts, serving the same stream three ways through the
// QueryFrontend:
//
//   uncached  caches disabled (capacity 0): the inter-query-parallel
//             baseline, every query runs its engine.
//   first     caches enabled, starting empty: the *online* hit rate —
//             within-stream re-issues already hit.
//   warm      the same stream again over the populated caches: the
//             steady-state ceiling for a repeating workload.
//
// Every row cross-checks the result multiset hash against the sequential
// single-threaded runner — a cache that changes answers is a bug, not a
// speedup. A second section ablates the result cache at a fixed repeat
// fraction.
//
//   build/bench/bench_serving                   # laptop scale
//   build/bench/bench_serving --out=serve.json  # also emit JSON rows
//
// Shares --nyt-n=/--queries=/--seed= with the other benches.

#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "harness/query_algorithms.h"
#include "harness/report.h"
#include "harness/runner.h"
#include "json_writer.h"
#include "serve/frontend.h"

namespace topk {
namespace {

// The sweep serves the paper's hybrid (Coarse); the ablation serves plain
// F&V and the exhaustive LinearScan.
constexpr Algorithm kSweepAlgorithm = Algorithm::kCoarse;
constexpr Algorithm kAblationAlgorithms[] = {Algorithm::kFV,
                                             Algorithm::kLinearScan};

struct PassRow {
  const char* section;
  Algorithm algorithm;
  double repeat_fraction;
  size_t threads;
  const char* config;  // cache configuration
  const char* pass;    // uncached / first / warm
  const RunResult* run;
  double speedup_vs_uncached;
  bool exact;
};

struct JsonSink {
  bench::JsonWriter* json = nullptr;  // null: table-only run

  void Row(const PassRow& row) {
    if (json == nullptr) return;
    const Statistics& stats = row.run->stats;
    json->BeginObject();
    json->Key("section");
    json->String(row.section);
    json->Key("algorithm");
    json->String(AlgorithmName(row.algorithm));
    json->Key("repeat_fraction");
    json->Double(row.repeat_fraction);
    json->Key("threads");
    json->Uint(row.threads);
    json->Key("config");
    json->String(row.config);
    json->Key("pass");
    json->String(row.pass);
    json->Key("wall_ms");
    json->Double(row.run->wall_ms);
    json->Key("mean_ms_per_query");
    json->Double(row.run->mean_ms_per_query());
    json->Key("p99_ms");
    json->Double(row.run->p99_ms);
    json->Key("qps");
    json->Double(row.run->wall_ms > 0 ? 1000.0 *
                                            static_cast<double>(
                                                row.run->num_queries) /
                                            row.run->wall_ms
                                      : 0);
    json->Key("result_cache_hits");
    json->Uint(stats.Get(Ticker::kResultCacheHits));
    json->Key("result_cache_misses");
    json->Uint(stats.Get(Ticker::kResultCacheMisses));
    json->Key("result_cache_evictions");
    json->Uint(stats.Get(Ticker::kResultCacheEvictions));
    json->Key("distance_calls");
    json->Uint(stats.Get(Ticker::kDistanceCalls));
    json->Key("speedup_vs_uncached");
    json->Double(row.speedup_vs_uncached);
    json->Key("exact_match");
    json->Bool(row.exact);
    json->EndObject();
  }
};

double HitRate(const RunResult& run) {
  return run.num_queries == 0
             ? 0
             : static_cast<double>(
                   run.stats.Get(Ticker::kResultCacheHits)) /
                   static_cast<double>(run.num_queries);
}

void RunRepeatSweep(const RankingStore& store, const bench::BenchArgs& args,
                    RawDistance theta_raw, JsonSink* sink) {
  PrintBanner(std::cout,
              "Repeat-fraction x threads sweep (Coarse, theta=0.3)");
  TextTable table({"repeat", "threads", "pass", "wall_ms", "mean_ms",
                   "hit_rate", "speedup", "exact"});

  // Sequential single-threaded reference for the exactness checksum.
  EngineSuite suite(&store);
  auto engine = suite.MakeEngine(kSweepAlgorithm);

  for (const double repeat_fraction : {0.0, 0.25, 0.5, 0.75, 0.9}) {
    WorkloadOptions wopts;
    wopts.num_queries = args.queries;
    wopts.perturbed_fraction = 0.8;
    wopts.seed = args.seed + 77;
    wopts.repeat_fraction = repeat_fraction;
    wopts.repeat_zipf_s = 1.0;
    const auto queries = MakeWorkload(store, wopts);
    const RunResult sequential = RunQueries(engine.get(), queries, theta_raw);

    for (const size_t threads : {1u, 2u, 4u}) {
      QueryFrontendOptions off;
      off.num_threads = threads;
      off.result_cache_capacity = 0;
      QueryFrontend uncached(&store, off);
      uncached.Prepare(kSweepAlgorithm);  // index build before timed pass
      const RunResult cold = uncached.ServeWorkload(kSweepAlgorithm,
                                                    queries, theta_raw);

      QueryFrontendOptions on;
      on.num_threads = threads;
      QueryFrontend cached(&store, on);
      cached.Prepare(kSweepAlgorithm);
      const RunResult first = cached.ServeWorkload(kSweepAlgorithm, queries,
                                                   theta_raw);
      const RunResult warm = cached.ServeWorkload(kSweepAlgorithm, queries,
                                                  theta_raw);

      const auto exact = [&](const RunResult& run) {
        return run.result_hash == sequential.result_hash &&
               run.total_results == sequential.total_results;
      };
      const PassRow rows[] = {
          {"repeat_sweep", kSweepAlgorithm, repeat_fraction, threads, "off",
           "uncached", &cold, 1.0, exact(cold)},
          {"repeat_sweep", kSweepAlgorithm, repeat_fraction, threads, "on",
           "first", &first,
           first.wall_ms > 0 ? cold.wall_ms / first.wall_ms : 0,
           exact(first)},
          {"repeat_sweep", kSweepAlgorithm, repeat_fraction, threads, "on",
           "warm", &warm,
           warm.wall_ms > 0 ? cold.wall_ms / warm.wall_ms : 0, exact(warm)},
      };
      for (const PassRow& row : rows) {
        table.AddRow({FormatDouble(repeat_fraction), std::to_string(threads),
                      row.pass, FormatDouble(row.run->wall_ms),
                      FormatDouble(row.run->mean_ms_per_query(), 4),
                      FormatDouble(HitRate(*row.run)),
                      FormatDouble(row.speedup_vs_uncached),
                      row.exact ? "yes" : "NO"});
        sink->Row(row);
      }
    }
  }
  table.Print(std::cout);
}

void RunCacheAblation(const RankingStore& store, const bench::BenchArgs& args,
                      RawDistance theta_raw, JsonSink* sink) {
  PrintBanner(std::cout,
              "Result-cache ablation (repeat=0.5, 2 threads, first pass)");
  TextTable table({"algorithm", "config", "wall_ms", "result_hits",
                   "distance_calls", "speedup", "exact"});

  WorkloadOptions wopts;
  wopts.num_queries = args.queries;
  wopts.perturbed_fraction = 0.8;
  wopts.seed = args.seed + 77;
  wopts.repeat_fraction = 0.5;
  const auto queries = MakeWorkload(store, wopts);

  struct Config {
    const char* name;
    size_t result_capacity;
  };
  const Config configs[] = {
      {"none", 0},
      {"result_only", 64 * 1024},
  };
  EngineSuite suite(&store);
  for (const Algorithm algorithm : kAblationAlgorithms) {
    auto engine = suite.MakeEngine(algorithm);
    const RunResult sequential = RunQueries(engine.get(), queries, theta_raw);
    double baseline_ms = 0;
    bool have_baseline = false;
    for (const Config& config : configs) {
      QueryFrontendOptions options;
      options.num_threads = 2;
      options.result_cache_capacity = config.result_capacity;
      QueryFrontend frontend(&store, options);
      frontend.Prepare(algorithm);
      const RunResult run =
          frontend.ServeWorkload(algorithm, queries, theta_raw);
      if (!have_baseline) {  // first config ("none") is the baseline
        baseline_ms = run.wall_ms;
        have_baseline = true;
      }
      const bool exact = run.result_hash == sequential.result_hash &&
                         run.total_results == sequential.total_results;
      const double speedup = run.wall_ms > 0 ? baseline_ms / run.wall_ms : 0;
      table.AddRow(
          {AlgorithmName(algorithm), config.name, FormatDouble(run.wall_ms),
           std::to_string(run.stats.Get(Ticker::kResultCacheHits)),
           std::to_string(run.stats.Get(Ticker::kDistanceCalls)),
           FormatDouble(speedup), exact ? "yes" : "NO"});
      sink->Row(PassRow{"cache_ablation", algorithm, 0.5, 2, config.name,
                        "first", &run, speedup, exact});
    }
  }
  table.Print(std::cout);
}

int Run(int argc, char** argv) {
  const auto args = bench::BenchArgs::Parse(argc, argv);
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--out=", 0) == 0) out_path = arg.substr(6);
  }
  bench::PrintHeader("Online serving layer (frontend + caches)", args);
  std::cout << "# hardware_concurrency="
            << std::thread::hardware_concurrency() << "\n";

  const RankingStore store = bench::MakeNyt(args, 10);
  const RawDistance theta_raw = RawThreshold(0.3, store.k());

  std::ofstream out;
  std::optional<bench::JsonWriter> json;
  JsonSink sink;
  if (!out_path.empty()) {
    out.open(out_path);
    if (!out) {
      std::cerr << "cannot open " << out_path << " for writing\n";
      return 1;
    }
    json.emplace(&out);
    json->BeginObject();
    json->Key("schema_version");
    json->Uint(1);
    json->Key("hardware_concurrency");
    json->Uint(std::thread::hardware_concurrency());
    json->Key("rows");
    json->BeginArray();
    sink.json = &*json;
  }

  RunRepeatSweep(store, args, theta_raw, &sink);
  RunCacheAblation(store, args, theta_raw, &sink);

  if (sink.json != nullptr) {
    json->EndArray();
    json->EndObject();
    out << "\n";
    std::cout << "wrote " << out_path << "\n";
  }
  return 0;
}

}  // namespace
}  // namespace topk

int main(int argc, char** argv) { return topk::Run(argc, argv); }
