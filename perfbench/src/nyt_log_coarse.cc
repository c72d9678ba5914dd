// nyt_log_coarse: 200k NYT-like rankings behind QueryFrontend with the
// paper's Coarse+Drop hybrid index, serving a query log at theta = 0.1
// in which 30% of the requests re-issue an earlier query (Zipf
// popularity), so the result cache hits. Latency: one closed-loop caller
// sending one-request batches. qps: one caller sending fixed-size batches
// over 3 executors.

#include <algorithm>
#include <memory>
#include <set>
#include <span>

#include "cluster/bk_partitioner.h"
#include "coarse/coarse_index.h"
#include "common.h"
#include "serve/frontend.h"

namespace perfbench {
namespace {

using topk::Algorithm;
using topk::ServeRequest;
using topk::ServeResponse;
using topk::Statistics;
using topk::Ticker;

constexpr size_t kExecutors = 3;
constexpr size_t kBatch = 480;

std::unique_ptr<topk::QueryFrontend> Setup(const topk::RankingStore& store) {
  topk::QueryFrontendOptions options;
  options.num_threads = kExecutors;
  auto frontend = std::make_unique<topk::QueryFrontend>(&store, options);
  frontend->Prepare(Algorithm::kCoarseDrop);
  return frontend;
}

ServeRequest ToServe(const MixedRequest& r) {
  return ServeRequest::Range(Algorithm::kCoarseDrop, *r.query, r.theta_raw);
}

}  // namespace

void RunNytLogCoarse(const RunOptions& options, Report* report) {
  const size_t n = 200'000;
  const topk::RankingStore store = NytCorpus(n);
  const RequestStream stream = MakeMixedStream(
      store, options.seed, 120'000, /*knn_every=*/0,
      /*thetas=*/{0.1}, /*repeat_fraction=*/0.3);
  const size_t fixed = 1'000;  // traced section
  const size_t warm = 1'000;
  // [0, fixed + warm) warms the cache (and is the traced section); the
  // latency phase continues the log from there. The last sixth is kept
  // for the executor warm-up before the qps window.
  size_t cursor = fixed + warm;
  const size_t tail = stream.requests.size() - stream.requests.size() / 6;
  Log("corpus and stream ready");

  // --- setup: median of repeated builds; RSS from the first. ---
  std::unique_ptr<topk::QueryFrontend> frontend =
      RepeatedSetup(3, n, report, [&] { return Setup(store); });
  Log("setup done");

  SampleChecker checker(1000);
  auto account = [&](const MixedRequest& r, const ServeResponse& response) {
    report->CountStatus(response.status);
    checker.Offer(r, response.ids);
  };
  auto serve_batch = [&](size_t begin, size_t end, Statistics* stats,
                         topk::PhaseTimes* phases) {
    std::vector<ServeRequest> batch;
    for (size_t i = begin; i < end; ++i) {
      batch.push_back(ToServe(stream.requests[i]));
    }
    std::vector<ServeResponse> responses =
        frontend->ServeBatch(batch, stats, phases);
    for (size_t i = begin; i < end; ++i) {
      account(stream.requests[i], responses[i - begin]);
    }
    return responses;
  };

  // --- warm-up: the log's head, so later re-issues can hit. ---
  serve_batch(0, fixed + warm, nullptr, nullptr);
  Log("warm-up done");

  // --- latency: one closed-loop caller. ---
  Samples range_ms;
  const int64_t latency_end =
      NowNs() + static_cast<int64_t>(options.seconds * kLatencyShare * 1e9);
  RotateAcrossCpus(latency_end, [&] {
    if (cursor >= tail) return false;
    const size_t i = cursor++;
    const int64_t start = NowNs();
    serve_batch(i, i + 1, nullptr, nullptr);
    range_ms.Add(static_cast<double>(NowNs() - start) / 1e6);
    return true;
  });
  report->RangeLatency(range_ms);
  Log("latency phase done");

  const size_t latency_cursor = cursor;

  // --- qps: fixed-size batches over 3 executors, replaying the log from
  // its start on an emptied cache, so the distinct queries of the phase
  // fit the cache just as the latency phase's did. ---
  // The executor warm-up serves the log's tail, which no window reaches,
  // and its cache entries die with the invalidation.
  const int64_t warm_end =
      NowNs() + static_cast<int64_t>(kExecutorWarmupSeconds * 1e9);
  for (size_t i = tail; NowNs() < warm_end && i + kBatch <= stream.requests.size();
       i += kBatch) {
    serve_batch(i, i + kBatch, nullptr, nullptr);
  }
  frontend->InvalidateCaches();
  cursor = 0;
  const int64_t qps_start = NowNs();
  const int64_t qps_end =
      qps_start + static_cast<int64_t>(options.seconds * (1 - kLatencyShare) * 1e9);
  size_t completed = 0;
  while (NowNs() < qps_end && cursor + kBatch <= tail) {
    serve_batch(cursor, cursor + kBatch, nullptr, nullptr);
    cursor += kBatch;
    completed += kBatch;
  }
  const double qps_seconds = SecondsSince(qps_start);
  report->Metric("qps", static_cast<double>(completed) / qps_seconds, "req/s",
                 completed);
  report->Info("stream_used", static_cast<double>(cursor));
  // Each phase starts from an empty cache generation and serves a prefix
  // of the log; the longer prefix's distinct queries must fit the cache.
  {
    std::set<std::vector<topk::ItemId>> distinct;
    const size_t served = std::max(cursor, latency_cursor);
    for (size_t i = 0; i < served; ++i) {
      distinct.insert(stream.requests[i].query->ranking.items());
    }
    AddWorkingSet(report, store.size() * store.k() * sizeof(topk::ItemId) * 2,
                  distinct.size(), 64 * 1024);
  }
  Log("qps phase done");

  if (options.trace) {
    // Same fixed section twice, each from an empty cache generation so
    // hits come only from re-issues inside the section.
    frontend->InvalidateCaches();
    Samples plain_ms;
    for (size_t i = 0; i < fixed; ++i) {
      const int64_t start = NowNs();
      serve_batch(i, i + 1, nullptr, nullptr);
      plain_ms.Add(static_cast<double>(NowNs() - start) / 1e6);
    }
    frontend->InvalidateCaches();

    Tracer tracer(true);
    Samples traced_ms;
    Statistics stats;
    topk::PhaseTimes phases;
    double serve_self_ms = 0;
    for (size_t i = 0; i < fixed; ++i) {
      Statistics one;
      topk::PhaseTimes one_phases;
      const int32_t serve = tracer.Begin("serve", i);
      serve_batch(i, i + 1, &one, &one_phases);
      tracer.End(serve);
      const Span& span = tracer.spans()[static_cast<size_t>(serve)];
      const double ms = static_cast<double>(span.end_ns - span.start_ns) / 1e6;
      traced_ms.Add(ms);
      // The engine's own phase clocks run inside the serve span.
      serve_self_ms += std::max(0.0, ms - one_phases.total_ms());
      stats.MergeFrom(one);
      phases.MergeFrom(one_phases);
    }

    // Setup replay through the partitioning and index-build entry points.
    {
      const topk::EngineSuiteConfig config;
      topk::CoarseOptions coarse;
      coarse.theta_c = config.coarse_drop_theta_c;
      coarse.partitioner = config.coarse_partitioner;
      coarse.drop = topk::DropMode::kPositionRefined;
      const int32_t build = tracer.Begin("coarse.build", 0);
      topk::Partitioning partitioning;
      {
        ScopedSpan partition(&tracer, "cluster.partition", 0, build);
        partitioning = topk::BkPartition(
            store, topk::RawThreshold(coarse.theta_c, store.k()),
            topk::BkPartitionMode::kStrict);
      }
      const topk::CoarseIndex index = topk::CoarseIndex::BuildFromPartitioning(
          &store, coarse, std::move(partitioning));
      tracer.End(build);
      report->Info("coarse_partitions",
                   static_cast<double>(index.num_partitions()));
    }
    DumpSpans(options, {&tracer});

    auto get = [&stats](Ticker t) {
      return static_cast<double>(stats.Get(t));
    };
    const double hits = get(Ticker::kResultCacheHits);
    const double misses = get(Ticker::kResultCacheMisses);
    const double per_miss = misses == 0 ? 0 : 1.0 / misses;
    report->Layer("serve.self_ms", serve_self_ms / double(fixed), "ms");
    report->Layer("serve.result_cache_hit_ratio",
                  hits + misses == 0 ? 0 : hits / (hits + misses), "ratio");
    report->Layer("serve.result_cache_evictions",
                  get(Ticker::kResultCacheEvictions), "count");
    report->Layer("coarse.filter_ms", phases.filter_ms * per_miss, "ms");
    report->Layer("coarse.validate_ms", phases.validate_ms * per_miss, "ms");
    report->Layer("coarse.partitions_probed",
                  get(Ticker::kPartitionsProbed) * per_miss, "count");
    report->Layer("metric.tree_nodes_visited",
                  get(Ticker::kTreeNodesVisited) * per_miss, "count");
    const double results = get(Ticker::kResults);
    report->Layer("coarse.distance_calls_per_result",
                  results == 0 ? 0 : get(Ticker::kDistanceCalls) / results,
                  "ratio");
    report->Layer("coarse.build_s", tracer.TotalMs("coarse.build") / 1e3,
                  "s");
    report->Layer("cluster.partition_s",
                  tracer.TotalMs("cluster.partition") / 1e3, "s");
    report->Layer("trace.overhead_pct",
                  100.0 * (traced_ms.Quantile(0.5) / plain_ms.Quantile(0.5) -
                           1.0),
                  "%");
    AddCounts(stats, report);
    Log("traced passes done");
  }

  checker.Verify(store, report);
  Log("correctness gate done");
}

}  // namespace perfbench
