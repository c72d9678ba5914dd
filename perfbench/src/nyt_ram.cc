// nyt_ram: 1M NYT-like rankings in the RAM CSR tier behind QueryFrontend.
//
// Requests are F&V+Drop range queries (theta drawn from {0.1, 0.2, 0.3})
// with about one in 20 a LinearScan k-NN (j = 10), over a stream with no
// exact repeats, so the result cache never hits. Latency: one closed-loop
// caller sending one-request batches. qps: one caller sending fixed-size
// batches that the frontend spreads over 3 executors.

#include <algorithm>
#include <memory>
#include <span>

#include "common.h"
#include "invidx/drop_policy.h"
#include "kernel/filter_phase.h"
#include "kernel/footrule_batch.h"
#include "metric/knn.h"
#include "serve/frontend.h"

namespace perfbench {
namespace {

using topk::Algorithm;
using topk::ServeRequest;
using topk::ServeResponse;
using topk::Statistics;
using topk::Ticker;

constexpr size_t kExecutors = 3;
constexpr size_t kBatch = 240;  // twelve k-NN per batch

std::unique_ptr<topk::QueryFrontend> Setup(const topk::RankingStore& store) {
  topk::QueryFrontendOptions options;
  options.num_threads = kExecutors;
  auto frontend = std::make_unique<topk::QueryFrontend>(&store, options);
  frontend->Prepare(Algorithm::kFVDrop);
  frontend->Prepare(Algorithm::kLinearScan);
  return frontend;
}

ServeRequest ToServe(const MixedRequest& r) {
  return r.knn ? ServeRequest::Knn(Algorithm::kLinearScan, *r.query, r.j)
               : ServeRequest::Range(Algorithm::kFVDrop, *r.query,
                                     r.theta_raw);
}

}  // namespace

void RunNytRam(const RunOptions& options, Report* report) {
  const size_t n = 1'000'000;
  const topk::RankingStore store = NytCorpus(n);
  Log("corpus ready");
  const RequestStream stream =
      MakeMixedStream(store, options.seed, 14'000,
                      /*knn_every=*/20);
  const size_t fixed = 400;  // traced section
  const size_t warm = 300;
  size_t cursor = fixed + warm;
  Log("stream ready");

  // --- setup: median of repeated constructions; RSS from the first. ---
  std::unique_ptr<topk::QueryFrontend> frontend =
      RepeatedSetup(7, n, report, [&] { return Setup(store); });
  AddWorkingSet(report,
                store.size() * store.k() * sizeof(topk::ItemId) * 2,
                stream.requests.size(), 64 * 1024);
  Log("setup done");

  SampleChecker checker(/*every=*/100);
  auto serve_one = [&](const MixedRequest& r) {
    const ServeRequest request = ToServe(r);
    auto responses = frontend->ServeBatch(std::span(&request, 1));
    return std::move(responses[0]);
  };
  auto account = [&](const MixedRequest& r, const ServeResponse& response) {
    report->CountStatus(response.status);
    checker.Offer(r, response.ids, response.neighbors);
  };

  // --- warm-up: a few batches plus single requests, untimed. ---
  {
    std::vector<ServeRequest> batch;
    for (size_t i = fixed; i < fixed + warm; ++i) {
      batch.push_back(ToServe(stream.requests[i]));
    }
    frontend->ServeBatch(batch);
  }
  Log("warm-up done");

  // --- latency: one closed-loop caller for the first share of the run. ---
  Samples range_ms, knn_ms;
  const int64_t latency_end =
      NowNs() + static_cast<int64_t>(options.seconds * kLatencyShare * 1e9);
  RotateAcrossCpus(latency_end, [&] {
    if (cursor >= stream.requests.size()) return false;
    const MixedRequest& r = stream.requests[cursor++];
    const int64_t start = NowNs();
    ServeResponse response = serve_one(r);
    const double ms = static_cast<double>(NowNs() - start) / 1e6;
    (r.knn ? knn_ms : range_ms).Add(ms);
    account(r, response);
    return true;
  });
  report->RangeLatency(range_ms);
  const size_t latency_requests = range_ms.size() + knn_ms.size();
  Log("latency phase done");

  // --- qps: fixed-size batches over 3 executors for the rest, after an
  // untimed executor warm-up. ---
  auto serve_batch = [&] {
    if (cursor + kBatch > stream.requests.size()) return false;
    std::vector<ServeRequest> batch;
    for (size_t i = 0; i < kBatch; ++i) {
      batch.push_back(ToServe(stream.requests[cursor + i]));
    }
    const std::vector<ServeResponse> responses = frontend->ServeBatch(batch);
    for (size_t i = 0; i < kBatch; ++i) {
      account(stream.requests[cursor + i], responses[i]);
    }
    cursor += kBatch;
    return true;
  };
  const int64_t warm_end =
      NowNs() + static_cast<int64_t>(kExecutorWarmupSeconds * 1e9);
  while (NowNs() < warm_end && serve_batch()) {
  }
  const int64_t qps_start = NowNs();
  const int64_t qps_end =
      qps_start + static_cast<int64_t>(options.seconds * (1 - kLatencyShare) * 1e9);
  size_t completed = 0;
  while (NowNs() < qps_end && serve_batch()) completed += kBatch;
  const double qps_seconds = SecondsSince(qps_start);
  report->Metric("qps", static_cast<double>(completed) / qps_seconds, "req/s",
                 completed);
  report->Info("latency_requests", static_cast<double>(latency_requests));
  report->Info("stream_used", static_cast<double>(cursor));

  // k-NN latency is specific to this workload: a layer-table metric.
  report->Layer("knn_p50_ms", knn_ms.Quantile(0.5), "ms", knn_ms.size());
  report->Layer("knn_p90_ms", knn_ms.Quantile(0.9), "ms", knn_ms.size());

  Log("qps phase done");
  if (options.trace) {
    // Untraced then traced pass over the same fixed section; the caches
    // are invalidated between them so both passes miss alike.
    frontend->InvalidateCaches();
    Samples plain_ms;
    for (size_t i = 0; i < fixed; ++i) {
      const MixedRequest& r = stream.requests[i];
      const int64_t start = NowNs();
      ServeResponse response = serve_one(r);
      plain_ms.Add(static_cast<double>(NowNs() - start) / 1e6);
      account(r, response);
    }
    frontend->InvalidateCaches();

    Tracer tracer(true);
    Samples traced_ms;
    Statistics range_stats, knn_stats;
    size_t ranges = 0, knns = 0;
    topk::FilterScratch scratch;
    topk::FootruleValidator validator;
    const topk::PlainInvertedIndex& index = frontend->suite().plain_index();
    std::vector<topk::RankingId> replayed;
    for (size_t i = 0; i < fixed; ++i) {
      const MixedRequest& r = stream.requests[i];
      const ServeRequest request = ToServe(r);
      Statistics stats;
      const int32_t serve = tracer.Begin("serve", i);
      std::vector<ServeResponse> responses =
          frontend->ServeBatch(std::span(&request, 1), &stats);
      tracer.End(serve);
      const auto& span = tracer.spans()[static_cast<size_t>(serve)];
      traced_ms.Add(static_cast<double>(span.end_ns - span.start_ns) / 1e6);
      account(r, responses[0]);
      bool same = true;
      if (r.knn) {
        ++knns;
        knn_stats.MergeFrom(stats);
        ScopedSpan scan(&tracer, "metric.knn_scan", i, serve, true);
        same = topk::LinearScanKnn(store, *r.query, r.j) ==
               responses[0].neighbors;
      } else {
        ++ranges;
        range_stats.MergeFrom(stats);
        std::span<const topk::RankingId> candidates;
        {
          ScopedSpan filter(&tracer, "kernel.filter", i, serve, true);
          candidates = topk::FilterPhase(
              index, r.query->view(), r.theta_raw,
              topk::DropMode::kPositionRefined, store.size(), &scratch);
        }
        {
          ScopedSpan validate(&tracer, "kernel.validate", i, serve, true);
          replayed.clear();
          validator.BindQuery(r.query->view(),
                              static_cast<size_t>(store.max_item()) + 1);
          validator.ValidateSpan(store, candidates, r.theta_raw, &replayed,
                                 nullptr);
          std::sort(replayed.begin(), replayed.end());
        }
        same = replayed == responses[0].ids;
      }
      if (!same) ++report->wrong;
    }
    DumpSpans(options, {&tracer});

    const double per_range = ranges == 0 ? 0 : 1.0 / double(ranges);
    const double per_knn = knns == 0 ? 0 : 1.0 / double(knns);
    auto get = [](const Statistics& s, Ticker t) {
      return static_cast<double>(s.Get(t));
    };
    const double candidates = get(range_stats, Ticker::kCandidates);
    const double validate_ms = tracer.TotalMs("kernel.validate");
    report->Layer("serve.self_ms", tracer.SelfMs("serve") / double(fixed),
                  "ms");
    report->Layer("kernel.filter_ms",
                  tracer.TotalMs("kernel.filter") * per_range, "ms");
    report->Layer("kernel.validate_ms", validate_ms * per_range, "ms");
    report->Layer("kernel.validate_ns_per_candidate",
                  candidates == 0 ? 0 : validate_ms * 1e6 / candidates, "ns");
    report->Layer("kernel.candidates", candidates * per_range, "count");
    report->Layer("kernel.results_per_candidate",
                  candidates == 0
                      ? 0
                      : get(range_stats, Ticker::kResults) / candidates,
                  "ratio");
    report->Layer("kernel.distance_calls",
                  get(range_stats, Ticker::kDistanceCalls) * per_range,
                  "count");
    report->Layer("invidx.postings_scanned",
                  get(range_stats, Ticker::kPostingEntriesScanned) * per_range,
                  "count");
    report->Layer("invidx.lists_dropped",
                  get(range_stats, Ticker::kListsDropped) * per_range,
                  "count");
    report->Layer("metric.knn_scan_ms",
                  tracer.TotalMs("metric.knn_scan") * per_knn, "ms");
    report->Layer("metric.knn_distance_calls",
                  get(knn_stats, Ticker::kDistanceCalls) * per_knn, "count");
    const Statistics all = topk::Merge(range_stats, knn_stats);
    const double hits = get(all, Ticker::kResultCacheHits);
    const double misses = get(all, Ticker::kResultCacheMisses);
    report->Layer("serve.result_cache_hit_ratio",
                  hits + misses == 0 ? 0 : hits / (hits + misses), "ratio");
    report->Layer("serve.result_cache_evictions",
                  get(all, Ticker::kResultCacheEvictions), "count");
    report->Layer("trace.overhead_pct",
                  100.0 * (traced_ms.Quantile(0.5) / plain_ms.Quantile(0.5) -
                           1.0),
                  "%");
    AddCounts(all, report);
    report->Count("requests.range", ranges);
    report->Count("requests.knn", knns);
  }

  Log("traced passes done");
  // --- correctness gate: sampled answers against brute force. ---
  checker.Verify(store, report);
  Log("correctness gate done");
}

}  // namespace perfbench
