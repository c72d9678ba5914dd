// Query suggestion over a search-engine query log — the paper's
// introductory motivation: "finding historic queries by their result lists
// with respect to the currently issued query".
//
// We synthesize a query log's result rankings (NYT-like: skewed item
// popularity, popular queries re-issued many times) and serve a live
// query stream through the online frontend: whole queries are batched
// across a thread pool and re-issued queries hit the exact result cache
// — the shape of a production suggestion service, with bit-exact
// answers.
//
//   build/examples/query_suggestion

#include <algorithm>
#include <iostream>
#include <thread>

#include "topk.h"

int main() {
  using namespace topk;

  // 1. The query log: 30k historic top-10 result rankings.
  std::cout << "generating historic query-result rankings...\n";
  const RankingStore log = Generate(NytLikeOptions(30000, 10, 42));

  // 2. The serving frontend: per-executor Coarse engines over one shared
  //    index, fronted by the exact result cache.
  const size_t num_threads =
      std::max<size_t>(1, std::min<size_t>(
                              4, std::thread::hardware_concurrency()));
  QueryFrontendOptions options;
  options.num_threads = num_threads;
  QueryFrontend frontend(&log, options);

  Stopwatch build_watch;
  frontend.Prepare(Algorithm::kCoarse);
  std::cout << "coarse index over " << log.size()
            << " rankings built in "
            << FormatDouble(build_watch.ElapsedMillis() / 1000.0, 2)
            << " s, serving on " << frontend.num_threads() << " threads\n\n";

  // 3. The live stream: users re-issue popular queries constantly (60%
  //    of this stream re-issues earlier queries, Zipf-skewed), the rest
  //    are fresh or lightly edited result lists.
  WorkloadOptions wopts;
  wopts.num_queries = 2000;
  wopts.perturbed_fraction = 1.0;
  wopts.repeat_fraction = 0.6;
  wopts.seed = 7;
  const auto stream = MakeWorkload(log, wopts);

  const double theta = 0.2;  // how similar counts as "related"
  const RawDistance theta_raw = RawThreshold(theta, log.k());

  // Serve the whole stream as one batch (cold caches), then once more
  // warm — the steady state of a long-running suggestion service.
  std::vector<ServeRequest> requests;
  for (const PreparedQuery& query : stream) {
    requests.push_back(
        ServeRequest::Range(Algorithm::kCoarse, query, theta_raw));
  }
  Statistics cold_stats;
  Stopwatch cold_watch;
  const auto cold = frontend.ServeBatch(requests, &cold_stats);
  const double cold_ms = cold_watch.ElapsedMillis();

  Statistics warm_stats;
  Stopwatch warm_watch;
  const auto warm = frontend.ServeBatch(requests, &warm_stats);
  const double warm_ms = warm_watch.ElapsedMillis();

  const auto hit_rate = [&](const Statistics& stats) {
    return static_cast<double>(stats.Get(Ticker::kResultCacheHits)) /
           static_cast<double>(stream.size());
  };
  std::cout << "cold pass: " << FormatDouble(cold_ms, 1) << " ms for "
            << stream.size() << " queries ("
            << FormatDouble(100 * hit_rate(cold_stats), 1)
            << "% served from cache — within-stream re-issues)\n"
            << "warm pass: " << FormatDouble(warm_ms, 1) << " ms ("
            << FormatDouble(100 * hit_rate(warm_stats), 1)
            << "% served from cache, "
            << FormatDouble(warm_ms > 0 ? cold_ms / warm_ms : 0, 1)
            << "x faster, zero distance calls on hits)\n\n";

  // 4. Surface suggestions for a few live queries, straight from the
  //    (now warm) frontend.
  for (size_t i = 0; i < 3; ++i) {
    const auto& similar = warm[i].ids;
    std::cout << "query #" << i << ": " << similar.size()
              << " historic queries with result-list distance <= " << theta
              << (warm[i].result_cache_hit ? " (cache hit)" : "") << "\n";
    for (size_t s = 0; s < similar.size() && s < 3; ++s) {
      const RawDistance d = FootruleDistance(stream[i].sorted_view(),
                                             log.sorted(similar[s]));
      std::cout << "    suggestion " << s << ": historic ranking "
                << similar[s] << " at distance "
                << FormatDouble(NormalizeDistance(d, log.k()), 3) << "\n";
    }
  }
  return 0;
}
