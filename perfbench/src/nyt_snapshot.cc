// nyt_snapshot: the nyt_ram corpus written (untimed) as one TOPKSNP2
// snapshot generation, opened through ResilientReader::OpenSnapshotTier
// and served from the mmap'd compressed tier with the nyt_ram range mix
// (theta from {0.1, 0.2, 0.3}, no k-NN: the reader serves range queries
// only). Latency: one closed-loop caller. qps: 3 closed-loop callers,
// which the reader's mutex serializes.

#include <atomic>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "common.h"
#include "invidx/drop_policy.h"
#include "invidx/plain_inverted_index.h"
#include "serve/resilient_reader.h"
#include "storage/compressed_arena.h"
#include "storage/compressed_index.h"
#include "storage/snapshot_manager.h"

namespace perfbench {
namespace {

using topk::Statistics;
using topk::Ticker;

constexpr size_t kCallers = 3;
/// The drop mode of ResilientReader's snapshot path (plain F&V). The
/// storage replays use it too, so they decode the lists the served
/// request decodes; they must follow any change to the reader's mode.
constexpr topk::DropMode kReaderDrop = topk::DropMode::kNone;

}  // namespace

void RunNytSnapshot(const RunOptions& options, Report* report) {
  const size_t n = 1'000'000;
  const topk::RankingStore store = NytCorpus(n);
  const RequestStream stream = MakeMixedStream(
      store, options.seed, 12'000, /*knn_every=*/0);
  const size_t fixed = 300;  // traced section
  const size_t warm = 100;
  std::atomic<size_t> cursor{fixed + warm};

  // --- untimed: write generation 1 of the snapshot directory. ---
  const std::string dir = options.work_dir + "/snapshot-nyt";
  std::filesystem::remove_all(dir);
  size_t file_bytes = 0;
  {
    const topk::PlainInvertedIndex plain =
        topk::PlainInvertedIndex::Build(store);
    const auto arena =
        topk::storage::CompressedPostingArena<topk::RankingId>::FromArena(
            plain.arena());
    topk::storage::SnapshotManager manager(dir);
    const topk::Status written = manager.WriteSnapshot(store, arena);
    if (!written.ok()) {
      Log("snapshot write failed: " + written.ToString());
      ++report->attempted;
      ++report->failed;
      return;
    }
    file_bytes = std::filesystem::file_size(manager.GenerationPath(1));
  }
  Log("snapshot written");

  // --- setup: median of repeated opens; RSS from the first. ---
  std::unique_ptr<topk::ResilientReader> reader =
      RepeatedSetup(5, n, report, [&]() -> std::unique_ptr<topk::ResilientReader> {
        auto made = std::make_unique<topk::ResilientReader>(
            &store, topk::ResilientReaderOptions{dir, 3});
        const topk::Status opened = made->OpenSnapshotTier();
        if (!opened.ok()) {
          Log("snapshot open failed: " + opened.ToString());
          return nullptr;
        }
        return made;
      });
  if (reader == nullptr) {
    ++report->attempted;
    ++report->failed;
    return;
  }
  Log("setup done");

  SampleChecker checker(100);
  std::mutex account_mutex;
  auto serve = [&](const MixedRequest& r, std::vector<topk::RankingId>* out,
                   Statistics* stats = nullptr) {
    const topk::Status status =
        reader->RangeQuery(*r.query, r.theta_raw, nullptr, out, stats);
    std::lock_guard<std::mutex> lock(account_mutex);
    report->CountStatus(status);
    checker.Offer(r, *out);
  };

  // --- warm-up, untimed. ---
  std::vector<topk::RankingId> out;
  for (size_t i = fixed; i < fixed + warm; ++i) serve(stream.requests[i], &out);
  AddWorkingSet(report, file_bytes, stream.requests.size(), 0);
  Log("warm-up done");

  // --- latency: one closed-loop caller. ---
  Samples range_ms;
  const int64_t latency_end =
      NowNs() + static_cast<int64_t>(options.seconds * kLatencyShare * 1e9);
  RotateAcrossCpus(latency_end, [&] {
    if (cursor >= stream.requests.size()) return false;
    const MixedRequest& r = stream.requests[cursor++];
    const int64_t start = NowNs();
    serve(r, &out);
    range_ms.Add(static_cast<double>(NowNs() - start) / 1e6);
    return true;
  });
  report->RangeLatency(range_ms);
  Log("latency phase done");

  // --- qps: 3 closed-loop callers for the rest of the run. ---
  // The callers serve untimed until qps_start (executor warm-up).
  std::atomic<size_t> completed{0};
  const int64_t qps_start =
      NowNs() + static_cast<int64_t>(kExecutorWarmupSeconds * 1e9);
  const int64_t qps_end =
      qps_start + static_cast<int64_t>(options.seconds * (1 - kLatencyShare) * 1e9);
  {
    std::vector<std::thread> callers;
    for (size_t c = 0; c < kCallers; ++c) {
      callers.emplace_back([&] {
        std::vector<topk::RankingId> answer;
        while (NowNs() < qps_end) {
          const size_t i = cursor.fetch_add(1);
          if (i >= stream.requests.size()) break;
          const bool timed = NowNs() >= qps_start;
          serve(stream.requests[i], &answer);
          if (timed) completed.fetch_add(1);
        }
      });
    }
    for (std::thread& caller : callers) caller.join();
  }
  const double qps_seconds = SecondsSince(qps_start);
  report->Metric("qps", static_cast<double>(completed) / qps_seconds, "req/s",
                 completed);
  report->Info("stream_used", static_cast<double>(cursor.load()));
  Log("qps phase done");

  if (options.trace) {
    Samples plain_ms;
    for (size_t i = 0; i < fixed; ++i) {
      const int64_t start = NowNs();
      serve(stream.requests[i], &out);
      plain_ms.Add(static_cast<double>(NowNs() - start) / 1e6);
    }

    // Replay handles: the same generation opened again through the
    // storage layer's own entry point.
    std::vector<double> opens;
    std::optional<topk::storage::OpenedSnapshot> opened;
    for (int rep = 0; rep < 3; ++rep) {
      opened.reset();
      topk::storage::SnapshotManager manager(dir);
      const int64_t start = NowNs();
      auto result = manager.OpenNewestValid();
      opens.push_back(SecondsSince(start));
      if (!result.ok()) {
        ++report->failed;
        return;
      }
      opened.emplace(std::move(result).ValueOrDie());
    }
    const topk::storage::StoreSnapshot& snapshot = opened->snapshot;
    topk::storage::CompressedFilterValidateEngine engine(
        &snapshot.store(), &snapshot.index(),
        topk::storage::CompressedEngineOptions{kReaderDrop});
    std::vector<topk::RankingId> landing;

    Tracer tracer(true);
    Samples traced_ms;
    Statistics served;
    for (size_t i = 0; i < fixed; ++i) {
      const MixedRequest& r = stream.requests[i];
      Statistics stats;
      const int32_t root = tracer.Begin("serve", i);
      serve(r, &out, &stats);
      tracer.End(root);
      const Span& span = tracer.spans()[static_cast<size_t>(root)];
      traced_ms.Add(static_cast<double>(span.end_ns - span.start_ns) / 1e6);
      served.MergeFrom(stats);

      const int32_t engine_span =
          tracer.Begin("storage.engine", i, root, /*replay=*/true);
      const std::vector<topk::RankingId> answer =
          engine.Query(*r.query, r.theta_raw);
      tracer.End(engine_span);
      if (answer != out) ++report->wrong;
      // The lists the served path decodes: the reader's filter keeps what
      // SelectLists keeps and decodes each list whole through DecodeList.
      const topk::RankingView query = r.query->view();
      for (const uint32_t position : topk::SelectLists(
               query, r.theta_raw, kReaderDrop,
               [&](topk::ItemId item) {
                 return snapshot.index().list_length(item);
               })) {
        ScopedSpan decode(&tracer, "storage.decode", i, engine_span, true);
        snapshot.index().DecodeList(query[position], &landing);
      }
    }
    DumpSpans(options, {&tracer});

    const double per_query = 1.0 / static_cast<double>(fixed);
    auto get = [](const Statistics& s, Ticker t) {
      return static_cast<double>(s.Get(t));
    };
    const double candidates = get(served, Ticker::kCandidates);
    report->Layer("serve.self_ms", tracer.SelfMs("serve") * per_query, "ms");
    report->Layer("storage.engine_ms",
                  tracer.TotalMs("storage.engine") * per_query, "ms");
    report->Layer("storage.decode_ms",
                  tracer.TotalMs("storage.decode") * per_query, "ms");
    report->Layer("storage.open_s", Median(opens), "s");
    report->Layer("storage.resident_bytes",
                  static_cast<double>(snapshot.ResidentBytes()), "B");
    report->Layer("storage.mapped_bytes",
                  static_cast<double>(snapshot.mapped_bytes()), "B");
    report->Layer("kernel.candidates", candidates * per_query, "count");
    report->Layer("kernel.results_per_candidate",
                  candidates == 0 ? 0 : get(served, Ticker::kResults) / candidates,
                  "ratio");
    report->Layer("kernel.distance_calls",
                  get(served, Ticker::kDistanceCalls) * per_query, "count");
    report->Layer("invidx.postings_scanned",
                  get(served, Ticker::kPostingEntriesScanned) * per_query,
                  "count");
    report->Layer("trace.overhead_pct",
                  100.0 * (traced_ms.Quantile(0.5) / plain_ms.Quantile(0.5) -
                           1.0),
                  "%");
    AddCounts(served, report);
    Log("traced passes done");
  }

  checker.Verify(store, report);
  reader.reset();
  std::filesystem::remove_all(dir);
  Log("correctness gate done");
}

}  // namespace perfbench
