// yago_live: 1M Yago-like rankings in MutableStore (background merge
// worker on) served through LiveFrontend under an open loop: two reader
// threads issue range queries at theta = 0.2 and one writer issues
// insert+delete pairs, each at a fixed offered rate well below
// saturation. Every request is timed from its due time, and the
// generator's lateness is reported beside it.

#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <thread>

#include "common.h"
#include "data/workload.h"
#include "metric/linear_scan.h"
#include "mutate/mutable_store.h"
#include "serve/live_frontend.h"

namespace perfbench {
namespace {

using topk::RankingId;

constexpr double kReadsPerSecond = 5000;
constexpr double kWriteOpsPerSecond = 2000;  // 1000 insert+delete pairs
constexpr size_t kReaders = 2;
/// Length of the traced open loop. The background worker's merge
/// threshold is set so the delta crosses it kTracedSealShare of the way
/// into this phase: the untraced window never holds a seal (every seal
/// stalls writers, and readers behind them, for 0.1 to 0.8 s while the
/// fresh delta regrows its item directory, which would make the window's
/// tail a count of seals), and the traced phase holds one background
/// seal -> rebuild -> install (two when --seconds is below 5, whose lower
/// threshold the phase's later inserts reach again), whose stall it reports
/// (mutate.seal_stall_ms). At 1M rankings the cycle ends within a second of
/// the seal, well inside the phase.
constexpr double kTracedSeconds = 6.0;
constexpr double kTracedSealShare = 0.2;
constexpr double kMergeWaitSeconds = 20.0;
constexpr double kTheta = 0.2;
/// Share of the run's seconds for the closed-loop single-caller reads
/// (the gated latency); the rest is the open loop.
constexpr double kClosedShare = 0.3;
constexpr size_t kClosedReadsMax = 400'000;
/// The traced run's extra closed loop, which measures tracing overhead.
constexpr double kTracedClosedSeconds = 1.0;
constexpr size_t kTracedClosedReadsMax = 60'000;
/// Untimed write ops before the window: the delta's item directory grows
/// on the first inserts.
constexpr size_t kWarmWriteOps = 1024;

/// Sleeps until shortly before `due_ns`, then spins. A sleeping thread's
/// wake-up on a VM is tens to hundreds of microseconds late and varies
/// with host load, which would swamp a 20 us read; generator threads also
/// run with a 1 ns timer slack (GeneratorThread) so the sleep part ends
/// close to its target and the spin stays short.
void WaitUntil(int64_t due_ns) {
  constexpr int64_t kSpinNs = 100'000;
  const int64_t now = NowNs();
  if (due_ns - now > kSpinNs) {
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(due_ns - now - kSpinNs));
  }
  while (NowNs() < due_ns) {
  }
}

/// Set on the open-loop writer thread.
thread_local bool tls_writer = false;

/// Marks the calling thread as an open-loop generator.
void GeneratorThread() { prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0); }

struct Live {
  Live() = default;
  Live(const Live&) = delete;
  Live& operator=(const Live&) = delete;
  std::unique_ptr<topk::MutableStore> store;
  std::unique_ptr<topk::LiveFrontend> frontend;
  ~Live() {
    // The frontend's listener must outlive the store's last mutation.
    store.reset();
    frontend.reset();
  }
};

/// Per-thread results of one open-loop phase.
struct Lane {
  explicit Lane(bool trace) : tracer(trace) {}
  Samples latency_ms;  // from due time
  Samples service_ms;  // from send time
  Samples lag_ms;      // send - due
  Tracer tracer;
  std::vector<RankingId> inserted;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t refused = 0;
  uint64_t replay_mismatch = 0;
  int64_t last_done = 0;
};

}  // namespace

void RunYagoLive(const RunOptions& options, Report* report) {
  const size_t n = 1'000'000;
  const topk::RankingStore corpus = YagoCorpus(n);
  const double seconds = options.seconds;
  const double traced_seconds = kTracedSeconds;
  const size_t reads_needed = static_cast<size_t>(
      kReadsPerSecond * (seconds + traced_seconds)) + kClosedReadsMax +
      kTracedClosedReadsMax + 2'000;
  const RequestStream reads = MakeMixedStream(
      corpus, options.seed, reads_needed, /*knn_every=*/0, {kTheta});
  const size_t pairs_needed =
      static_cast<size_t>(kWriteOpsPerSecond / 2 *
                          (seconds + traced_seconds)) +
      kWarmWriteOps + 1'000;
  topk::WorkloadOptions insert_options;
  insert_options.num_queries = pairs_needed;
  insert_options.seed = options.seed * 7919 + 13;
  const std::vector<topk::PreparedQuery> inserts =
      topk::MakeWorkload(corpus, insert_options);
  // Deletes retire distinct corpus rows: a stride permutation of [0, n).
  std::vector<RankingId> deletes(pairs_needed);
  for (size_t j = 0; j < pairs_needed; ++j) {
    deletes[j] = static_cast<RankingId>(
        (7919 * j + options.seed * 104729) % n);
  }
  Log("corpus and streams ready");

  // Installed merges are seen through the store's mutation listener: it
  // fires after every insert, delete and merge install, on the mutating
  // thread, so the bumps that do not come from the writer are merge
  // installs. Declared before the store, which holds the listener.
  std::mutex merge_mutex;
  std::vector<int64_t> merge_events;
  std::atomic<bool> record_merges{false};

  // --- setup: median of repeated store + frontend constructions. ---
  // Inserts before the traced phase: the warm-up's and the window's (the
  // even write ops). The delta reaches the threshold only in the traced
  // phase, so runs without --trace never seal.
  const double window_seconds = seconds * (1 - kClosedShare);
  const size_t window_ops =
      static_cast<size_t>(kWriteOpsPerSecond * window_seconds);
  const size_t traced_ops =
      static_cast<size_t>(kWriteOpsPerSecond * traced_seconds);
  topk::MutableStoreOptions store_options;
  store_options.merge_threshold =
      kWarmWriteOps / 2 + (window_ops + 1) / 2 +
      static_cast<size_t>(kTracedSealShare * double(traced_ops) / 2);
  report->Info("merge_threshold",
               static_cast<double>(store_options.merge_threshold));
  std::unique_ptr<Live> live = RepeatedSetup(9, n, report, [&] {
    auto made = std::make_unique<Live>();
    made->store = std::make_unique<topk::MutableStore>(corpus, store_options);
    made->frontend = std::make_unique<topk::LiveFrontend>(made->store.get());
    return made;
  });
  topk::MutableStore& store = *live->store;
  topk::LiveFrontend& frontend = *live->frontend;

  store.AddMutationListener([&] {
    if (!record_merges.load(std::memory_order_relaxed) || tls_writer) return;
    std::lock_guard<std::mutex> lock(merge_mutex);
    merge_events.push_back(NowNs());
  });

  size_t read_cursor = 0;
  size_t write_cursor = 0;
  std::vector<RankingId> warm_inserted;
  // --- warm-up, untimed: reads, then write pairs. ---
  {
    std::vector<RankingId> out;
    for (; read_cursor < 500; ++read_cursor) {
      const MixedRequest& r = reads.requests[read_cursor];
      frontend.ServeRange(*r.query, r.theta_raw, nullptr, &out);
    }
    for (; write_cursor < kWarmWriteOps; ++write_cursor) {
      if (write_cursor % 2 == 0) {
        warm_inserted.push_back(store.Insert(inserts[write_cursor / 2].view()));
      } else {
        store.Delete(deletes[write_cursor / 2]);
      }
    }
  }
  AddWorkingSet(report, corpus.size() * corpus.k() * sizeof(topk::ItemId) * 2,
                reads.requests.size(), 64 * 1024);
  Log("setup and warm-up done");

  // One open-loop phase of `phase_seconds`; `trace` adds spans and the
  // read replay through MutableStore::RangeQuery.
  auto run_phase = [&](double phase_seconds, bool trace,
                       std::vector<std::unique_ptr<Lane>>* lanes,
                       Samples* delta_sizes, Samples* tombstones,
                       Tracer* coordinator) {
    const size_t reads_in_phase =
        static_cast<size_t>(kReadsPerSecond * phase_seconds);
    const size_t writes_in_phase =
        static_cast<size_t>(kWriteOpsPerSecond * phase_seconds);
    const size_t read_base = read_cursor;
    const size_t write_base = write_cursor;
    for (size_t t = 0; t <= kReaders; ++t) {
      lanes->push_back(std::make_unique<Lane>(trace));
    }
    const int64_t start = NowNs() + 20'000'000;  // threads get going first
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kReaders; ++t) {
      threads.emplace_back([&, t] {
        GeneratorThread();
        Lane& lane = *(*lanes)[t];
        std::vector<RankingId> out, replay;
        for (size_t i = t; i < reads_in_phase; i += kReaders) {
          const MixedRequest& r = reads.requests[read_base + i];
          const int64_t due =
              start + static_cast<int64_t>(double(i) * 1e9 / kReadsPerSecond);
          WaitUntil(due);
          const int64_t send = NowNs();
          const uint64_t generation = store.generation();
          const int32_t span = lane.tracer.Begin("serve", read_base + i);
          const topk::Status status =
              frontend.ServeRange(*r.query, r.theta_raw, nullptr, &out);
          lane.tracer.End(span);
          const int64_t done = NowNs();
          ++lane.attempted;
          if (status.code() == topk::Status::Code::kUnavailable) {
            ++lane.refused;
          } else if (!status.ok()) {
            ++lane.failed;
          }
          lane.latency_ms.Add(double(done - due) / 1e6);
          lane.service_ms.Add(double(done - send) / 1e6);
          lane.lag_ms.Add(double(send - due) / 1e6);
          lane.last_done = done;
          if (trace) {
            {
              ScopedSpan read(&lane.tracer, "mutate.read", read_base + i,
                              span, /*replay=*/true);
              replay = store.RangeQuery(*r.query, r.theta_raw);
            }
            // Comparable only when no write landed in between.
            if (store.generation() == generation && replay != out) {
              ++lane.replay_mismatch;
            }
          }
        }
      });
    }
    threads.emplace_back([&] {
      GeneratorThread();
      tls_writer = true;
      Lane& lane = *(*lanes)[kReaders];
      for (size_t j = 0; j < writes_in_phase; ++j) {
        const size_t op = write_base + j;
        const int64_t due =
            start + static_cast<int64_t>(double(j) * 1e9 / kWriteOpsPerSecond);
        WaitUntil(due);
        const int64_t send = NowNs();
        ++lane.attempted;
        if (op % 2 == 0) {
          ScopedSpan span(&lane.tracer, "mutate.insert", op);
          lane.inserted.push_back(store.Insert(inserts[op / 2].view()));
        } else {
          ScopedSpan span(&lane.tracer, "mutate.delete", op);
          if (!store.Delete(deletes[op / 2])) ++lane.failed;
        }
        const int64_t done = NowNs();
        lane.latency_ms.Add(double(done - due) / 1e6);
        lane.service_ms.Add(double(done - send) / 1e6);
        lane.lag_ms.Add(double(send - due) / 1e6);
        lane.last_done = done;
      }
    });
    record_merges.store(true);
    if (trace) {
      // The coordinating thread samples the gauges every 10 ms. The
      // background worker's seal shows as the delta shrinking; the merge
      // span runs from the sample that sees it to the install (the
      // listener's event), so it is late by at most one sample period.
      const int64_t end =
          start + static_cast<int64_t>(phase_seconds * 1e9);
      size_t last_delta = store.delta_size();
      int32_t merge_span = -1;
      size_t installs_at_seal = 0;
      auto installs = [&] {
        std::lock_guard<std::mutex> lock(merge_mutex);
        return merge_events.size();
      };
      auto installed = [&] { return installs() > installs_at_seal; };
      while (NowNs() < end) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        const size_t delta = store.delta_size();
        delta_sizes->Add(static_cast<double>(delta));
        tombstones->Add(static_cast<double>(store.tombstone_count()));
        if (merge_span < 0 && delta < last_delta) {
          installs_at_seal = installs();
          merge_span = coordinator->Begin("mutate.merge", 0);
        }
        if (merge_span >= 0 && installed()) {
          coordinator->End(merge_span);
          merge_span = -1;
        }
        last_delta = delta;
      }
      // A rebuild still running at the end of the phase is waited for, up
      // to kMergeWaitSeconds; a merge that never installs (a failing
      // rebuild retries, then gives up) fails the run.
      const int64_t wait_end =
          end + static_cast<int64_t>(kMergeWaitSeconds * 1e9);
      while (merge_span >= 0 && !installed() && NowNs() < wait_end) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      if (merge_span >= 0 && !installed()) {
        Log("background merge did not install");
        ++report->attempted;
        ++report->failed;
      }
      coordinator->End(merge_span);
    }
    for (std::thread& thread : threads) thread.join();
    record_merges.store(false);
    read_cursor += reads_in_phase;
    write_cursor += writes_in_phase;
    int64_t last_done = start;
    for (const auto& lane : *lanes) {
      last_done = std::max(last_done, lane->last_done);
    }
    const uint64_t completed = reads_in_phase + writes_in_phase;
    return static_cast<double>(completed) / (double(last_done - start) / 1e9);
  };

  auto merge = [](const std::vector<std::unique_ptr<Lane>>& lanes,
                  size_t begin, size_t end, Samples Lane::*field) {
    Samples merged;
    for (size_t t = begin; t < end; ++t) merged.Append((*lanes[t]).*field);
    return merged;
  };
  auto account = [&](const std::vector<std::unique_ptr<Lane>>& lanes) {
    for (const auto& lane : lanes) {
      report->attempted += lane->attempted;
      report->failed += lane->failed;
      report->refused += lane->refused;
    }
  };
  std::vector<RankingId> inserted = warm_inserted;

  // --- the measured open loop. ---
  std::vector<std::unique_ptr<Lane>> lanes;
  Samples unused_delta, unused_tombstones;
  Tracer untraced(false);
  const double qps =
      run_phase(window_seconds, false, &lanes, &unused_delta,
                &unused_tombstones, &untraced);
  account(lanes);
  for (const auto& lane : lanes) {
    inserted.insert(inserted.end(), lane->inserted.begin(),
                    lane->inserted.end());
  }
  const Samples read_latency = merge(lanes, 0, kReaders, &Lane::latency_ms);
  const Samples write_latency =
      merge(lanes, kReaders, kReaders + 1, &Lane::latency_ms);
  const Samples lag = merge(lanes, 0, kReaders + 1, &Lane::lag_ms);
  report->Layer("live_read_p50_ms", read_latency.Quantile(0.5), "ms",
                read_latency.size());
  report->Layer("live_read_p90_ms", read_latency.Quantile(0.9), "ms",
                read_latency.size());
  report->Layer("live_read_p99_ms", read_latency.Quantile(0.99), "ms",
                read_latency.size());
  report->Metric("qps", qps, "req/s",
                 read_latency.size() + write_latency.size());
  report->Layer("write_p50_ms", write_latency.Quantile(0.5), "ms",
                write_latency.size());
  report->Layer("write_p99_ms", write_latency.Quantile(0.99), "ms",
                write_latency.size());
  report->Layer("mutate.generator_lag_ms", lag.Quantile(0.5), "ms");
  report->Layer("mutate.generator_lag_p99_ms", lag.Quantile(0.99), "ms");
  report->Info("write_samples", static_cast<double>(write_latency.size()));
  {
    std::lock_guard<std::mutex> lock(merge_mutex);
    report->Info("merge_events", static_cast<double>(merge_events.size()));
  }
  Log("open loop done");

  // --- closed-loop reads: one caller on the store the window left behind
  // (its delta and tombstones still unmerged), writer stopped. With a
  // tracer, each read gets a serve span and a replay through
  // MutableStore::RangeQuery, which must return the served answer. ---
  auto closed_loop = [&](double phase_seconds, size_t max_reads,
                         Tracer* tracer) {
    Samples range_ms;
    std::vector<RankingId> out;
    const int64_t end =
        NowNs() + static_cast<int64_t>(phase_seconds * 1e9);
    const size_t last =
        std::min(reads.requests.size(), read_cursor + max_reads);
    RotateAcrossCpus(end, [&] {
      if (read_cursor >= last) return false;
      const uint64_t request = read_cursor;
      const MixedRequest& r = reads.requests[read_cursor++];
      const int32_t span = tracer->Begin("serve", request);
      const int64_t start = NowNs();
      const topk::Status status =
          frontend.ServeRange(*r.query, r.theta_raw, nullptr, &out);
      range_ms.Add(double(NowNs() - start) / 1e6);
      tracer->End(span);
      report->CountStatus(status);
      if (tracer->enabled()) {
        ScopedSpan replay(tracer, "mutate.read", request, span, true);
        if (store.RangeQuery(*r.query, r.theta_raw) != out) ++report->wrong;
      }
      return true;
    });
    return range_ms;
  };
  const Samples closed_ms =
      closed_loop(seconds * kClosedShare, kClosedReadsMax, &untraced);
  report->RangeLatency(closed_ms);
  Log("closed-loop reads done");

  Samples loaded_reads, loaded_writes;
  if (options.trace) {
    // Tracing overhead: the same closed loop, traced, on the same quiet
    // store (fresh reads, so the result cache still never hits).
    Tracer quiet(true);
    const Samples traced_closed_ms =
        closed_loop(kTracedClosedSeconds, kTracedClosedReadsMax, &quiet);
    report->Layer("trace.overhead_pct",
                  100.0 * (traced_closed_ms.Quantile(0.5) /
                               closed_ms.Quantile(0.5) -
                           1.0),
                  "%", traced_closed_ms.size());
    {
      std::lock_guard<std::mutex> lock(merge_mutex);
      merge_events.clear();
    }
    std::vector<std::unique_ptr<Lane>> traced;
    Samples delta_sizes, tombstones;
    Tracer coordinator(true);
    run_phase(traced_seconds, true, &traced, &delta_sizes, &tombstones,
              &coordinator);
    account(traced);
    for (const auto& lane : traced) {
      inserted.insert(inserted.end(), lane->inserted.begin(),
                      lane->inserted.end());
      report->wrong += lane->replay_mismatch;
    }
    loaded_reads = merge(traced, 0, kReaders, &Lane::service_ms);
    loaded_writes = merge(traced, kReaders, kReaders + 1, &Lane::service_ms);
    // Per-call figures are medians over the phase's spans: the few calls
    // caught behind the seal stall (hundreds of ms) would dominate means.
    std::vector<const Tracer*> tracers = {&quiet, &coordinator};
    Samples serve_ms, read_ms, insert_ms, delete_ms;
    for (const auto& lane : traced) {
      tracers.push_back(&lane->tracer);
      serve_ms.Append(lane->tracer.DurationsMs("serve"));
      read_ms.Append(lane->tracer.DurationsMs("mutate.read"));
      insert_ms.Append(lane->tracer.DurationsMs("mutate.insert"));
      delete_ms.Append(lane->tracer.DurationsMs("mutate.delete"));
    }
    DumpSpans(options, tracers);
    report->Layer("mutate.read_ms", read_ms.Quantile(0.5), "ms",
                  read_ms.size());
    // The frontend's own share of a read: the served call against its
    // replay through MutableStore::RangeQuery alone.
    report->Layer("serve.self_ms",
                  serve_ms.Quantile(0.5) - read_ms.Quantile(0.5), "ms",
                  serve_ms.size());
    report->Layer("mutate.insert_ms", insert_ms.Quantile(0.5), "ms",
                  insert_ms.size());
    report->Layer("mutate.delete_ms", delete_ms.Quantile(0.5), "ms",
                  delete_ms.size());
    report->Layer("mutate.seal_stall_ms", loaded_writes.Quantile(1.0), "ms");
    report->Layer("mutate.delta_size", delta_sizes.Mean(), "count");
    report->Layer("mutate.tombstones", tombstones.Mean(), "count");
    {
      // The listener fires once per installed merge; the background
      // cycle's seal -> rebuild -> install is the coordinator's
      // mutate.merge span.
      std::lock_guard<std::mutex> lock(merge_mutex);
      report->Layer("mutate.merges", static_cast<double>(merge_events.size()),
                    "count");
      size_t cycles = 0;
      const double merge_ms = coordinator.TotalMs("mutate.merge", &cycles);
      report->Layer("mutate.merge_s",
                    cycles == 0 ? 0 : merge_ms / double(cycles) / 1e3, "s",
                    cycles);
    }
    Log("traced phase done");
  }

  // --- quiesce: writer stopped; fold every delta and tombstone in. ---
  store.MergeNow();
  std::vector<RankingId> out;
  if (options.trace) {
    // Waiting: reads of the traced phase again, alone on the quiesced
    // store, against their service time under load (medians: the seal
    // stall would dominate a mean).
    Samples alone;
    const size_t traced_reads =
        static_cast<size_t>(kReadsPerSecond * traced_seconds);
    for (size_t i = 0; i < traced_reads; i += 10) {
      const MixedRequest& r = reads.requests[read_cursor - 1 - i];
      const int64_t start = NowNs();
      frontend.ServeRange(*r.query, r.theta_raw, nullptr, &out);
      alone.Add(double(NowNs() - start) / 1e6);
    }
    report->Layer("mutate.wait_ms",
                  loaded_reads.Quantile(0.5) - alone.Quantile(0.5), "ms");
  }

  // --- correctness gate: served answers on the quiesced store against
  // brute force over the alive rows. ---
  {
    std::vector<bool> dead(n, false);
    for (size_t op = 1; op < write_cursor; op += 2) dead[deletes[op / 2]] = true;
    topk::RankingStore alive(corpus.k());
    std::vector<RankingId> global;
    for (size_t id = 0; id < n; ++id) {
      if (dead[id]) continue;
      alive.AddUnchecked(corpus.view(static_cast<RankingId>(id)).items());
      global.push_back(static_cast<RankingId>(id));
    }
    for (size_t p = 0; p < inserted.size(); ++p) {
      alive.AddUnchecked(inserts[p].ranking.items());
      global.push_back(inserted[p]);
    }
    const size_t step = std::max<size_t>(1, read_cursor / 24);
    for (size_t i = 500; i < read_cursor; i += step) {
      const MixedRequest& r = reads.requests[i];
      const topk::Status status =
          frontend.ServeRange(*r.query, r.theta_raw, nullptr, &out);
      report->CountStatus(status);
      std::vector<RankingId> expected =
          topk::LinearScanQuery(alive, *r.query, r.theta_raw);
      for (RankingId& id : expected) id = global[id];
      ++report->checked;
      if (expected != out) ++report->wrong;
    }
  }
  Log("correctness gate done");

  if (options.trace) {
    // Writes alone, after the gate (they mutate the store). The first
    // insert after the quiescing merge regrows the delta directory; the
    // medians keep that one stall out, as above.
    Samples alone;
    for (size_t j = 0; j < 200; ++j) {
      int64_t start = NowNs();
      const RankingId id = store.Insert(inserts[j].view());
      alone.Add(double(NowNs() - start) / 1e6);
      start = NowNs();
      store.Delete(id);
      alone.Add(double(NowNs() - start) / 1e6);
    }
    report->Layer("mutate.write_wait_ms",
                  loaded_writes.Quantile(0.5) - alone.Quantile(0.5), "ms");
  }
}

}  // namespace perfbench
