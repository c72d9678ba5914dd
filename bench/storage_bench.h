// The `storage` benchmark section: the compressed storage tier and the
// mmap snapshot load path, shared by the standalone bench_storage binary
// and bench_baseline (which embeds the section into BENCH_baseline.json).
//
// Four experiments per dataset over storage/, after one that needs no
// dataset:
//
//   checksum_throughput  snapshot checksum speed (SnapshotChecksum, the
//                      CRC32C of storage/crc32c.h) over a 64 MB seeded
//                      buffer — the dispatched body vs the scalar
//                      slicing-by-8 twin, GB/s, with the two values
//                      compared for bit identity.
//   compress           posting-arena footprint: uncompressed CSR bytes vs
//                      the block-encoded arena (bytes/entry, ratio,
//                      encode time).
//   decode_throughput  raw block-decode speed over the arena's byte
//                      stream — the scalar group loop vs the dispatched
//                      SIMD backend (storage/varint_simd.h), GB/s and
//                      entries/ns, with the two verified bit-identical
//                      before timing.
//   query              mean query latency through the serving tiers —
//                      RAM uncompressed, RAM compressed, mmap cold (page
//                      cache evicted), mmap warm — every tier checked
//                      bit-exact against the RAM baseline.
//   snapshot           the zero-copy evidence: snapshot file size vs
//                      bytes resident right after OpenStoreSnapshot
//                      (mincore), plus whether the adopted store/index
//                      hold any heap copies.

#ifndef TOPK_BENCH_STORAGE_BENCH_H_
#define TOPK_BENCH_STORAGE_BENCH_H_

#if !defined(_WIN32)
#include <fcntl.h>
#include <unistd.h>
#endif

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "invidx/filter_validate.h"
#include "invidx/plain_inverted_index.h"
#include "json_writer.h"
#include "storage/compressed_index.h"
#include "storage/crc32c.h"
#include "storage/posting_codec.h"
#include "storage/snapshot.h"
#include "storage/varint_simd.h"

namespace topk {
namespace bench {

namespace storage_detail {

using Clock = std::chrono::steady_clock;

inline double ElapsedMsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Flushes `path` to disk and drops its page-cache residency so the
/// next mmap read pays real faults — the "cold" tier. Returns false
/// where the platform cannot evict (the cold row then measures a warm
/// cache and says so via the evicted column).
inline bool EvictFromPageCache(const std::string& path) {
#if defined(__linux__)
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return false;
  const bool ok = ::fdatasync(fd) == 0 &&
                  ::posix_fadvise(fd, 0, 0, POSIX_FADV_DONTNEED) == 0;
  ::close(fd);
  return ok;
#else
  (void)path;
  return false;
#endif
}

/// One timed pass of the workload through `engine`; also verifies the
/// results against `expected` (one vector per query, ascending ids).
template <typename Engine>
inline double TimedPass(Engine* engine,
                        const std::vector<PreparedQuery>& queries,
                        RawDistance theta_raw,
                        const std::vector<std::vector<RankingId>>& expected,
                        bool* exact) {
  const auto start = Clock::now();
  for (size_t i = 0; i < queries.size(); ++i) {
    const auto got = engine->Query(queries[i], theta_raw);
    *exact = *exact && got == expected[i];
  }
  return ElapsedMsSince(start);
}

/// Decodes every block of `arena` once per rep through `decode` (the
/// dispatched or scalar id-block decoder), returning wall time. The
/// checksum folds the last id of every block so the loop cannot be
/// optimized away.
template <typename DecodeFn>
inline double TimeBlockDecode(
    const storage::CompressedPostingArena<RankingId>& arena, uint32_t reps,
    const DecodeFn& decode, uint64_t* checksum) {
  const auto blocks = arena.block_metas();
  const auto bytes = arena.byte_stream();
  std::vector<RankingId> out(storage::kBlockEntries);
  *checksum = 0;
  const auto start = Clock::now();
  for (uint32_t rep = 0; rep < reps; ++rep) {
    for (size_t b = 0; b < blocks.size(); ++b) {
      const uint8_t* begin = bytes.data() + blocks[b].byte_offset;
      const uint8_t* end = b + 1 < blocks.size()
                               ? bytes.data() + blocks[b + 1].byte_offset
                               : bytes.data() + bytes.size();
      decode(blocks[b].first_id, blocks[b].count, begin, end, out.data());
      *checksum += out[blocks[b].count - 1];
    }
  }
  return ElapsedMsSince(start);
}

/// The checksum_throughput rows: the dispatched CRC32C body behind
/// SnapshotChecksum and its scalar twin, each timed over the same 64 MB
/// of seeded bytes.
inline void EmitChecksumThroughput(JsonWriter* json) {
  constexpr size_t kBytes = size_t{64} << 20;
  constexpr uint32_t kReps = 3;
  std::vector<uint8_t> buffer(kBytes);
  uint64_t state = 0x9E3779B97F4A7C15ull;
  for (size_t at = 0; at < kBytes; at += sizeof(state)) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    std::memcpy(buffer.data() + at, &state, sizeof(state));
  }
  // Bit identity first: the snapshot field against the scalar twin.
  bool bit_identical =
      storage::SnapshotChecksum(buffer.data(), kBytes) ==
      uint64_t{storage::Crc32cUpdateScalar(0, buffer.data(), kBytes)};
  // Each timed rep carries the previous value in, so no rep is dead code
  // to the optimizer; the carried values must agree too.
  uint32_t dispatched = 0;
  uint32_t scalar = 0;
  auto start = Clock::now();
  for (uint32_t rep = 0; rep < kReps; ++rep) {
    dispatched = storage::Crc32cUpdate(dispatched, buffer.data(), kBytes);
  }
  const double dispatched_ms = ElapsedMsSince(start);
  start = Clock::now();
  for (uint32_t rep = 0; rep < kReps; ++rep) {
    scalar = storage::Crc32cUpdateScalar(scalar, buffer.data(), kBytes);
  }
  const double scalar_ms = ElapsedMsSince(start);
  bit_identical = bit_identical && dispatched == scalar;
  const double total_bytes = static_cast<double>(kBytes) * kReps;
  struct Impl {
    const char* impl;
    const char* backend;
    double wall_ms;
  };
  const Impl impls[] = {
      {"dispatched", storage::kCrc32cBackendName, dispatched_ms},
      {"scalar_reference", "scalar", scalar_ms},
  };
  for (const Impl& impl : impls) {
    json->BeginObject();
    json->Key("bench");
    json->String("checksum_throughput");
    json->Key("impl");
    json->String(impl.impl);
    json->Key("backend");
    json->String(impl.backend);
    json->Key("bytes");
    json->Uint(kBytes);
    json->Key("reps");
    json->Uint(kReps);
    json->Key("bit_identical");
    json->Bool(bit_identical);
    json->Key("wall_ms");
    json->Double(impl.wall_ms);
    json->Key("gb_per_sec");
    json->Double(impl.wall_ms > 0 ? total_bytes / (impl.wall_ms * 1e6) : 0);
    if (impl.impl[0] == 'd') {
      json->Key("speedup_vs_scalar");
      json->Double(impl.wall_ms > 0 ? scalar_ms / impl.wall_ms : 0);
    }
    json->EndObject();
  }
  std::cerr << "  storage checksum backend=" << storage::kCrc32cBackendName
            << " speedup="
            << (dispatched_ms > 0 ? scalar_ms / dispatched_ms : 0)
            << (bit_identical ? "" : " NOT-BIT-IDENTICAL") << "\n";
}

}  // namespace storage_detail

/// Emits the `storage` array (caller owns the surrounding object).
inline void EmitStorageSection(JsonWriter* json, const BenchArgs& args) {
  using storage_detail::Clock;
  using storage_detail::ElapsedMsSince;
  constexpr uint32_t kK = 10;
  const double theta = 0.1;
  const RawDistance theta_raw = RawThreshold(theta, kK);

  struct Dataset {
    const char* name;
    RankingStore store;
  };
  Dataset datasets[] = {
      {"nyt_like", MakeNyt(args, kK)},
      {"yago_like", MakeYago(args, kK)},
  };

  json->Key("storage");
  json->BeginArray();
  storage_detail::EmitChecksumThroughput(json);
  for (Dataset& dataset : datasets) {
    const RankingStore& store = dataset.store;
    const auto queries = MakeBenchWorkload(store, args);

    // --- compress: arena footprint before and after block encoding. ---
    const PlainInvertedIndex plain = PlainInvertedIndex::Build(store);
    const auto encode_start = Clock::now();
    const storage::CompressedInvertedIndex compressed =
        storage::CompressedInvertedIndex::FromPlain(plain);
    const double encode_ms = ElapsedMsSince(encode_start);
    const auto& arena = compressed.arena();
    const uint64_t uncompressed_bytes = plain.MemoryUsage();
    const uint64_t compressed_bytes = compressed.MemoryUsage();
    json->BeginObject();
    json->Key("bench");
    json->String("compress");
    json->Key("dataset");
    json->String(dataset.name);
    json->Key("n");
    json->Uint(store.size());
    json->Key("k");
    json->Uint(kK);
    json->Key("entries");
    json->Uint(arena.num_entries());
    json->Key("block_entries");
    json->Uint(storage::kBlockEntries);
    json->Key("num_blocks");
    json->Uint(arena.num_blocks());
    json->Key("num_inline_lists");
    json->Uint(arena.num_inline_lists());
    json->Key("uncompressed_bytes");
    json->Uint(uncompressed_bytes);
    json->Key("compressed_bytes");
    json->Uint(compressed_bytes);
    json->Key("bytes_per_entry");
    json->Double(arena.BytesPerEntry());
    json->Key("compression_ratio");
    json->Double(compressed_bytes > 0
                     ? static_cast<double>(uncompressed_bytes) /
                           static_cast<double>(compressed_bytes)
                     : 0);
    json->Key("encode_ms");
    json->Double(encode_ms);
    json->EndObject();
    std::cerr << "  storage compress " << dataset.name << " ratio="
              << (compressed_bytes > 0
                      ? static_cast<double>(uncompressed_bytes) /
                            static_cast<double>(compressed_bytes)
                      : 0)
              << "\n";

    // --- decode_throughput: scalar group loop vs dispatched backend. ---
    {
      const auto blocks = arena.block_metas();
      const auto bytes = arena.byte_stream();
      uint64_t block_entries = 0;
      for (const auto& block : blocks) block_entries += block.count;
      // Bit-identity first: both decoders over every block.
      bool bit_identical = true;
      {
        std::vector<RankingId> a(storage::kBlockEntries);
        std::vector<RankingId> b(storage::kBlockEntries);
        for (size_t blk = 0; blk < blocks.size(); ++blk) {
          const uint8_t* begin = bytes.data() + blocks[blk].byte_offset;
          const uint8_t* end =
              blk + 1 < blocks.size()
                  ? bytes.data() + blocks[blk + 1].byte_offset
                  : bytes.data() + bytes.size();
          const bool ok_a =
              storage::DecodeIdBlock(blocks[blk].first_id, blocks[blk].count,
                                     begin, end, a.data());
          const bool ok_b = storage::DecodeIdBlockScalar(
              blocks[blk].first_id, blocks[blk].count, begin, end, b.data());
          bit_identical = bit_identical && ok_a && ok_b &&
                          std::memcmp(a.data(), b.data(),
                                      blocks[blk].count *
                                          sizeof(RankingId)) == 0;
        }
      }
      // Deterministic rep count: aim for a few million decoded entries so
      // the per-rep wall time is measurable at any dataset scale.
      const auto reps = static_cast<uint32_t>(std::max<uint64_t>(
          1, 4000000 / std::max<uint64_t>(1, block_entries)));
      uint64_t checksum_simd = 0;
      uint64_t checksum_scalar = 0;
      const double simd_ms = storage_detail::TimeBlockDecode(
          arena, reps,
          [](uint32_t first, uint32_t count, const uint8_t* begin,
             const uint8_t* end, RankingId* out) {
            storage::DecodeIdBlock(first, count, begin, end, out);
          },
          &checksum_simd);
      const double scalar_ms = storage_detail::TimeBlockDecode(
          arena, reps,
          [](uint32_t first, uint32_t count, const uint8_t* begin,
             const uint8_t* end, RankingId* out) {
            storage::DecodeIdBlockScalar(first, count, begin, end, out);
          },
          &checksum_scalar);
      bit_identical = bit_identical && checksum_simd == checksum_scalar;
      const double payload_bytes =
          static_cast<double>(bytes.size()) * static_cast<double>(reps);
      const double entries =
          static_cast<double>(block_entries) * static_cast<double>(reps);
      struct Impl {
        const char* impl;
        const char* backend;
        double wall_ms;
      };
      const Impl impls[] = {
          {"dispatched", storage::kDecodeBackendName, simd_ms},
          {"scalar_reference", "scalar", scalar_ms},
      };
      for (const Impl& impl : impls) {
        json->BeginObject();
        json->Key("bench");
        json->String("decode_throughput");
        json->Key("dataset");
        json->String(dataset.name);
        json->Key("impl");
        json->String(impl.impl);
        json->Key("backend");
        json->String(impl.backend);
        json->Key("n");
        json->Uint(store.size());
        json->Key("k");
        json->Uint(kK);
        json->Key("reps");
        json->Uint(reps);
        json->Key("block_entries_decoded");
        json->Uint(block_entries);
        json->Key("bit_identical");
        json->Bool(bit_identical);
        json->Key("wall_ms");
        json->Double(impl.wall_ms);
        json->Key("gb_per_sec");
        json->Double(impl.wall_ms > 0 ? payload_bytes / (impl.wall_ms * 1e6)
                                      : 0);
        json->Key("entries_per_ns");
        json->Double(impl.wall_ms > 0 ? entries / (impl.wall_ms * 1e6) : 0);
        if (impl.impl[0] == 'd') {
          json->Key("speedup_vs_scalar");
          json->Double(impl.wall_ms > 0 ? scalar_ms / impl.wall_ms : 0);
        }
        json->EndObject();
      }
      std::cerr << "  storage decode " << dataset.name << " backend="
                << storage::kDecodeBackendName << " speedup="
                << (simd_ms > 0 ? scalar_ms / simd_ms : 0)
                << (bit_identical ? "" : " NOT-BIT-IDENTICAL") << "\n";
    }

    // --- snapshot: write, evict, open, and record residency. ---
    const std::string path =
        std::string("BENCH_storage_snapshot_") + dataset.name + ".tmp";
    const Status written = storage::WriteStoreSnapshot(store, arena, path);
    if (!written.ok()) {
      std::cerr << "  storage snapshot write FAILED: " << written.ToString()
                << "\n";
      continue;
    }
    const bool evicted = storage_detail::EvictFromPageCache(path);
    auto snapshot = storage::OpenStoreSnapshot(path);
    if (!snapshot.ok()) {
      std::cerr << "  storage snapshot open FAILED: "
                << snapshot.status().ToString() << "\n";
      std::remove(path.c_str());
      continue;
    }
    const size_t mapped = snapshot.value().mapped_bytes();
    const size_t resident_after_open = snapshot.value().ResidentBytes();
    // Zero-copy means the adopted store and index own no heap copies of
    // the mapped sections; residency then proves the payload stayed on
    // disk until queried.
    const bool zero_copy = snapshot.value().store().MemoryUsage() == 0 &&
                           snapshot.value().index().MemoryUsage() == 0;
    json->BeginObject();
    json->Key("bench");
    json->String("snapshot");
    json->Key("dataset");
    json->String(dataset.name);
    json->Key("n");
    json->Uint(store.size());
    json->Key("k");
    json->Uint(kK);
    json->Key("file_bytes");
    json->Uint(mapped);
    json->Key("resident_after_open_bytes");
    json->Uint(resident_after_open);
    json->Key("page_cache_evicted");
    json->Bool(evicted);
    json->Key("zero_copy_load");
    json->Bool(zero_copy);
    json->EndObject();
    std::cerr << "  storage snapshot " << dataset.name << " resident "
              << resident_after_open << "/" << mapped << " bytes"
              << (evicted ? "" : " (eviction unavailable)") << "\n";

    // --- query: the four serving tiers, bit-exact vs the RAM baseline. ---
    // Baseline pass doubles as the expected-results oracle.
    std::vector<std::vector<RankingId>> expected(queries.size());
    FilterValidateEngine ram_plain(&store, &plain);
    const double ram_plain_ms = [&] {
      const auto start = Clock::now();
      for (size_t i = 0; i < queries.size(); ++i) {
        expected[i] = ram_plain.Query(queries[i], theta_raw);
      }
      return ElapsedMsSince(start);
    }();

    storage::CompressedFilterValidateEngine ram_compressed(&store,
                                                           &compressed);
    storage::CompressedFilterValidateEngine mmap_engine(
        &snapshot.value().store(), &snapshot.value().index());

    struct Tier {
      const char* name;
      double wall_ms;
      bool exact;
    };
    std::vector<Tier> tiers;
    tiers.push_back({"ram_uncompressed", ram_plain_ms, true});
    bool exact = true;
    double wall_ms = storage_detail::TimedPass(&ram_compressed, queries,
                                               theta_raw, expected, &exact);
    tiers.push_back({"ram_compressed", wall_ms, exact});
    // Cold: first pass over the evicted mapping pays the page faults.
    exact = true;
    wall_ms = storage_detail::TimedPass(&mmap_engine, queries, theta_raw,
                                        expected, &exact);
    tiers.push_back({"mmap_cold", wall_ms, exact});
    // Warm: same mapping, pages now resident.
    exact = true;
    wall_ms = storage_detail::TimedPass(&mmap_engine, queries, theta_raw,
                                        expected, &exact);
    tiers.push_back({"mmap_warm", wall_ms, exact});

    for (const Tier& tier : tiers) {
      json->BeginObject();
      json->Key("bench");
      json->String("query");
      json->Key("dataset");
      json->String(dataset.name);
      json->Key("tier");
      json->String(tier.name);
      json->Key("n");
      json->Uint(store.size());
      json->Key("k");
      json->Uint(kK);
      json->Key("theta");
      json->Double(theta);
      json->Key("queries");
      json->Uint(queries.size());
      json->Key("exact_match");
      json->Bool(tier.exact);
      json->Key("wall_ms");
      json->Double(tier.wall_ms);
      json->Key("mean_ms_per_query");
      json->Double(tier.wall_ms / static_cast<double>(queries.size()));
      json->EndObject();
      std::cerr << "  storage query " << dataset.name << "/" << tier.name
                << (tier.exact ? " exact" : " MISMATCH") << "\n";
    }

    std::remove(path.c_str());
  }
  json->EndArray();
}

}  // namespace bench
}  // namespace topk

#endif  // TOPK_BENCH_STORAGE_BENCH_H_
