// The `storage` benchmark section: micro-measurements of the storage/
// kernels, shared by bench_kernel and bench_baseline (which embeds the
// section into BENCH_baseline.json). The end-to-end snapshot tier (open,
// residency, served latency, footprint) is perfbench's nyt_snapshot
// workload.
//
// Two experiments; the first needs no dataset, the second runs per
// dataset:
//
//   checksum_throughput  snapshot checksum speed (SnapshotChecksum, the
//                      CRC32C of storage/crc32c.h) over a 64 MB seeded
//                      buffer — the dispatched body vs the scalar
//                      slicing-by-8 twin, GB/s, with the two values
//                      compared for bit identity.
//   decode_throughput  raw block-decode speed over the dataset's
//                      compressed posting arena — the scalar group loop
//                      vs the dispatched SIMD backend
//                      (storage/varint_simd.h), GB/s and entries/ns,
//                      with the two verified bit-identical before timing.

#ifndef TOPK_BENCH_STORAGE_BENCH_H_
#define TOPK_BENCH_STORAGE_BENCH_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <vector>

#include "bench_util.h"
#include "invidx/plain_inverted_index.h"
#include "json_writer.h"
#include "storage/compressed_arena.h"
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

/// The decode_throughput rows of one dataset: every block of its
/// compressed posting arena, decoded by the dispatched backend and by
/// the scalar group loop.
inline void EmitDecodeThroughput(JsonWriter* json, const char* dataset,
                                 const RankingStore& store) {
  const auto arena = storage::CompressedPostingArena<RankingId>::FromArena(
      PlainInvertedIndex::Build(store).arena());
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
      const uint8_t* end = blk + 1 < blocks.size()
                               ? bytes.data() + blocks[blk + 1].byte_offset
                               : bytes.data() + bytes.size();
      const bool ok_a =
          storage::DecodeIdBlock(blocks[blk].first_id, blocks[blk].count,
                                 begin, end, a.data());
      const bool ok_b = storage::DecodeIdBlockScalar(
          blocks[blk].first_id, blocks[blk].count, begin, end, b.data());
      bit_identical = bit_identical && ok_a && ok_b &&
                      std::memcmp(a.data(), b.data(),
                                  blocks[blk].count * sizeof(RankingId)) == 0;
    }
  }
  // Deterministic rep count: aim for a few million decoded entries so
  // the per-rep wall time is measurable at any dataset scale.
  const auto reps = static_cast<uint32_t>(std::max<uint64_t>(
      1, 4000000 / std::max<uint64_t>(1, block_entries)));
  uint64_t checksum_simd = 0;
  uint64_t checksum_scalar = 0;
  const double simd_ms = TimeBlockDecode(
      arena, reps,
      [](uint32_t first, uint32_t count, const uint8_t* begin,
         const uint8_t* end, RankingId* out) {
        storage::DecodeIdBlock(first, count, begin, end, out);
      },
      &checksum_simd);
  const double scalar_ms = TimeBlockDecode(
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
    json->String(dataset);
    json->Key("impl");
    json->String(impl.impl);
    json->Key("backend");
    json->String(impl.backend);
    json->Key("n");
    json->Uint(store.size());
    json->Key("k");
    json->Uint(store.k());
    json->Key("reps");
    json->Uint(reps);
    json->Key("block_entries_decoded");
    json->Uint(block_entries);
    json->Key("bit_identical");
    json->Bool(bit_identical);
    json->Key("wall_ms");
    json->Double(impl.wall_ms);
    json->Key("gb_per_sec");
    json->Double(impl.wall_ms > 0 ? payload_bytes / (impl.wall_ms * 1e6) : 0);
    json->Key("entries_per_ns");
    json->Double(impl.wall_ms > 0 ? entries / (impl.wall_ms * 1e6) : 0);
    if (impl.impl[0] == 'd') {
      json->Key("speedup_vs_scalar");
      json->Double(impl.wall_ms > 0 ? scalar_ms / impl.wall_ms : 0);
    }
    json->EndObject();
  }
  std::cerr << "  storage decode " << dataset << " backend="
            << storage::kDecodeBackendName << " speedup="
            << (simd_ms > 0 ? scalar_ms / simd_ms : 0)
            << (bit_identical ? "" : " NOT-BIT-IDENTICAL") << "\n";
}

}  // namespace storage_detail

/// Emits the `storage` array (caller owns the surrounding object).
inline void EmitStorageSection(JsonWriter* json, const BenchArgs& args) {
  constexpr uint32_t kK = 10;
  json->Key("storage");
  json->BeginArray();
  storage_detail::EmitChecksumThroughput(json);
  storage_detail::EmitDecodeThroughput(json, "nyt_like", MakeNyt(args, kK));
  storage_detail::EmitDecodeThroughput(json, "yago_like", MakeYago(args, kK));
  json->EndArray();
}

}  // namespace bench
}  // namespace topk

#endif  // TOPK_BENCH_STORAGE_BENCH_H_
