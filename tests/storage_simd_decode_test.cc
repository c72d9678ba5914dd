// Bit-identity suite for the SIMD group-varint decode kernels
// (storage/varint_simd.h): whatever backend the build dispatches to,
// DecodeValuesSimd / DeltaPrefixSumInPlace / the dispatching block
// decoders must produce exactly the scalar reference's output — same
// values, same uint32 wraparound, same truncation failures — across
// group-boundary lengths, block-boundary lengths, and fuzzed streams
// (failing seeds printed). On AVX2 builds the suite additionally pins
// a >= 2x decode speedup, the figure the `storage` bench section's
// decode_throughput rows time at dataset scale.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "core/statistics.h"
#include "core/types.h"
#include "storage/group_varint.h"
#include "storage/posting_codec.h"
#include "storage/varint_simd.h"

namespace topk {
namespace {

using storage::DecodeValuesSimd;
using storage::DeltaPrefixSumInPlace;
using storage::GroupVarintDecodeGroup;
using storage::GroupVarintEncode;
using storage::kBlockEntries;

/// Scalar reference for DecodeValuesSimd: the chained group loop.
const uint8_t* DecodeValuesScalar(const uint8_t* in, const uint8_t* end,
                                  size_t count, uint32_t* out) {
  size_t produced = 0;
  while (produced < count) {
    const size_t m = count - produced < 4 ? count - produced : 4;
    in = GroupVarintDecodeGroup(in, end, m, out + produced);
    if (in == nullptr) return nullptr;
    produced += m;
  }
  return in;
}

/// Values mixing all four byte widths, deterministic per seed.
std::vector<uint32_t> MixedWidthValues(size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint32_t> values(count);
  for (auto& value : values) {
    switch (rng.Below(4)) {
      case 0: value = static_cast<uint32_t>(rng.Below(1u << 8)); break;
      case 1: value = static_cast<uint32_t>(rng.Below(1u << 16)); break;
      case 2: value = static_cast<uint32_t>(rng.Below(1u << 24)); break;
      default: value = static_cast<uint32_t>(rng.Next()); break;
    }
  }
  return values;
}

TEST(SimdValueDecode, MatchesScalarAtEveryLength) {
  // 0..67 covers partial groups in every position; the fast path engages
  // from length 4 given enough stream slack.
  for (size_t count = 0; count <= 67; ++count) {
    const std::vector<uint32_t> values = MixedWidthValues(count, 1000 + count);
    std::vector<uint8_t> bytes;
    GroupVarintEncode(values.data(), count, &bytes);
    std::vector<uint32_t> simd(count + 1, 0xDEADBEEF);
    std::vector<uint32_t> scalar(count + 1, 0xDEADBEEF);
    const uint8_t* end = bytes.data() + bytes.size();
    const uint8_t* simd_cursor =
        DecodeValuesSimd(bytes.data(), end, count, simd.data());
    const uint8_t* scalar_cursor =
        DecodeValuesScalar(bytes.data(), end, count, scalar.data());
    ASSERT_EQ(simd_cursor, scalar_cursor) << "count=" << count;
    ASSERT_EQ(simd, scalar) << "count=" << count;
  }
}

TEST(SimdValueDecode, TruncationFailsIdenticallyToScalar) {
  const size_t count = 61;
  const std::vector<uint32_t> values = MixedWidthValues(count, 77);
  std::vector<uint8_t> bytes;
  GroupVarintEncode(values.data(), count, &bytes);
  std::vector<uint32_t> out(count);
  for (size_t keep = 0; keep < bytes.size(); ++keep) {
    const uint8_t* end = bytes.data() + keep;
    EXPECT_EQ(DecodeValuesSimd(bytes.data(), end, count, out.data()),
              nullptr)
        << "keep=" << keep;
    EXPECT_EQ(DecodeValuesScalar(bytes.data(), end, count, out.data()),
              nullptr)
        << "keep=" << keep;
  }
  // The full stream decodes from either path.
  const uint8_t* end = bytes.data() + bytes.size();
  EXPECT_NE(DecodeValuesSimd(bytes.data(), end, count, out.data()), nullptr);
}

TEST(SimdPrefixSum, MatchesScalarIncludingWraparound) {
  for (size_t count = 0; count <= 70; ++count) {
    Rng rng(3000 + count);
    std::vector<uint32_t> deltas(count);
    for (auto& delta : deltas) {
      // Large deltas force uint32 wraparound inside the running sum.
      delta = rng.Below(3) == 0 ? static_cast<uint32_t>(rng.Next())
                                : static_cast<uint32_t>(rng.Below(1000));
    }
    const uint32_t base = static_cast<uint32_t>(rng.Next());
    std::vector<uint32_t> vectorized = deltas;
    DeltaPrefixSumInPlace(vectorized.data(), count, base);
    std::vector<uint32_t> reference = deltas;
    uint32_t previous = base;
    for (size_t i = 0; i < count; ++i) {
      previous += reference[i];
      reference[i] = previous;
    }
    ASSERT_EQ(vectorized, reference) << "count=" << count;
  }
}

TEST(SimdBlockDecode, IdBlocksMatchScalarAtEveryCount) {
  Rng rng(42);
  for (uint32_t count = 1; count <= kBlockEntries; ++count) {
    std::vector<RankingId> ids(count);
    RankingId id = static_cast<RankingId>(rng.Below(1000));
    for (auto& out : ids) {
      out = id;
      id += 1 + static_cast<RankingId>(rng.Below(1u << (rng.Below(4) * 8)));
    }
    std::vector<uint8_t> bytes;
    storage::EncodeIdBlock(ids, &bytes);
    std::vector<RankingId> dispatched(count);
    std::vector<RankingId> scalar(count);
    const uint8_t* end = bytes.data() + bytes.size();
    ASSERT_TRUE(storage::DecodeIdBlock(ids.front(), count, bytes.data(), end,
                                       dispatched.data()));
    ASSERT_TRUE(storage::DecodeIdBlockScalar(ids.front(), count, bytes.data(),
                                             end, scalar.data()));
    ASSERT_EQ(dispatched, scalar) << "count=" << count;
    ASSERT_EQ(dispatched, ids) << "count=" << count;
  }
}

TEST(SimdValueDecodeFuzz, MatchesScalarOnRandomStreams) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("fuzz seed " + std::to_string(seed) +
                 " (re-run with this seed to reproduce)");
    Rng rng(seed);
    const size_t count = rng.Below(600);
    const std::vector<uint32_t> values = MixedWidthValues(count, seed * 31);
    std::vector<uint8_t> bytes;
    GroupVarintEncode(values.data(), count, &bytes);
    std::vector<uint32_t> simd(count);
    std::vector<uint32_t> scalar(count);
    const uint8_t* end = bytes.data() + bytes.size();
    ASSERT_EQ(DecodeValuesSimd(bytes.data(), end, count, simd.data()),
              DecodeValuesScalar(bytes.data(), end, count, scalar.data()));
    ASSERT_EQ(simd, scalar);
    ASSERT_EQ(simd, values);
    // A random truncation point must fail identically on both paths.
    if (!bytes.empty()) {
      const size_t keep = rng.Below(bytes.size());
      const uint8_t* cut = bytes.data() + keep;
      ASSERT_EQ(
          DecodeValuesSimd(bytes.data(), cut, count, simd.data()) == nullptr,
          DecodeValuesScalar(bytes.data(), cut, count, scalar.data()) ==
              nullptr)
          << "keep=" << keep;
    }
  }
}

#if defined(TOPK_SIMD_AVX2) && defined(NDEBUG)
TEST(SimdBlockDecode, Avx2DecodeAtLeastTwiceScalar) {
  // The acceptance bar of the AVX2 CI leg, pinned where the hardware is
  // known: shuffle-table decode + vectorized prefix sum must beat the
  // scalar group loop by >= 2x on full id blocks. Best-of timing keeps
  // shared-runner noise out of the ratio.
  constexpr size_t kBlocks = 2048;
  Rng rng(7);
  std::vector<std::vector<uint8_t>> payloads(kBlocks);
  std::vector<RankingId> first_ids(kBlocks);
  std::vector<RankingId> ids(kBlockEntries);
  for (size_t b = 0; b < kBlocks; ++b) {
    RankingId id = static_cast<RankingId>(rng.Below(1u << 20));
    for (auto& out : ids) {
      out = id;
      id += 1 + static_cast<RankingId>(rng.Below(300));
    }
    first_ids[b] = ids.front();
    storage::EncodeIdBlock(ids, &payloads[b]);
  }
  std::vector<RankingId> out(kBlockEntries);
  uint64_t checksum_simd = 0;
  uint64_t checksum_scalar = 0;
  auto time_best_of = [&](auto&& decode_all) {
    uint64_t best = UINT64_MAX;
    for (int rep = 0; rep < 5; ++rep) {
      Stopwatch watch;
      decode_all();
      const uint64_t nanos = watch.ElapsedNanos();
      if (nanos < best) best = nanos;
    }
    return best;
  };
  const uint64_t simd_nanos = time_best_of([&] {
    checksum_simd = 0;
    for (size_t b = 0; b < kBlocks; ++b) {
      storage::DecodeIdBlock(first_ids[b], kBlockEntries, payloads[b].data(),
                             payloads[b].data() + payloads[b].size(),
                             out.data());
      checksum_simd += out[kBlockEntries - 1];
    }
  });
  const uint64_t scalar_nanos = time_best_of([&] {
    checksum_scalar = 0;
    for (size_t b = 0; b < kBlocks; ++b) {
      storage::DecodeIdBlockScalar(first_ids[b], kBlockEntries,
                                   payloads[b].data(),
                                   payloads[b].data() + payloads[b].size(),
                                   out.data());
      checksum_scalar += out[kBlockEntries - 1];
    }
  });
  ASSERT_EQ(checksum_simd, checksum_scalar);
  const double speedup = static_cast<double>(scalar_nanos) /
                         static_cast<double>(simd_nanos);
  EXPECT_GE(speedup, 2.0) << "SIMD decode speedup regressed: " << speedup
                          << "x (scalar " << scalar_nanos << "ns, simd "
                          << simd_nanos << "ns)";
}
#endif  // TOPK_SIMD_AVX2 && NDEBUG

}  // namespace
}  // namespace topk
