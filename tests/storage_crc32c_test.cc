// CRC32C suite: the snapshot checksum's two bodies (storage/crc32c.h)
// against published check values, bit-identical to each other at every
// short length and start offset, and chunked updates equal to one-shot
// ones (the contract VerifySnapshotChecksums' fread loop relies on).
// Together these pin that a snapshot written by a build with the
// hardware CRC instruction verifies under a scalar build, and the
// reverse.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "storage/crc32c.h"
#include "storage/snapshot.h"

namespace topk {
namespace {

using storage::Crc32cUpdate;
using storage::Crc32cUpdateScalar;

/// Both bodies over the same bytes, from a zero start.
struct BothBodies {
  uint32_t dispatched;
  uint32_t scalar;
};

BothBodies Crc(const std::vector<uint8_t>& bytes) {
  return {Crc32cUpdate(0, bytes.data(), bytes.size()),
          Crc32cUpdateScalar(0, bytes.data(), bytes.size())};
}

TEST(Crc32c, MatchesPublishedCheckValues) {
  SCOPED_TRACE(std::string("backend ") + storage::kCrc32cBackendName);
  const std::string check = "123456789";
  const std::vector<uint8_t> digits(check.begin(), check.end());
  std::vector<uint8_t> ascending(32);
  std::iota(ascending.begin(), ascending.end(), uint8_t{0});
  // The catalogue check value, then RFC 3720 appendix B.4.
  const struct {
    const char* name;
    std::vector<uint8_t> bytes;
    uint32_t want;
  } cases[] = {
      {"123456789", digits, 0xE3069283u},
      {"32 x 0x00", std::vector<uint8_t>(32, 0x00), 0x8A9136AAu},
      {"32 x 0xFF", std::vector<uint8_t>(32, 0xFF), 0x62A8AB43u},
      {"0x00..0x1F", ascending, 0x46DD794Eu},
      {"empty", {}, 0x00000000u},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    const BothBodies got = Crc(c.bytes);
    EXPECT_EQ(got.dispatched, c.want);
    EXPECT_EQ(got.scalar, c.want);
    // The snapshot field is the CRC zero-extended.
    EXPECT_EQ(storage::SnapshotChecksum(c.bytes.data(), c.bytes.size()),
              uint64_t{c.want});
  }
}

TEST(Crc32c, BodiesAreBitIdenticalAtEveryLengthAndOffset) {
  // Lengths 0..257 cover the empty input, every tail length under the
  // 8-byte step on both sides of several whole steps, and the start
  // offsets 0..7 every misalignment of the word loads.
  std::mt19937 rng(2323);
  std::vector<uint8_t> buffer(8 + 257);
  for (uint8_t& byte : buffer) byte = static_cast<uint8_t>(rng());
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t length = 0; length <= 257; ++length) {
      const uint8_t* at = buffer.data() + offset;
      ASSERT_EQ(Crc32cUpdate(0, at, length),
                Crc32cUpdateScalar(0, at, length))
          << "offset " << offset << " length " << length;
      // From a non-zero running value too (a chunk after the first).
      ASSERT_EQ(Crc32cUpdate(0xDEADBEEFu, at, length),
                Crc32cUpdateScalar(0xDEADBEEFu, at, length))
          << "offset " << offset << " length " << length;
    }
  }
}

TEST(Crc32c, ChunkedUpdatesEqualOneShot) {
  std::mt19937 rng(4242);
  std::vector<uint8_t> bytes(10'000);
  for (uint8_t& byte : bytes) byte = static_cast<uint8_t>(rng());
  const uint32_t whole = Crc32cUpdate(0, bytes.data(), bytes.size());
  ASSERT_EQ(whole, Crc32cUpdateScalar(0, bytes.data(), bytes.size()));
  for (const size_t chunk : {size_t{1}, size_t{3}, size_t{8}, size_t{13},
                             size_t{4096}, size_t{9'999}}) {
    SCOPED_TRACE("chunk " + std::to_string(chunk));
    uint32_t dispatched = 0;
    uint32_t scalar = 0;
    for (size_t at = 0; at < bytes.size(); at += chunk) {
      const size_t size = std::min(chunk, bytes.size() - at);
      dispatched = Crc32cUpdate(dispatched, bytes.data() + at, size);
      scalar = Crc32cUpdateScalar(scalar, bytes.data() + at, size);
    }
    EXPECT_EQ(dispatched, whole);
    EXPECT_EQ(scalar, whole);
  }
}

}  // namespace
}  // namespace topk
