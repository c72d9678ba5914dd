// CRC32C (Castagnoli): the snapshot format's checksum.
//
// Byte-exact definition: reflected polynomial 0x82F63B78 (0x1EDC6F41 in
// normal form), register initialised to 0xFFFFFFFF, input and output
// reflected, final XOR 0xFFFFFFFF — the iSCSI / RFC 3720 CRC, for which
// "123456789" checks to 0xE3069283.
//
// One function, two bodies. Crc32cUpdate compiles to the hardware CRC
// instruction where the build targets it — one stream of
// _mm_crc32_u64 under SSE4.2 (x86-64-v2 and up) — and to the
// table-driven scalar twin otherwise. AArch64 uses the scalar twin
// too: its CRC instructions would want an ARM CI leg and a measured
// ARM workload before they earn a body of their own.
// Dispatch mirrors kernel/simd.h: compile-time only, gated by the
// TOPK_SIMD option plus whatever -march already targets, never by
// runtime CPU detection. Crc32cUpdateScalar (slicing-by-8) is compiled
// in every build: it is the reference the hardware body is pinned
// bit-identical to (tests/storage_crc32c_test.cc), so a snapshot
// written by one build verifies under any other.
//
// Streaming contract: both bodies take and return the finished CRC, so
// Crc32cUpdate(0, data, n) is the CRC of the n bytes and
// Crc32cUpdate(Crc32cUpdate(0, a, na), b, nb) is the CRC of a then b —
// VerifySnapshotChecksums carries the value across its fread chunks.

#ifndef TOPK_STORAGE_CRC32C_H_
#define TOPK_STORAGE_CRC32C_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>

#if defined(TOPK_SIMD) && defined(__SSE4_2__) && defined(__x86_64__)
#define TOPK_CRC32C_SSE42 1
#include <nmmintrin.h>
#endif

namespace topk {
namespace storage {

#if defined(TOPK_CRC32C_SSE42)
inline constexpr const char* kCrc32cBackendName = "sse4.2";
#else
inline constexpr const char* kCrc32cBackendName = "scalar";
#endif

namespace crc32c_detail {

inline constexpr uint32_t kPolynomial = 0x82F63B78u;  // reflected

/// Slicing-by-8 tables: table[0] is the classic byte-at-a-time table,
/// table[s][b] the CRC contribution of byte b followed by s zero bytes.
using Tables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Tables MakeTables() {
  Tables tables{};
  for (uint32_t byte = 0; byte < 256; ++byte) {
    uint32_t crc = byte;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) != 0 ? kPolynomial : 0u);
    }
    tables[0][byte] = crc;
  }
  for (size_t slice = 1; slice < tables.size(); ++slice) {
    for (uint32_t byte = 0; byte < 256; ++byte) {
      const uint32_t prev = tables[slice - 1][byte];
      tables[slice][byte] = (prev >> 8) ^ tables[0][prev & 0xffu];
    }
  }
  return tables;
}

inline constexpr Tables kTables = MakeTables();

}  // namespace crc32c_detail

/// The portable body: eight bytes per step through the slicing-by-8
/// tables, then one table step per tail byte. Reads bytes individually,
/// so it is endian-neutral and never makes an unaligned word access.
inline uint32_t Crc32cUpdateScalar(uint32_t crc, const void* data,
                                   size_t size) {
  const auto& t = crc32c_detail::kTables;
  const auto* p = static_cast<const uint8_t*>(data);
  uint32_t state = ~crc;
  for (; size >= 8; p += 8, size -= 8) {
    const uint32_t low = state ^ (uint32_t{p[0]} | uint32_t{p[1]} << 8 |
                                  uint32_t{p[2]} << 16 | uint32_t{p[3]} << 24);
    state = t[7][low & 0xffu] ^ t[6][(low >> 8) & 0xffu] ^
            t[5][(low >> 16) & 0xffu] ^ t[4][low >> 24] ^ t[3][p[4]] ^
            t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]];
  }
  for (; size > 0; ++p, --size) {
    state = (state >> 8) ^ t[0][(state ^ *p) & 0xffu];
  }
  return ~state;
}

/// The dispatched body (see the header comment): the hardware CRC
/// instruction where the build targets it, the scalar twin otherwise.
inline uint32_t Crc32cUpdate(uint32_t crc, const void* data, size_t size) {
#if defined(TOPK_CRC32C_SSE42)
  const auto* p = static_cast<const uint8_t*>(data);
  uint32_t state = ~crc;
  for (; size >= 8; p += 8, size -= 8) {
    uint64_t word = 0;
    std::memcpy(&word, p, sizeof(word));  // unaligned-safe load
    state = static_cast<uint32_t>(_mm_crc32_u64(state, word));
  }
  for (; size > 0; ++p, --size) {
    state = _mm_crc32_u8(state, *p);
  }
  return ~state;
#else
  return Crc32cUpdateScalar(crc, data, size);
#endif
}

}  // namespace storage
}  // namespace topk

#endif  // TOPK_STORAGE_CRC32C_H_
