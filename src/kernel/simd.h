// Compile-time SIMD dispatch for the kernel layer.
//
// The TOPK_SIMD macro (set by the -DTOPK_SIMD=ON CMake option) unlocks the
// vector paths; *which* path compiles is then decided purely by what the
// compiler already targets (-march / -mcpu flags), never by runtime
// detection — the binary has exactly one kernel per function and the
// dispatch costs nothing on the hot path:
//
//   __AVX2__       8 x 32-bit lanes, hardware gathers
//   __SSE4_2__     4 x 32-bit lanes, scalar-emulated gathers
//   __ARM_NEON     4 x 32-bit lanes (AArch64 only), scalar-emulated gathers
//   otherwise      kSimdLanes == 1: every call site falls back to the
//                  portable scalar code, which remains the reference
//                  implementation in all builds
//
// Anything above SSE4.2 on x86 requires opting in via compiler flags
// (e.g. -march=x86-64-v3 for AVX2); plain -DTOPK_SIMD=ON on a default
// x86-64 target compiles the scalar path, because the x86-64 baseline
// stops at SSE2. CI builds one AVX2 leg and one TOPK_SIMD=OFF leg so
// neither side can rot (see .github/workflows/ci.yml).

#ifndef TOPK_KERNEL_SIMD_H_
#define TOPK_KERNEL_SIMD_H_

#if defined(TOPK_SIMD)
#if defined(__AVX2__)
#define TOPK_SIMD_AVX2 1
#elif defined(__SSE4_2__)
#define TOPK_SIMD_SSE42 1
#elif (defined(__ARM_NEON) || defined(__ARM_NEON__)) && defined(__aarch64__)
#define TOPK_SIMD_NEON 1
#endif
#endif

namespace topk {

#if defined(TOPK_SIMD_AVX2)
inline constexpr unsigned kSimdLanes = 8;
inline constexpr const char* kSimdBackendName = "avx2";
#elif defined(TOPK_SIMD_SSE42)
inline constexpr unsigned kSimdLanes = 4;
inline constexpr const char* kSimdBackendName = "sse4.2";
#elif defined(TOPK_SIMD_NEON)
inline constexpr unsigned kSimdLanes = 4;
inline constexpr const char* kSimdBackendName = "neon";
#else
inline constexpr unsigned kSimdLanes = 1;
inline constexpr const char* kSimdBackendName = "scalar";
#endif

/// Keeps a hot kernel loop in a function of its own (no-op off
/// GCC/Clang). See FootruleValidator::ValidateSpan for the measurement.
#if defined(__GNUC__) || defined(__clang__)
#define TOPK_NOINLINE __attribute__((noinline))
#else
#define TOPK_NOINLINE
#endif

/// Portable best-effort read prefetch (no-op off GCC/Clang). The filter
/// phase uses it to hide the latency of the VisitedSet's scattered stamp
/// words and of the next posting list's arena lines.
inline void PrefetchRead(const void* address) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(address, /*rw=*/0, /*locality=*/3);
#else
  (void)address;
#endif
}

}  // namespace topk

#endif  // TOPK_KERNEL_SIMD_H_
