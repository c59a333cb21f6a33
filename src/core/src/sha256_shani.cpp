// SHA-NI instantiation of the SHA-256 compression function.
//
// This translation unit is the only one compiled with -msha -msse4.1
// -mssse3 (see src/core/CMakeLists.txt, which also defines
// TREU_CORE_SHANI_BUILD when it does so). Nothing here executes unless the
// CPUID probe below has confirmed the CPU supports those extensions, so
// the ISA flags are safe. Builds without the flags (non-x86 targets,
// compilers that reject -msha) compile this file to the "absent" stub and
// every hasher runs the portable loop.

#include "treu/core/sha256.hpp"

#if defined(TREU_CORE_SHANI_BUILD) && defined(__SHA__) && \
    defined(__SSE4_1__) && defined(__SSSE3__)

#include <immintrin.h>

#include "sha256_k.hpp"

namespace treu::core::detail {
namespace {

// The SHA-NI round instructions keep the state as two registers, ABEF and
// CDGH (word A in the high lane), instead of the natural ABCD / EFGH. The
// shuffles in and out are paid once per run of blocks, not once per block.
void compress_shani(std::uint32_t *state, const std::uint8_t *blocks,
                    std::size_t nblocks) noexcept {
  // Byte-swaps each 32-bit word: the message is big-endian.
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);

  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i *>(state));
  __m128i cdgh =
      _mm_loadu_si128(reinterpret_cast<const __m128i *>(state + 4));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);                // CDAB
  cdgh = _mm_shuffle_epi32(cdgh, 0x1B);              // EFGH
  __m128i abef = _mm_alignr_epi8(tmp, cdgh, 8);      // ABEF
  cdgh = _mm_blend_epi16(cdgh, tmp, 0xF0);           // CDGH

  for (; nblocks > 0; --nblocks, blocks += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    // msg[g % 4] holds schedule words W[4g .. 4g+3] for round group g.
    __m128i msg[4];
    for (int i = 0; i < 4; ++i) {
      msg[i] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i *>(blocks + 16 * i)),
          bswap);
    }
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      if (g >= 4) {
        // W[t] = s1(W[t-2]) + W[t-7] + s0(W[t-15]) + W[t-16], four at once.
        const __m128i w9 =
            _mm_alignr_epi8(msg[(g + 3) & 3], msg[(g + 2) & 3], 4);
        msg[g & 3] = _mm_sha256msg2_epu32(
            _mm_add_epi32(_mm_sha256msg1_epu32(msg[g & 3], msg[(g + 1) & 3]),
                          w9),
            msg[(g + 3) & 3]);
      }
      __m128i wk = _mm_add_epi32(
          msg[g & 3],
          _mm_load_si128(reinterpret_cast<const __m128i *>(kSha256K + 4 * g)));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      wk = _mm_shuffle_epi32(wk, 0x0E);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  tmp = _mm_shuffle_epi32(abef, 0x1B);               // FEBA
  cdgh = _mm_shuffle_epi32(cdgh, 0xB1);              // DCHG
  abef = _mm_blend_epi16(tmp, cdgh, 0xF0);           // DCBA
  cdgh = _mm_alignr_epi8(cdgh, tmp, 8);              // HGFE
  _mm_storeu_si128(reinterpret_cast<__m128i *>(state), abef);
  _mm_storeu_si128(reinterpret_cast<__m128i *>(state + 4), cdgh);
}

}  // namespace

Sha256Compress sha256_shani_compress() noexcept {
  static const bool usable = __builtin_cpu_supports("sha") &&
                             __builtin_cpu_supports("sse4.1") &&
                             __builtin_cpu_supports("ssse3");
  return usable ? compress_shani : nullptr;
}

}  // namespace treu::core::detail

#else

namespace treu::core::detail {

Sha256Compress sha256_shani_compress() noexcept { return nullptr; }

}  // namespace treu::core::detail

#endif
