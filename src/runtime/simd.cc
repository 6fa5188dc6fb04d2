#include "runtime/simd.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace ps3::runtime {

bool Avx2Available() {
#if defined(__x86_64__) || defined(__i386__)
  static const bool available = __builtin_cpu_supports("avx2");
  return available;
#else
  return false;
#endif
}

#if defined(__x86_64__) || defined(__i386__)

__attribute__((target("avx2"))) void InSetGatherWordsAvx2(
    const int32_t* codes, size_t full_words, const uint32_t* table,
    uint64_t* words) {
  const int* t = reinterpret_cast<const int*>(table);
  for (size_t w = 0; w < full_words; ++w) {
    const int32_t* base = codes + (w << 6);
    uint64_t word = 0;
    for (unsigned g = 0; g < 8; ++g) {
      __m256i idx = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(base + 8 * g));
      // Each lane becomes table[code]: all-ones for members, zero
      // otherwise, so movemask_ps reads the membership straight off the
      // sign bits.
      __m256i hit = _mm256_i32gather_epi32(t, idx, 4);
      unsigned mask = static_cast<unsigned>(
          _mm256_movemask_ps(_mm256_castsi256_ps(hit)));
      word |= static_cast<uint64_t>(mask) << (8 * g);
    }
    words[w] = word;
  }
}

__attribute__((target("avx2"))) void DenseGroupIdsAvx2(
    const int32_t* const* codes, const uint32_t* strides,
    size_t n_group_cols, const uint32_t* rows, size_t n, uint32_t* ids) {
  size_t k = 0;
  for (; k + 8 <= n; k += 8) {
    const __m256i ridx = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(rows + k));
    __m256i id = _mm256_setzero_si256();
    for (size_t g = 0; g < n_group_cols; ++g) {
      const __m256i code = _mm256_i32gather_epi32(
          reinterpret_cast<const int*>(codes[g]), ridx, 4);
      const __m256i stride = _mm256_set1_epi32(
          static_cast<int>(strides[g]));
      // mullo + add in 32-bit lanes: the engine caps the id space at
      // 2^20, so no lane can wrap.
      id = _mm256_add_epi32(id, _mm256_mullo_epi32(code, stride));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(ids + k), id);
  }
  if (k < n) {
    DenseGroupIdsScalar(codes, strides, n_group_cols, rows + k, n - k,
                        ids + k);
  }
}

namespace {

/// values[ridx[k]] for 4 lanes. The unmasked _mm256_i32gather_pd merges
/// into _mm256_undefined_pd(), which GCC 12 flags under
/// -Wmaybe-uninitialized; an all-ones mask over a zero source compiles to
/// the same vgatherdpd with every input defined.
__attribute__((target("avx2"))) inline __m256d GatherPd(const double* values,
                                                        __m128i ridx) {
  const __m256d all = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
  return _mm256_mask_i32gather_pd(_mm256_setzero_pd(), values, ridx, all, 8);
}

}  // namespace

__attribute__((target("avx2"))) void GatherDoublesAvx2(const double* values,
                                                       const uint32_t* rows,
                                                       size_t n,
                                                       double* out) {
  size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    const __m128i ridx = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(rows + k));
    const __m256d v = GatherPd(values, ridx);
    _mm256_storeu_pd(out + k, v);
  }
  for (; k < n; ++k) out[k] = values[rows[k]];
}

__attribute__((target("avx2"))) double MinGatherAvx2(const double* values,
                                                     const uint32_t* rows,
                                                     size_t n) {
  size_t k = 0;
  double m = values[rows[0]];
  if (n >= 4) {
    __m256d acc = _mm256_set1_pd(m);
    for (; k + 4 <= n; k += 4) {
      const __m128i ridx = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(rows + k));
      acc = _mm256_min_pd(acc, GatherPd(values, ridx));
    }
    const __m128d lo = _mm256_castpd256_pd128(acc);
    const __m128d hi = _mm256_extractf128_pd(acc, 1);
    const __m128d m2 = _mm_min_pd(lo, hi);
    const __m128d m1 = _mm_min_sd(m2, _mm_unpackhi_pd(m2, m2));
    m = _mm_cvtsd_f64(m1);
  }
  for (; k < n; ++k) {
    const double v = values[rows[k]];
    if (v < m) m = v;
  }
  return m;
}

__attribute__((target("avx2"))) double MaxGatherAvx2(const double* values,
                                                     const uint32_t* rows,
                                                     size_t n) {
  size_t k = 0;
  double m = values[rows[0]];
  if (n >= 4) {
    __m256d acc = _mm256_set1_pd(m);
    for (; k + 4 <= n; k += 4) {
      const __m128i ridx = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(rows + k));
      acc = _mm256_max_pd(acc, GatherPd(values, ridx));
    }
    const __m128d lo = _mm256_castpd256_pd128(acc);
    const __m128d hi = _mm256_extractf128_pd(acc, 1);
    const __m128d m2 = _mm_max_pd(lo, hi);
    const __m128d m1 = _mm_max_sd(m2, _mm_unpackhi_pd(m2, m2));
    m = _mm_cvtsd_f64(m1);
  }
  for (; k < n; ++k) {
    const double v = values[rows[k]];
    if (v > m) m = v;
  }
  return m;
}

__attribute__((target("avx2"))) void BitUnpackAvx2(const uint8_t* packed,
                                                   size_t n, unsigned width,
                                                   uint32_t* out) {
  const __m256i mask = _mm256_set1_epi64x(
      width >= 64 ? -1 : static_cast<long long>((1ull << width) - 1));
  // Lane k reads the 8 bytes containing value (i+k)'s first bit and
  // shifts by the sub-byte remainder: a value of <= 32 bits starting
  // anywhere inside a byte always fits those 8 bytes.
  const uint64_t w = width;
  __m256i bitpos = _mm256_set_epi64x(static_cast<long long>(3 * w),
                                     static_cast<long long>(2 * w),
                                     static_cast<long long>(w), 0);
  const __m256i step = _mm256_set1_epi64x(static_cast<long long>(4 * w));
  const __m256i seven = _mm256_set1_epi64x(7);
  const __m256i compact = _mm256_set_epi32(0, 0, 0, 0, 6, 4, 2, 0);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i bytes = _mm256_srli_epi64(bitpos, 3);
    const __m256i shifts = _mm256_and_si256(bitpos, seven);
    __m256i v = _mm256_i64gather_epi64(
        reinterpret_cast<const long long*>(packed), bytes, 1);
    v = _mm256_srlv_epi64(v, shifts);
    v = _mm256_and_si256(v, mask);
    const __m128i four = _mm256_castsi256_si128(
        _mm256_permutevar8x32_epi32(v, compact));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i), four);
    bitpos = _mm256_add_epi64(bitpos, step);
  }
  if (i < n) {
    // Tail re-derives positions from i — identical bit arithmetic.
    const uint64_t mask_s = width >= 64 ? ~0ull : ((1ull << width) - 1);
    for (; i < n; ++i) {
      const size_t bit = i * w;
      uint64_t word;
      __builtin_memcpy(&word, packed + (bit >> 3), 8);
      out[i] = static_cast<uint32_t>((word >> (bit & 7)) & mask_s);
    }
  }
}

__attribute__((target("avx2"))) void ForDeltaReconstructAvx2(
    const uint32_t* zz, size_t n, uint32_t base, int32_t* out) {
  const __m256i one = _mm256_set1_epi32(1);
  const __m256i zero = _mm256_setzero_si256();
  __m256i carry = _mm256_set1_epi32(static_cast<int>(base));
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i z = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(zz + i));
    // Zigzag decode per lane: (z >> 1) ^ -(z & 1).
    __m256i d = _mm256_xor_si256(
        _mm256_srli_epi32(z, 1),
        _mm256_sub_epi32(zero, _mm256_and_si256(z, one)));
    // In-register inclusive prefix sum within each 128-bit half...
    d = _mm256_add_epi32(d, _mm256_slli_si256(d, 4));
    d = _mm256_add_epi32(d, _mm256_slli_si256(d, 8));
    // ...then fold the low half's total into the high half: broadcast
    // lane 3 everywhere and zero it out of the low half.
    __m256i low_total =
        _mm256_permutevar8x32_epi32(d, _mm256_set1_epi32(3));
    low_total = _mm256_blend_epi32(zero, low_total, 0xF0);
    d = _mm256_add_epi32(d, low_total);
    const __m256i v = _mm256_add_epi32(d, carry);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), v);
    carry = _mm256_permutevar8x32_epi32(v, _mm256_set1_epi32(7));
  }
  if (i < n) {
    uint32_t v = static_cast<uint32_t>(
        _mm256_extract_epi32(carry, 0));
    for (; i < n; ++i) {
      v += ZigzagDecode32(zz[i]);
      out[i] = static_cast<int32_t>(v);
    }
  }
}

#endif  // x86

}  // namespace ps3::runtime
