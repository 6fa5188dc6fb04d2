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

namespace {

/// Squared distances from points i..i+3 to `center`, summed over the
/// dimensions in order (SquaredDistanceScalar's order, one point per lane).
__attribute__((target("avx2"))) inline __m256d SquaredDistance4(
    const double* points, size_t stride, size_t i, size_t dim,
    const double* center) {
  __m256d acc = _mm256_setzero_pd();
  for (size_t d = 0; d < dim; ++d) {
    const __m256d t = _mm256_sub_pd(_mm256_loadu_pd(points + d * stride + i),
                                    _mm256_broadcast_sd(center + d));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(t, t));
  }
  return acc;
}

/// One step of the nearest-center scan: lanes where `dist` beats `best`
/// (strictly, so an earlier center keeps a tie) take center `c`.
__attribute__((target("avx2"))) inline void TakeIfCloser(
    __m256d dist, size_t c, __m256d* best, __m256d* best_c) {
  const __m256d closer = _mm256_cmp_pd(dist, *best, _CMP_LT_OQ);
  *best = _mm256_blendv_pd(*best, dist, closer);
  *best_c = _mm256_blendv_pd(*best_c, _mm256_set1_pd(static_cast<double>(c)),
                             closer);
}

}  // namespace

__attribute__((target("avx2"))) void SquaredDistancesAvx2(
    const double* points, size_t stride, size_t n, size_t dim,
    const double* center, double* out) {
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m256d a0 = _mm256_setzero_pd(), a1 = a0, a2 = a0, a3 = a0;
    for (size_t d = 0; d < dim; ++d) {
      const double* x = points + d * stride + i;
      const __m256d c = _mm256_broadcast_sd(center + d);
      const __m256d t0 = _mm256_sub_pd(_mm256_loadu_pd(x), c);
      const __m256d t1 = _mm256_sub_pd(_mm256_loadu_pd(x + 4), c);
      const __m256d t2 = _mm256_sub_pd(_mm256_loadu_pd(x + 8), c);
      const __m256d t3 = _mm256_sub_pd(_mm256_loadu_pd(x + 12), c);
      a0 = _mm256_add_pd(a0, _mm256_mul_pd(t0, t0));
      a1 = _mm256_add_pd(a1, _mm256_mul_pd(t1, t1));
      a2 = _mm256_add_pd(a2, _mm256_mul_pd(t2, t2));
      a3 = _mm256_add_pd(a3, _mm256_mul_pd(t3, t3));
    }
    _mm256_storeu_pd(out + i, a0);
    _mm256_storeu_pd(out + i + 4, a1);
    _mm256_storeu_pd(out + i + 8, a2);
    _mm256_storeu_pd(out + i + 12, a3);
  }
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(out + i, SquaredDistance4(points, stride, i, dim, center));
  }
  if (i < n) {
    SquaredDistancesScalar(points + i, stride, n - i, dim, center, out + i);
  }
}

__attribute__((target("avx2"))) void NearestCentersAvx2(
    const double* points, size_t stride, size_t n, size_t dim,
    const double* centers, size_t k, int32_t* nearest) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d best = _mm256_set1_pd(std::numeric_limits<double>::max());
    __m256d best_c = _mm256_setzero_pd();
    size_t c = 0;
    for (; c + 4 <= k; c += 4) {
      const double* c0 = centers + c * dim;
      const double* c1 = c0 + dim;
      const double* c2 = c1 + dim;
      const double* c3 = c2 + dim;
      __m256d a0 = _mm256_setzero_pd(), a1 = a0, a2 = a0, a3 = a0;
      for (size_t d = 0; d < dim; ++d) {
        const __m256d x = _mm256_loadu_pd(points + d * stride + i);
        const __m256d t0 = _mm256_sub_pd(x, _mm256_broadcast_sd(c0 + d));
        const __m256d t1 = _mm256_sub_pd(x, _mm256_broadcast_sd(c1 + d));
        const __m256d t2 = _mm256_sub_pd(x, _mm256_broadcast_sd(c2 + d));
        const __m256d t3 = _mm256_sub_pd(x, _mm256_broadcast_sd(c3 + d));
        a0 = _mm256_add_pd(a0, _mm256_mul_pd(t0, t0));
        a1 = _mm256_add_pd(a1, _mm256_mul_pd(t1, t1));
        a2 = _mm256_add_pd(a2, _mm256_mul_pd(t2, t2));
        a3 = _mm256_add_pd(a3, _mm256_mul_pd(t3, t3));
      }
      TakeIfCloser(a0, c, &best, &best_c);
      TakeIfCloser(a1, c + 1, &best, &best_c);
      TakeIfCloser(a2, c + 2, &best, &best_c);
      TakeIfCloser(a3, c + 3, &best, &best_c);
    }
    for (; c < k; ++c) {
      TakeIfCloser(SquaredDistance4(points, stride, i, dim, centers + c * dim),
                   c, &best, &best_c);
    }
    // Center indices are small integers, exact in doubles.
    _mm_storeu_si128(reinterpret_cast<__m128i*>(nearest + i),
                     _mm256_cvttpd_epi32(best_c));
  }
  if (i < n) {
    NearestCentersScalar(points + i, stride, n - i, dim, centers, k,
                         nearest + i);
  }
}

#endif  // x86

}  // namespace ps3::runtime
