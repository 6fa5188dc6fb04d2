// Runtime SIMD capability dispatch for the explicit kernels in the query
// engine. Kernels are compiled with per-function target attributes, so the
// binary runs on any x86-64 (or non-x86) host and upgrades itself at
// runtime when AVX2 is present. The scalar kernels remain the bit-exactness
// reference; SIMD variants must produce identical results.
//
// Grouped-aggregation kernel: the engine's determinism contract pins the
// *order of floating-point additions* per group (ascending row order,
// identical to the scalar interpreter), so no aggregate is accumulated in
// lanes. What is vectorized is the integer work that feeds the ordered
// accumulate loop: DenseGroupIds* turns the selected rows' dictionary
// codes into dense group ids with AVX2 gathers.
#ifndef PS3_RUNTIME_SIMD_H_
#define PS3_RUNTIME_SIMD_H_

#include <cstddef>
#include <cstdint>
#include <limits>

namespace ps3::runtime {

/// Kernel selection for the vectorized execution policy.
enum class SimdLevel {
  kAuto,  ///< use AVX2 when the CPU supports it
  kNone,  ///< force the scalar word-packing kernels
  kAvx2,  ///< force AVX2 (caller must know the CPU supports it)
};

/// True when this process can execute AVX2 instructions.
bool Avx2Available();

// ---------------------------------------------------------------------
// Scalar reference kernels (always available, any architecture). The
// AVX2 variants must match these bit-for-bit on the engine's data.

/// ids[k] = sum_g codes[g][rows[k]] * strides[g] — the dense group-id of
/// each selected row. Products and sums must fit uint32 (the engine caps
/// the dense id space at 2^20).
inline void DenseGroupIdsScalar(const int32_t* const* codes,
                                const uint32_t* strides, size_t n_group_cols,
                                const uint32_t* rows, size_t n,
                                uint32_t* ids) {
  for (size_t k = 0; k < n; ++k) {
    const uint32_t r = rows[k];
    uint32_t id = 0;
    for (size_t g = 0; g < n_group_cols; ++g) {
      id += static_cast<uint32_t>(codes[g][r]) * strides[g];
    }
    ids[k] = id;
  }
}

// ---------------------------------------------------------------------
// Segment-decode kernels (io/partition_file's compressed segments).
//
// Bit-packing layout: n values of `width` bits (1..32) are packed
// LSB-first into a little-endian stream of 64-bit words; the payload is
// padded to a whole number of words. Value i occupies bits
// [i*width, (i+1)*width) of the stream. The scalar kernels are the
// bit-exactness reference; the AVX2 unpack must produce identical
// output for identical input.

/// Packed payload size in bytes for n values at `width` bits: whole
/// 64-bit words, zero-padded.
inline size_t BitPackedBytes(size_t n, unsigned width) {
  return ((n * width + 63) / 64) * 8;
}

/// Bits needed to represent v (>= 1 so a zero-valued segment still has a
/// well-formed width).
inline unsigned BitWidthForU32(uint32_t v) {
  unsigned w = 1;
  while (w < 32 && (v >> w) != 0) ++w;
  return w;
}

/// Zigzag map for signed deltas: 0,-1,1,-2,2... -> 0,1,2,3,4..., so
/// descending runs pack as tightly as ascending ones.
inline uint32_t ZigzagEncode32(int32_t v) {
  return (static_cast<uint32_t>(v) << 1) ^
         static_cast<uint32_t>(v >> 31);
}

inline uint32_t ZigzagDecode32(uint32_t z) {
  return (z >> 1) ^ (~(z & 1) + 1);
}

/// Packs n values at `width` bits into `out`, which must hold
/// BitPackedBytes(n, width) zero-initialized bytes. Values must fit
/// `width` bits. Write-path only; no SIMD variant (spill is
/// once-per-table, decode is once-per-cold-scan).
inline void BitPackScalar(const uint32_t* values, size_t n, unsigned width,
                          uint8_t* out);

/// Unpacks n values of `width` bits (1..32) from `packed`, which holds
/// BitPackedBytes(n, width) bytes. Reads whole 64-bit words within the
/// padded payload only — no slack needed.
inline void BitUnpackScalar(const uint8_t* packed, size_t n, unsigned width,
                            uint32_t* out);

/// Frame-of-reference + delta reconstruction: out[i] =
/// base + sum_{j<=i} zigzag_decode(zz[j]) in wrapping uint32 arithmetic,
/// reinterpreted as int32. The encoder stores base = first value and
/// zz[0] = 0, but any (base, deltas) pair decodes deterministically.
inline void ForDeltaReconstructScalar(const uint32_t* zz, size_t n,
                                      uint32_t base, int32_t* out) {
  uint32_t v = base;
  for (size_t i = 0; i < n; ++i) {
    v += ZigzagDecode32(zz[i]);
    out[i] = static_cast<int32_t>(v);
  }
}

inline void BitPackScalar(const uint32_t* values, size_t n, unsigned width,
                          uint8_t* out) {
  for (size_t i = 0; i < n; ++i) {
    const size_t bit = i * width;
    const size_t byte = bit >> 3;
    const unsigned off = static_cast<unsigned>(bit & 7);
    // Read-modify-write exactly the bytes this value spans (<= 5: 32
    // bits plus 7 bits of misalignment); the value's last bit is inside
    // the padded payload, so the span is too.
    const size_t nbytes = (off + width + 7) >> 3;
    uint64_t word = 0;
    __builtin_memcpy(&word, out + byte, nbytes);
    word |= static_cast<uint64_t>(values[i]) << off;
    __builtin_memcpy(out + byte, &word, nbytes);
  }
}

inline void BitUnpackScalar(const uint8_t* packed, size_t n, unsigned width,
                            uint32_t* out) {
  const uint64_t mask = (width >= 64) ? ~0ull : ((1ull << width) - 1);
  for (size_t i = 0; i < n; ++i) {
    const size_t bit = i * width;
    const size_t word_idx = bit >> 6;
    const unsigned off = static_cast<unsigned>(bit & 63);
    uint64_t lo;
    __builtin_memcpy(&lo, packed + 8 * word_idx, 8);
    uint64_t v = lo >> off;
    if (off + width > 64) {
      // The value straddles into the next word, which exists because the
      // value's last bit lies inside the padded payload.
      uint64_t hi;
      __builtin_memcpy(&hi, packed + 8 * (word_idx + 1), 8);
      v |= hi << (64 - off);
    }
    out[i] = static_cast<uint32_t>(v & mask);
  }
}

// ---------------------------------------------------------------------
// k-means distance kernels (cluster/kmeans).
//
// Points are dim-major with a stride: coordinate d of point i is
// points[d * stride + i], so one 4-wide load holds coordinate d of four
// consecutive points. Centers are point-major: coordinate d of center c
// is centers[c * dim + d]. A squared distance is
//   acc = 0.0; for d = 0..dim-1: diff = x[d] - center[d]; acc += diff*diff
// -- one subtract, one multiply and one add per dimension, in dimension
// order, with no FMA and no reassociation. The AVX2 variants run four
// points side by side in that same order, so they match the scalar
// references bit for bit. (The project builds without -mfma, so the
// compiler cannot contract the multiply-add either.)

/// Squared distance from point i to `center`, summed in the order above.
inline double SquaredDistanceScalar(const double* points, size_t stride,
                                    size_t i, size_t dim,
                                    const double* center) {
  double acc = 0.0;
  for (size_t d = 0; d < dim; ++d) {
    const double diff = points[d * stride + i] - center[d];
    acc += diff * diff;
  }
  return acc;
}

/// out[i] = squared distance from point i to `center`, for i < n.
inline void SquaredDistancesScalar(const double* points, size_t stride,
                                   size_t n, size_t dim,
                                   const double* center, double* out) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = SquaredDistanceScalar(points, stride, i, dim, center);
  }
}

/// nearest[i] = the center closest to point i, for i < n: the lowest
/// index among the centers at the minimum distance. A point whose
/// distances are all >= DBL_MAX (or NaN) gets center 0.
inline void NearestCentersScalar(const double* points, size_t stride,
                                 size_t n, size_t dim,
                                 const double* centers, size_t k,
                                 int32_t* nearest) {
  for (size_t i = 0; i < n; ++i) {
    double best = std::numeric_limits<double>::max();
    int32_t best_c = 0;
    for (size_t c = 0; c < k; ++c) {
      const double d =
          SquaredDistanceScalar(points, stride, i, dim, centers + c * dim);
      if (d < best) {
        best = d;
        best_c = static_cast<int32_t>(c);
      }
    }
    nearest[i] = best_c;
  }
}

/// Readable slack the AVX2 unpack kernel requires *past* the packed
/// payload: it 64-bit-gathers at byte granularity, so the last values'
/// loads reach up to 7 bytes beyond their final bit. Callers (the
/// partition reader, tests) allocate payload + this; the garbage bits
/// are masked off, only readability matters. Defined unconditionally so
/// decode-buffer sizing is identical on every platform.
constexpr size_t kBitUnpackSlackBytes = 8;

#if defined(__x86_64__) || defined(__i386__)
/// AVX2 gather kernel for the dictionary-coded IN-list probe (set sizes
/// too large for the cmpeq chain): probes a per-dictionary membership
/// table — one 32-bit lane per code, 0xFFFFFFFF = member, 0 = not — with
/// _mm256_i32gather_epi32 for 8 codes at a time and packs the gathered
/// sign bits into the bitmap words, matching the scalar pack's bit order
/// (bit b = row base[b]). Fills the `full_words` complete 64-row words;
/// the caller packs the sub-word tail with the scalar reference. Every
/// code in `codes` must be a valid table index (storage guarantees codes
/// < dictionary size). Caller must have verified AVX2 support.
void InSetGatherWordsAvx2(const int32_t* codes, size_t full_words,
                          const uint32_t* table, uint64_t* words);

/// AVX2 DenseGroupIdsScalar: gathers 8 rows' codes per group column and
/// multiply-accumulates the strides in 32-bit lanes. Bit-identical to
/// the scalar reference (integer arithmetic). Caller must have verified
/// AVX2 support; row indices must be < 2^31.
void DenseGroupIdsAvx2(const int32_t* const* codes, const uint32_t* strides,
                       size_t n_group_cols, const uint32_t* rows, size_t n,
                       uint32_t* ids);

/// AVX2 BitUnpackScalar: 4 values per iteration via _mm256_i64gather at
/// byte offsets + per-lane variable shifts. Bit-identical to the scalar
/// reference (pure bit movement). `packed` must be readable for
/// BitPackedBytes(n, width) + kBitUnpackSlackBytes bytes.
void BitUnpackAvx2(const uint8_t* packed, size_t n, unsigned width,
                   uint32_t* out);

/// AVX2 ForDeltaReconstructScalar: zigzag-decodes 8 deltas per
/// iteration and prefix-sums them in 32-bit lanes with a running carry.
/// Wrapping integer arithmetic — bit-identical to the scalar reference.
void ForDeltaReconstructAvx2(const uint32_t* zz, size_t n, uint32_t base,
                             int32_t* out);

/// AVX2 SquaredDistancesScalar: 16 points per pass in four independent
/// accumulators, then 4 at a time; the last n % 4 points run the scalar
/// reference.
void SquaredDistancesAvx2(const double* points, size_t stride, size_t n,
                          size_t dim, const double* center, double* out);

/// AVX2 NearestCentersScalar: 4 points against 4 centers per pass (one
/// point load feeds four accumulators), compared in center order so ties
/// keep the lowest index; the last n % 4 points run the scalar reference.
void NearestCentersAvx2(const double* points, size_t stride, size_t n,
                        size_t dim, const double* centers, size_t k,
                        int32_t* nearest);
#endif

/// Resolves kAuto against the host CPU.
inline bool UseAvx2(SimdLevel level) {
  switch (level) {
    case SimdLevel::kNone:
      return false;
    case SimdLevel::kAvx2:
      return true;
    case SimdLevel::kAuto:
    default:
      return Avx2Available();
  }
}

}  // namespace ps3::runtime

#endif  // PS3_RUNTIME_SIMD_H_
