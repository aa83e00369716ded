// n-dimensional Hilbert space-filling curve.
//
// The SPB-tree (Section 5.4) maps pre-computed pivot distances to integer
// SFC values "while (to some extent) maintaining spatial proximity"; this
// is the curve it uses: Skilling's public-domain transpose algorithm
// (AxestoTranspose / TransposetoAxes, 2004), run as one branch-free pass
// over the key's bit string (see hilbert.cc).

#ifndef PMI_STORAGE_HILBERT_H_
#define PMI_STORAGE_HILBERT_H_

#include <cstdint>

namespace pmi {

/// Hilbert curve over `dims` dimensions with `bits` bits per dimension.
/// Requires dims * bits <= 63 so keys fit a uint64 (and leave headroom
/// for B+-tree sentinel use), and bits <= 16.
class HilbertCurve {
 public:
  static constexpr uint32_t kMaxKeyBits = 63;
  static constexpr uint32_t kMaxBits = 16;

  /// True when HilbertCurve(dims, bits) is a valid curve.
  static bool Fits(uint32_t dims, uint32_t bits) {
    return dims >= 1 && bits >= 1 && bits <= kMaxBits &&
           dims <= kMaxKeyBits / bits;
  }

  /// Aborts, in every build mode, unless Fits(dims, bits).
  HilbertCurve(uint32_t dims, uint32_t bits);

  uint32_t dims() const { return dims_; }
  uint32_t bits() const { return bits_; }

  /// Largest coordinate value, (1 << bits) - 1.
  uint32_t max_coord() const { return (1u << bits_) - 1; }

  /// Curve position of the cell `coords` (each < 2^bits).
  uint64_t Encode(const uint32_t* coords) const;

  /// Inverse of Encode.
  void Decode(uint64_t key, uint32_t* coords) const;

  /// Convenience: picks the largest usable bits for `dims` (<= 16).
  static uint32_t AutoBits(uint32_t dims) {
    uint32_t b = kMaxKeyBits / dims;
    return b > kMaxBits ? kMaxBits : (b == 0 ? 1 : b);
  }

 private:
  uint32_t dims_;
  uint32_t bits_;
};

}  // namespace pmi

#endif  // PMI_STORAGE_HILBERT_H_
