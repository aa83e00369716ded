#include "src/storage/hilbert.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>

namespace pmi {

// Both directions compute Skilling's curve (J. Skilling, "Programming the
// Hilbert curve", AIP 2004) on the key's bit string.  The key interleaves
// the transpose bit-planes, plane bits-1 first and dimension 0 first
// within a plane, so:
//  - Skilling's Gray decode over all X[i] is one word op, key ^ (key >> 1),
//    and his Gray encode plus the `t` fix-up is its inverse, a prefix XOR
//    from the top bit down;
//  - the undo / inverse-undo step of plane k only rewrites bits below k,
//    so its conditions are the plane-k bits of the Gray-decoded key (or,
//    encoding, the plane-k bits the earlier steps left), and masks replace
//    the invert/exchange branches;
//  - each step works on the bits below k alone: decoding has not built
//    the higher planes yet and encoding has already emitted them.  On
//    those bits Skilling's exchange is a plain swap with x[0], which
//    stays in a register, so each key bit costs a few mask ops.

HilbertCurve::HilbertCurve(uint32_t dims, uint32_t bits)
    : dims_(dims), bits_(bits) {
  if (!Fits(dims, bits)) {
    std::fprintf(stderr,
                 "pmi fatal: HilbertCurve(dims=%u, bits=%u) needs "
                 "1 <= dims, 1 <= bits <= %u and dims * bits <= %u\n",
                 dims, bits, kMaxBits, kMaxKeyBits);
    std::abort();
  }
}

uint64_t HilbertCurve::Encode(const uint32_t* coords) const {
  uint32_t x[kMaxKeyBits];
  for (uint32_t i = 0; i < dims_; ++i) {
    assert(coords[i] <= max_coord());
    x[i] = coords[i];
  }
  // Inverse undo, top plane first.  When step k starts, plane k is final
  // and every higher plane is in the key: the step emits plane k as it
  // reads it, and x[] keeps only the bits below k.
  uint64_t key = 0;
  uint32_t x0 = x[0];
  for (uint32_t k = bits_; k-- > 0;) {
    const uint32_t p = (1u << k) - 1;
    uint32_t c = x0 >> k;
    key = (key << 1) | c;
    x0 = (x0 & p) ^ (p & (0u - c));  // invert when c == 1
    for (uint32_t i = 1; i < dims_; ++i) {
      const uint32_t xi = x[i] & p;
      c = x[i] >> k;
      key = (key << 1) | c;
      const uint32_t m = 0u - c;
      const uint32_t e = x0 ^ xi;
      // c == 1: invert x[0]; c == 0: exchange x[0] and x[i].
      x[i] = x0 ^ (e & m);
      x0 = xi ^ ((e ^ p) & m);
    }
  }
  // Gray encode: each key bit becomes the XOR of itself and every bit
  // above it.
  key ^= key >> 1;
  key ^= key >> 2;
  key ^= key >> 4;
  key ^= key >> 8;
  key ^= key >> 16;
  key ^= key >> 32;
  return key;
}

void HilbertCurve::Decode(uint64_t key, uint32_t* coords) const {
  // Gray decode, then undo excess work bottom plane first.  The Gray-
  // decoded key is consumed from its low end: plane k, dimension dims-1
  // down to 0, the order Skilling's loop visits them.  When step k starts,
  // coords[] and x0 hold only the planes below k.
  uint64_t g = key ^ (key >> 1);
  uint32_t x0 = 0;
  for (uint32_t i = 1; i < dims_; ++i) coords[i] = 0;
  for (uint32_t k = 0; k < bits_; ++k) {
    const uint32_t bk = 1u << k;
    const uint32_t p = bk - 1;
    for (uint32_t i = dims_ - 1; i > 0; --i) {
      const uint32_t c = static_cast<uint32_t>(g) & 1u;
      g >>= 1;
      const uint32_t m = 0u - c;
      const uint32_t xi = coords[i];
      const uint32_t e = x0 ^ xi;
      // c == 1: set plane k of x[i] and invert x[0]; c == 0: exchange.
      coords[i] = x0 ^ ((e ^ bk) & m);
      x0 = xi ^ ((e ^ p) & m);
    }
    const uint32_t c = static_cast<uint32_t>(g) & 1u;
    g >>= 1;
    x0 ^= (bk | p) & (0u - c);  // c == 1: set plane k, invert below it
  }
  coords[0] = x0;
}

}  // namespace pmi
