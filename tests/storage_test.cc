// Unit tests for the simulated-disk substrate: PagedFile (PA accounting,
// LRU behaviour), RecordFile, the Hilbert curve (pinned bit for bit to a
// frozen copy of Skilling's reference transforms), and the buffer pool's
// behaviour over a faulting Env-backed page store.

#include <algorithm>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/rng.h"
#include "src/storage/buffer_pool.h"
#include "src/storage/fault_env.h"
#include "src/storage/hilbert.h"
#include "src/storage/paged_file.h"
#include "src/storage/raf.h"

namespace pmi {
namespace {

TEST(PagedFileTest, AllocateIsFreeUntilWritten) {
  PerfCounters c;
  PagedFile f(4096, 4 * 4096, &c);
  PageId p = f.Allocate();
  EXPECT_EQ(c.page_accesses(), 0u);
  PageHandle h = f.Write(p, /*load=*/false);
  std::memset(h.mutable_data(), 7, 4096);
  EXPECT_EQ(c.page_reads, 0u);
  EXPECT_EQ(c.page_writes, 0u);  // still dirty in pool
  f.Flush();
  EXPECT_EQ(c.page_writes, 1u);
  f.Flush();
  EXPECT_EQ(c.page_writes, 1u) << "clean page must not be re-flushed";
}

TEST(PagedFileTest, CachedReadIsFree) {
  PerfCounters c;
  PagedFile f(4096, 4 * 4096, &c);
  PageId p = f.Allocate();
  f.Write(p, /*load=*/false);
  f.Flush();
  c.Reset();
  f.Read(p);  // resident
  EXPECT_EQ(c.page_reads, 0u);
  f.DropCache();
  c.Reset();
  f.Read(p);
  EXPECT_EQ(c.page_reads, 1u);
  f.Read(p);
  EXPECT_EQ(c.page_reads, 1u) << "second read must hit the pool";
}

TEST(PagedFileTest, LruEvictionChargesDirtyWriteback) {
  PerfCounters c;
  PagedFile f(4096, 2 * 4096, &c);  // 2 frames
  PageId a = f.Allocate(), b = f.Allocate(), d = f.Allocate();
  f.Write(a, false);
  f.Write(b, false);
  EXPECT_EQ(c.page_writes, 0u);
  f.Write(d, false);  // evicts a (dirty)
  EXPECT_EQ(c.page_writes, 1u);
  c.Reset();
  f.Read(a);  // miss -> read, evicts b (dirty)
  EXPECT_EQ(c.page_reads, 1u);
  EXPECT_EQ(c.page_writes, 1u);
}

TEST(PagedFileTest, LruKeepsHotPages) {
  PerfCounters c;
  PagedFile f(4096, 2 * 4096, &c);
  PageId a = f.Allocate(), b = f.Allocate(), d = f.Allocate();
  f.Read(a);
  f.Read(b);
  c.Reset();
  f.Read(a);         // refresh a
  f.Read(d);         // evicts b, not a
  f.Read(a);
  EXPECT_EQ(c.page_reads, 1u) << "a must stay resident";
}

TEST(PagedFileTest, DataSurvivesEviction) {
  PerfCounters c;
  PagedFile f(256, 256, &c);  // 1 frame
  std::vector<PageId> pages;
  for (int i = 0; i < 10; ++i) {
    PageId p = f.Allocate();
    PageHandle h = f.Write(p, false);
    std::memset(h.mutable_data(), i, 256);
    pages.push_back(p);
  }
  for (int i = 0; i < 10; ++i) {
    PageHandle h = f.Read(pages[i]);
    EXPECT_EQ(h.data()[0], static_cast<char>(i));
    EXPECT_EQ(h.data()[255], static_cast<char>(i));
  }
}

TEST(RafTest, RoundTripsRecords) {
  PerfCounters c;
  PagedFile f(4096, 128 * 1024, &c);
  RecordFile raf(&f);
  Rng rng(3);
  std::vector<std::pair<RafRef, std::vector<char>>> recs;
  for (int i = 0; i < 500; ++i) {
    uint32_t len = 1 + rng() % 200;
    std::vector<char> data(len);
    for (auto& ch : data) ch = static_cast<char>(rng());
    recs.emplace_back(raf.Append(data.data(), len), data);
  }
  std::vector<char> out;
  for (auto& [ref, expect] : recs) {
    ASSERT_TRUE(raf.ReadRecord(ref, &out).ok());
    EXPECT_EQ(out, expect);
  }
}

TEST(RafTest, RecordsDoNotStraddlePagesWhenTheyFit) {
  PerfCounters c;
  PagedFile f(256, 1024, &c);
  RecordFile raf(&f);
  std::vector<char> blob(200, 'x');
  raf.Append(blob.data(), 200);  // fills most of page 0
  RafRef second = raf.Append(blob.data(), 200);
  EXPECT_EQ(second.offset % 256, 0u) << "record should start a fresh page";
  f.DropCache();
  c.Reset();
  std::vector<char> out;
  ASSERT_TRUE(raf.ReadRecord(second, &out).ok());
  EXPECT_EQ(c.page_reads, 1u) << "a fitting record costs one page read";
}

TEST(RafTest, LargeRecordsSpanPagesAndChargeEachPage) {
  PerfCounters c;
  PagedFile f(256, 4 * 256, &c);
  RecordFile raf(&f);
  std::vector<char> blob(700);
  for (int i = 0; i < 700; ++i) blob[i] = static_cast<char>(i % 128);
  RafRef ref = raf.Append(blob.data(), 700);
  f.DropCache();
  c.Reset();
  std::vector<char> out;
  ASSERT_TRUE(raf.ReadRecord(ref, &out).ok());
  EXPECT_EQ(out, blob);
  EXPECT_EQ(c.page_reads, 3u);
}

TEST(RafTest, OutOfBoundsRefIsDataLossNotUb) {
  PerfCounters c;
  PagedFile f(256, 1024, &c);
  RecordFile raf(&f);
  std::vector<char> blob(100, 'x');
  raf.Append(blob.data(), 100);
  std::vector<char> out;
  // Past-the-end offset, overlong length, and an offset+length overflow
  // (as a corrupt snapshot could produce) must all surface as kDataLoss.
  EXPECT_EQ(raf.ReadRecord({200, 10}, &out).code(), StatusCode::kDataLoss);
  EXPECT_EQ(raf.ReadRecord({0, 101}, &out).code(), StatusCode::kDataLoss);
  EXPECT_EQ(raf.ReadRecord({UINT64_MAX, 16}, &out).code(),
            StatusCode::kDataLoss);
  EXPECT_TRUE(raf.ReadRecord({0, 100}, &out).ok());
}

TEST(PagedFileTest, OutOfRangePageIsDataLoss) {
  PerfCounters c;
  PagedFile f(256, 1024, &c);
  f.Allocate();
  EXPECT_TRUE(f.ReadPage(0).ok());
  EXPECT_EQ(f.ReadPage(1).status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(f.WritePage(7).status().code(), StatusCode::kDataLoss);
}

TEST(BufferPoolFaultTest, FaultedWriteBackSurfacesTypedErrorAndRecovers) {
  const std::string path =
      ::testing::TempDir() + "pmi_pool_fault_sync.pages";
  FaultInjectingEnv fenv(Env::Default());
  EnvPageStore store(&fenv, path, 256);
  ASSERT_TRUE(store.Open().ok());
  BufferPool pool(256, 2 * 256);
  uint64_t sid = pool.RegisterStore(&store, nullptr);
  {
    auto h = pool.Pin(sid, 0, /*for_write=*/true, /*load=*/false);
    ASSERT_TRUE(h.ok());
    std::memset(h->mutable_data(), 'a', 256);
  }
  // The write-back is one Append + one Sync; fail the Sync.  The store
  // must surface the typed error and keep the old (empty) version as
  // the durable one -- and the pool must keep the frame dirty and
  // resident so nothing is lost.
  fenv.Arm({FaultKind::kFailedSync, /*trigger=*/1, /*seed=*/3});
  Status s = pool.FlushStore(sid);
  EXPECT_EQ(s.code(), StatusCode::kUnavailable) << s.ToString();
  EXPECT_TRUE(fenv.triggered());
  EXPECT_EQ(pool.stats().write_back_failures, 1u);
  EXPECT_EQ(pool.resident_frames(), 1u) << "faulted victim must stay cached";
  // The env is alive again (kFailedSync does not crash); a retry flushes.
  fenv.Arm({FaultKind::kNone, 0, 1});
  ASSERT_TRUE(pool.FlushStore(sid).ok());
  // Prove durability by dropping the frame and re-reading through the
  // store: the bytes must come back from the file, not the cache.
  pool.DropStore(sid);
  EXPECT_EQ(pool.resident_frames(), 0u);
  auto h = pool.Pin(sid, 0, /*for_write=*/false);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->data()[0], 'a');
  EXPECT_EQ(h->data()[255], 'a');
  h->Reset();
  pool.UnregisterStore(sid);
  ASSERT_TRUE(Env::Default()->RemoveFile(path).ok());
}

TEST(BufferPoolFaultTest, BitFlipIsCaughtByPageChecksum) {
  const std::string path =
      ::testing::TempDir() + "pmi_pool_fault_flip.pages";
  FaultInjectingEnv fenv(Env::Default());
  EnvPageStore store(&fenv, path, 256);
  ASSERT_TRUE(store.Open().ok());
  BufferPool pool(256, 2 * 256);
  uint64_t sid = pool.RegisterStore(&store, nullptr);
  {
    auto h = pool.Pin(sid, 0, /*for_write=*/true, /*load=*/false);
    ASSERT_TRUE(h.ok());
    std::memset(h->mutable_data(), 'b', 256);
  }
  // Flip one bit inside the appended record: the write "succeeds"
  // (silent media corruption), so the flush reports OK...
  fenv.Arm({FaultKind::kBitFlip, /*trigger=*/0, /*seed=*/7});
  ASSERT_TRUE(pool.FlushStore(sid).ok());
  EXPECT_TRUE(fenv.triggered());
  // ...and the corruption must surface as kDataLoss on the next
  // physical read, never as silently wrong page bytes.
  pool.DropStore(sid);
  auto h = pool.Pin(sid, 0, /*for_write=*/false);
  ASSERT_FALSE(h.ok());
  EXPECT_EQ(h.status().code(), StatusCode::kDataLoss) << h.status().ToString();
  pool.UnregisterStore(sid);
  ASSERT_TRUE(Env::Default()->RemoveFile(path).ok());
}

// Frozen reference curve: Skilling's in-place transforms between axes
// and the "transpose" form of the Hilbert index (bit-plane-major), plus
// the plane interleave that makes the key, exactly as HilbertCurve ran
// them before its branch-free kernel.  Public domain (J. Skilling,
// "Programming the Hilbert curve", AIP 2004).  The SPB-tree's key order,
// and so its RAF layout, PA and compdists, is defined by this curve:
// HilbertCurve must equal it for every key and cell, not just round-trip.
void AxesToTranspose(uint32_t* x, uint32_t bits, uint32_t n) {
  uint32_t m = 1u << (bits - 1);
  // Inverse undo.
  for (uint32_t q = m; q > 1; q >>= 1) {
    uint32_t p = q - 1;
    for (uint32_t i = 0; i < n; ++i) {
      if (x[i] & q) {
        x[0] ^= p;  // invert
      } else {
        uint32_t t = (x[0] ^ x[i]) & p;  // exchange
        x[0] ^= t;
        x[i] ^= t;
      }
    }
  }
  // Gray encode.
  for (uint32_t i = 1; i < n; ++i) x[i] ^= x[i - 1];
  uint32_t t = 0;
  for (uint32_t q = m; q > 1; q >>= 1) {
    if (x[n - 1] & q) t ^= q - 1;
  }
  for (uint32_t i = 0; i < n; ++i) x[i] ^= t;
}

void TransposeToAxes(uint32_t* x, uint32_t bits, uint32_t n) {
  uint32_t nbit = 2u << (bits - 1);
  // Gray decode by H ^ (H/2).
  uint32_t t = x[n - 1] >> 1;
  for (uint32_t i = n - 1; i > 0; --i) x[i] ^= x[i - 1];
  x[0] ^= t;
  // Undo excess work.
  for (uint32_t q = 2; q != nbit; q <<= 1) {
    uint32_t p = q - 1;
    for (uint32_t i = n; i-- > 0;) {
      if (x[i] & q) {
        x[0] ^= p;
      } else {
        t = (x[0] ^ x[i]) & p;
        x[0] ^= t;
        x[i] ^= t;
      }
    }
  }
}

uint64_t ReferenceEncode(uint32_t dims_, uint32_t bits_,
                         const uint32_t* coords) {
  uint32_t x[64];
  for (uint32_t i = 0; i < dims_; ++i) {
    x[i] = coords[i];
  }
  AxesToTranspose(x, bits_, dims_);
  // Interleave the transpose bit-planes, MSB plane first: key bit
  // (bits-1-b)*dims + (dims-1-i) ... equivalently walk planes outward.
  uint64_t key = 0;
  for (uint32_t b = bits_; b-- > 0;) {
    for (uint32_t i = 0; i < dims_; ++i) {
      key = (key << 1) | ((x[i] >> b) & 1u);
    }
  }
  return key;
}

void ReferenceDecode(uint32_t dims_, uint32_t bits_, uint64_t key,
                     uint32_t* coords) {
  uint32_t x[64] = {0};
  uint32_t total = bits_ * dims_;
  for (uint32_t b = bits_; b-- > 0;) {
    for (uint32_t i = 0; i < dims_; ++i) {
      --total;
      x[i] |= static_cast<uint32_t>((key >> total) & 1u) << b;
    }
  }
  TransposeToAxes(x, bits_, dims_);
  for (uint32_t i = 0; i < dims_; ++i) coords[i] = x[i];
}

// Asserts Decode(key) and Encode(cell) equal the reference; the cell is
// the reference decode of `key`, so every key checked also checks one
// cell.  Returns false (after recording the failure) on a mismatch.
bool MatchesReference(const HilbertCurve& h, uint64_t key) {
  const uint32_t dims = h.dims(), bits = h.bits();
  uint32_t want[64], got[64];
  ReferenceDecode(dims, bits, key, want);
  h.Decode(key, got);
  for (uint32_t i = 0; i < dims; ++i) {
    if (got[i] != want[i]) {
      ADD_FAILURE() << "Decode differs: dims=" << dims << " bits=" << bits
                    << " key=" << key << " coord " << i << ": " << got[i]
                    << " != " << want[i];
      return false;
    }
  }
  const uint64_t want_key = ReferenceEncode(dims, bits, want);
  const uint64_t got_key = h.Encode(want);
  if (got_key != want_key) {
    ADD_FAILURE() << "Encode differs: dims=" << dims << " bits=" << bits
                  << " cell of key " << key << ": " << got_key
                  << " != " << want_key;
    return false;
  }
  return true;
}

TEST(HilbertReferenceTest, MatchesExhaustivelyUpTo16KeyBits) {
  for (uint32_t dims = 1; dims <= 16; ++dims) {
    for (uint32_t bits = 1; dims * bits <= 16; ++bits) {
      HilbertCurve h(dims, bits);
      const uint64_t keys = 1ull << (dims * bits);
      // The reference decode is a bijection, so this also checks Encode
      // on every cell.
      for (uint64_t key = 0; key < keys; ++key) {
        if (!MatchesReference(h, key)) break;
      }
    }
  }
}

TEST(HilbertReferenceTest, MatchesOnRandomKeysAtFullWidth) {
  // AutoBits is also the widest fit (dims * bits <= 63) for these dims;
  // 7 x 9, 9 x 7, 21 x 3 and 63 x 1 fill all 63 key bits.
  for (uint32_t dims : {5u, 7u, 9u, 21u, 31u, 63u}) {
    const uint32_t bits = HilbertCurve::AutoBits(dims);
    ASSERT_EQ(bits, HilbertCurve::kMaxKeyBits / dims);
    HilbertCurve h(dims, bits);
    const uint64_t mask = (1ull << (dims * bits)) - 1;
    Rng rng(20040 + dims);
    for (int trial = 0; trial < 100000; ++trial) {
      if (!MatchesReference(h, rng() & mask)) break;
    }
  }
}

TEST(HilbertReferenceTest, MatchesAtEveryShapeAndEdgeKey) {
  // Every valid (dims, bits): bits = 1, dims * bits = 63, bits = 16, and
  // everything between, on edge keys (all zeros, all ones, single bits,
  // alternating patterns, top plane only) plus seeded random keys.
  for (uint32_t dims = 1; dims <= HilbertCurve::kMaxKeyBits; ++dims) {
    for (uint32_t bits = 1; HilbertCurve::Fits(dims, bits); ++bits) {
      HilbertCurve h(dims, bits);
      const uint32_t total = dims * bits;
      const uint64_t mask = (1ull << total) - 1;
      std::vector<uint64_t> keys = {0,
                                    mask,
                                    0x5555555555555555ull & mask,
                                    0xAAAAAAAAAAAAAAAAull & mask,
                                    mask ^ (mask >> dims),
                                    mask >> dims};
      for (uint32_t b = 0; b < total; ++b) keys.push_back(1ull << b);
      Rng rng(dims * 64 + bits);
      for (int trial = 0; trial < 500; ++trial) keys.push_back(rng() & mask);
      for (uint64_t key : keys) {
        if (!MatchesReference(h, key)) break;
      }
      std::vector<uint32_t> top(dims, h.max_coord());
      EXPECT_EQ(h.Encode(top.data()), ReferenceEncode(dims, bits, top.data()));
    }
  }
}

TEST(HilbertReferenceTest, RejectsShapesThatDoNotFit) {
  EXPECT_TRUE(HilbertCurve::Fits(63, 1));
  EXPECT_TRUE(HilbertCurve::Fits(3, 16));
  EXPECT_FALSE(HilbertCurve::Fits(0, 1));
  EXPECT_FALSE(HilbertCurve::Fits(1, 0));
  EXPECT_FALSE(HilbertCurve::Fits(64, 1));
  EXPECT_FALSE(HilbertCurve::Fits(5, 13));
  EXPECT_FALSE(HilbertCurve::Fits(1, 17));
  EXPECT_DEATH(HilbertCurve(5, 13), "HilbertCurve");
  EXPECT_DEATH(HilbertCurve(64, 1), "HilbertCurve");
}

TEST(HilbertTest, BijectiveExhaustiveSmall) {
  for (uint32_t dims = 1; dims <= 3; ++dims) {
    for (uint32_t bits = 1; bits <= 4; ++bits) {
      HilbertCurve h(dims, bits);
      uint64_t cells = 1ull << (dims * bits);
      std::set<uint64_t> seen;
      uint32_t coords[3], back[3];
      for (uint64_t cell = 0; cell < cells; ++cell) {
        uint64_t rest = cell;
        for (uint32_t d = 0; d < dims; ++d) {
          coords[d] = rest & h.max_coord();
          rest >>= bits;
        }
        uint64_t key = h.Encode(coords);
        EXPECT_LT(key, cells);
        EXPECT_TRUE(seen.insert(key).second) << "duplicate key " << key;
        h.Decode(key, back);
        for (uint32_t d = 0; d < dims; ++d) EXPECT_EQ(back[d], coords[d]);
      }
    }
  }
}

TEST(HilbertTest, BijectiveRandomHighDim) {
  for (uint32_t dims : {5u, 7u, 9u}) {
    uint32_t bits = HilbertCurve::AutoBits(dims);
    EXPECT_LE(dims * bits, 63u);
    HilbertCurve h(dims, bits);
    Rng rng(17);
    std::vector<uint32_t> coords(dims), back(dims);
    for (int trial = 0; trial < 2000; ++trial) {
      for (uint32_t d = 0; d < dims; ++d) coords[d] = rng() % (h.max_coord() + 1);
      uint64_t key = h.Encode(coords.data());
      h.Decode(key, back.data());
      EXPECT_EQ(back, coords);
    }
  }
}

TEST(HilbertTest, CurveIsContinuous) {
  // Successive curve positions differ by exactly 1 in exactly one axis --
  // the defining locality property the SPB-tree relies on.
  HilbertCurve h(2, 5);
  uint32_t prev[2], cur[2];
  h.Decode(0, prev);
  for (uint64_t key = 1; key < (1ull << 10); ++key) {
    h.Decode(key, cur);
    uint32_t moved = 0, dist = 0;
    for (int d = 0; d < 2; ++d) {
      uint32_t diff = cur[d] > prev[d] ? cur[d] - prev[d] : prev[d] - cur[d];
      if (diff) ++moved;
      dist += diff;
    }
    EXPECT_EQ(moved, 1u) << "at key " << key;
    EXPECT_EQ(dist, 1u) << "at key " << key;
    prev[0] = cur[0];
    prev[1] = cur[1];
  }
}

}  // namespace
}  // namespace pmi
