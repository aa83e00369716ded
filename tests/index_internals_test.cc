// Structural white-box tests for index internals that the black-box
// conformance suite cannot see: EPT row invariants, FQA sort order,
// M-index cluster-tree invariants, SPB-tree key stability and golden
// layout, CPT leaf pointers, and EPT group-size estimation.

#include <algorithm>
#include <memory>
#include <set>

#include <gtest/gtest.h>

#include "src/core/pivot_selection.h"
#include "src/data/generators.h"
#include "src/external/spb_tree.h"
#include "src/harness/registry.h"
#include "src/tables/ept.h"
#include "src/tables/psa.h"

namespace pmi {
namespace {

struct World {
  explicit World(BenchDatasetId id, uint32_t n)
      : bd(MakeBenchDataset(id, n, 21)) {
    PivotSelectionOptions po;
    po.sample_size = std::min(n, 1000u);
    pivots = SelectSharedPivots(bd.data, *bd.metric, 5, po);
  }
  BenchDataset bd;
  PivotSet pivots;
};

TEST(EptInternalsTest, GroupSizeEstimationStaysInRange) {
  World w(BenchDatasetId::kSynthetic, 3000);
  IndexOptions opts;
  opts.ept_group_size = 0;  // force Equation (1) estimation
  Ept ept(Ept::Variant::kClassic, opts);
  ept.Build(w.bd.data, *w.bd.metric, w.pivots);
  EXPECT_GE(ept.group_size(), 2u);
  EXPECT_LE(ept.group_size(), 16u);
}

TEST(EptInternalsTest, ExplicitGroupSizeIsHonored) {
  World w(BenchDatasetId::kLa, 2000);
  IndexOptions opts;
  opts.ept_group_size = 7;
  Ept ept(Ept::Variant::kClassic, opts);
  ept.Build(w.bd.data, *w.bd.metric, w.pivots);
  EXPECT_EQ(ept.group_size(), 7u);
}

TEST(PsaSelectorTest, StoredDistancesAreExact) {
  // The (pivot, distance) pairs PSA emits must be the true distances to
  // the chosen pool pivots -- Lemma 1 soundness depends on it.
  World w(BenchDatasetId::kColor, 600);
  PerfCounters c;
  DistanceComputer dist(w.bd.metric.get(), &c);
  PsaSelector psa;
  psa.Build(w.bd.data, dist, 40, 32, 9);
  uint32_t pidx[4];
  double pdist[4];
  for (ObjectId id = 0; id < 50; ++id) {
    psa.SelectForObject(w.bd.data.view(id), dist, 4, pidx, pdist);
    std::set<uint32_t> uniq(pidx, pidx + 4);
    EXPECT_EQ(uniq.size(), 4u) << "PSA must pick distinct pivots";
    for (int j = 0; j < 4; ++j) {
      ASSERT_LT(pidx[j], psa.pool().size());
      double truth = w.bd.metric->Distance(w.bd.data.view(id),
                                           psa.pool().pivot(pidx[j]));
      EXPECT_DOUBLE_EQ(pdist[j], truth);
    }
  }
}

TEST(PsaSelectorTest, FirstPivotMaximizesTheObjective) {
  // Greedy round 1 must pick the candidate with the highest mean
  // |d(o,c) - d(s,c)| / d(o,s); verify against a brute-force evaluation.
  World w(BenchDatasetId::kLa, 500);
  PerfCounters c;
  DistanceComputer dist(w.bd.metric.get(), &c);
  PsaSelector psa;
  psa.Build(w.bd.data, dist, 20, 16, 9);
  // Rebuild the sample the same way the selector does to cross-check.
  Rng rng(9 ^ 0x97a);
  std::vector<ObjectId> sample_ids =
      SelectPivotsRandom(w.bd.data, 16, rng);
  uint32_t pidx[1];
  double pdist[1];
  ObjectView o = w.bd.data.view(123);
  psa.SelectForObject(o, dist, 1, pidx, pdist);
  double best_score = -1;
  uint32_t best_c = 0;
  for (uint32_t cand = 0; cand < psa.pool().size(); ++cand) {
    double score = 0;
    for (ObjectId s : sample_ids) {
      double dos = w.bd.metric->Distance(o, w.bd.data.view(s));
      if (dos <= 0) continue;
      double doc = w.bd.metric->Distance(o, psa.pool().pivot(cand));
      double dsc = w.bd.metric->Distance(w.bd.data.view(s),
                                         psa.pool().pivot(cand));
      score += std::fabs(doc - dsc) / dos;
    }
    if (score > best_score) {
      best_score = score;
      best_c = cand;
    }
  }
  EXPECT_EQ(pidx[0], best_c);
}

TEST(SpbInternalsTest, KeysAreStableAcrossRemoveInsert) {
  // Remove + re-insert must regenerate the identical Hilbert key, or the
  // B+-tree would accumulate ghosts.  Exercised via repeated cycles.
  World w(BenchDatasetId::kWords, 2000);
  SpbTree spb;
  spb.Build(w.bd.data, *w.bd.metric, w.pivots);
  size_t disk_before = spb.disk_bytes();
  for (int cycle = 0; cycle < 3; ++cycle) {
    for (ObjectId id = 0; id < 100; ++id) {
      spb.Remove(id);
      spb.Insert(id);
    }
  }
  std::vector<ObjectId> out;
  spb.RangeQuery(w.bd.data.view(0), w.bd.metric->max_distance(), &out);
  EXPECT_EQ(out.size(), w.bd.data.size()) << "ghost or lost entries";
  // RAF grows (appends), but boundedly: 300 re-inserted word records.
  EXPECT_LT(spb.disk_bytes(), disk_before + 400 * 1024);
}

// FNV-1a over the keys' bytes, low byte first.
uint64_t KeyDigest(const std::vector<uint64_t>& keys) {
  uint64_t h = 14695981039346656037ull;
  for (uint64_t key : keys) {
    for (int b = 0; b < 8; ++b) {
      h ^= (key >> (8 * b)) & 0xFF;
      h *= 1099511628211ull;
    }
  }
  return h;
}

TEST(SpbInternalsTest, GoldenLayoutPinsTheCurve) {
  // The Hilbert curve fixes the SPB-tree's key order, hence its RAF
  // layout, compdists and PA.  A curve change that still round-trips
  // passes every answer-equality test but moves these checked-in values.
  // Integer L-inf data and range queries keep them exact on every build.
  World w(BenchDatasetId::kSynthetic, 2000);
  SpbTree spb;
  spb.Build(w.bd.data, *w.bd.metric, w.pivots);
  const std::vector<uint64_t> keys = spb.KeysInOrder();
  ASSERT_EQ(keys.size(), 2000u);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  EXPECT_EQ(KeyDigest(keys), 0xc90ef9d336a6421full);
  const struct {
    ObjectId q;
    double r_fraction;
    uint64_t results, compdists, pa;
  } golden[] = {
      {0, 0.1, 1, 14, 2},
      {17, 0.2, 14, 162, 7},
      {1234, 0.3, 47, 707, 35},
  };
  for (const auto& g : golden) {
    std::vector<ObjectId> out;
    OpStats st = spb.RangeQuery(
        w.bd.data.view(g.q), g.r_fraction * w.bd.metric->max_distance(), &out);
    EXPECT_EQ(out.size(), g.results) << "q=" << g.q;
    EXPECT_EQ(st.dist_computations, g.compdists) << "q=" << g.q;
    EXPECT_EQ(st.page_accesses(), g.pa) << "q=" << g.q;
  }
}

TEST(MIndexInternalsTest, ClusterSplitPreservesResults) {
  // Force splits with a tiny maxnum and verify nothing is lost.
  World w(BenchDatasetId::kSynthetic, 3000);
  IndexOptions opts;
  opts.mindex_maxnum = 64;  // far below the paper's 1600: many splits
  auto star = MakeIndex("M-index*", opts);
  star->Build(w.bd.data, *w.bd.metric, w.pivots);
  std::vector<ObjectId> out;
  star->RangeQuery(w.bd.data.view(1), w.bd.metric->max_distance() * 1.01,
                   &out);
  EXPECT_EQ(out.size(), w.bd.data.size());
  // Dynamic splits on insert: remove + re-insert everything.
  for (ObjectId id = 0; id < 500; ++id) {
    star->Remove(id);
    star->Insert(id);
  }
  star->RangeQuery(w.bd.data.view(1), w.bd.metric->max_distance() * 1.01,
                   &out);
  EXPECT_EQ(out.size(), w.bd.data.size());
}

TEST(TreeInternalsTest, LeafCapacityShapesTheTreeNotTheAnswers) {
  // Sweeping leaf capacity changes memory/compdists but never results.
  World w(BenchDatasetId::kWords, 2500);
  std::vector<Neighbor> reference;
  for (uint32_t cap : {4u, 16u, 64u, 256u}) {
    IndexOptions opts;
    opts.tree_leaf_capacity = cap;
    auto mvpt = MakeIndex("MVPT", opts);
    mvpt->Build(w.bd.data, *w.bd.metric, w.pivots);
    std::vector<Neighbor> out;
    mvpt->KnnQuery(w.bd.data.view(9), 15, &out);
    if (reference.empty()) {
      reference = out;
    } else {
      ASSERT_EQ(out.size(), reference.size());
      for (size_t i = 0; i < out.size(); ++i) {
        EXPECT_DOUBLE_EQ(out[i].dist, reference[i].dist) << "cap=" << cap;
      }
    }
  }
}

TEST(TreeInternalsTest, FanoutShapesBktNotTheAnswers) {
  World w(BenchDatasetId::kSynthetic, 2500);
  std::vector<Neighbor> reference;
  for (uint32_t fanout : {4u, 16u, 64u}) {
    IndexOptions opts;
    opts.tree_fanout = fanout;
    auto bkt = MakeIndex("BKT", opts);
    bkt->Build(w.bd.data, *w.bd.metric, w.pivots);
    std::vector<Neighbor> out;
    bkt->KnnQuery(w.bd.data.view(3), 10, &out);
    if (reference.empty()) {
      reference = out;
    } else {
      ASSERT_EQ(out.size(), reference.size());
      for (size_t i = 0; i < out.size(); ++i) {
        EXPECT_DOUBLE_EQ(out[i].dist, reference[i].dist);
      }
    }
  }
}

}  // namespace
}  // namespace pmi
