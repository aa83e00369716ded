// Degenerate-input tests for every index: tiny datasets, duplicate-only
// datasets, and determinism of repeated builds.  These exercise split,
// quantile, and partition code on inputs where most metric-index bugs
// hide (zero-variance distances, single-element nodes, ties everywhere).

#include <algorithm>
#include <memory>

#include <gtest/gtest.h>

#include "src/core/linear_scan.h"
#include "src/core/pivot_selection.h"
#include "src/harness/registry.h"

namespace pmi {
namespace {

// A tiny discrete vector dataset every index (incl. BKT/FQT/FQA) accepts.
struct TinyWorld {
  TinyWorld(uint32_t n, bool duplicates_only)
      : data(Dataset::Vectors(2)), metric(2, 100.0, /*discrete=*/true) {
    Rng rng(31);
    for (uint32_t i = 0; i < n; ++i) {
      float p[2];
      if (duplicates_only) {
        p[0] = 7;
        p[1] = 7;
      } else {
        p[0] = float(rng() % 100);
        p[1] = float(rng() % 100);
      }
      data.AddVector(p);
    }
    uint32_t want = std::min(3u, std::max(1u, n / 2));
    PivotSelectionOptions po;
    po.sample_size = n;
    pivots = SelectSharedPivots(data, metric, want, po);
  }

  Dataset data;
  LInfMetric metric;
  PivotSet pivots;
};

class EdgeCaseTest : public ::testing::TestWithParam<std::string> {};

std::vector<std::string> AllNames() {
  std::vector<std::string> names;
  for (const IndexSpec& s : AllIndexSpecs()) names.push_back(s.name);
  return names;
}

std::string SafeName(const ::testing::TestParamInfo<std::string>& info) {
  std::string n = info.param;
  for (char& c : n) {
    if (c == '*') c = 'S';
    if (c == '-' || c == '+') c = '_';
  }
  return n;
}

TEST_P(EdgeCaseTest, SingleObjectDataset) {
  TinyWorld world(1, false);
  const IndexSpec* spec = FindIndexSpec(GetParam());
  if (spec->min_pivots > world.pivots.size()) GTEST_SKIP();
  auto index = spec->make(IndexOptions{});
  index->Build(world.data, world.metric, world.pivots);
  std::vector<ObjectId> range;
  index->RangeQuery(world.data.view(0), 0.0, &range);
  EXPECT_EQ(range.size(), 1u);
  std::vector<Neighbor> knn;
  index->KnnQuery(world.data.view(0), 5, &knn);
  ASSERT_EQ(knn.size(), 1u);
  EXPECT_EQ(knn[0].dist, 0.0);
}

TEST_P(EdgeCaseTest, AllDuplicateObjects) {
  TinyWorld world(200, /*duplicates_only=*/true);
  const IndexSpec* spec = FindIndexSpec(GetParam());
  if (spec->min_pivots > world.pivots.size()) GTEST_SKIP();
  auto index = spec->make(IndexOptions{});
  index->Build(world.data, world.metric, world.pivots);
  std::vector<ObjectId> range;
  index->RangeQuery(world.data.view(0), 0.0, &range);
  EXPECT_EQ(range.size(), 200u) << "all duplicates are at distance 0";
  std::vector<Neighbor> knn;
  index->KnnQuery(world.data.view(3), 10, &knn);
  ASSERT_EQ(knn.size(), 10u);
  for (const Neighbor& nb : knn) EXPECT_EQ(nb.dist, 0.0);
}

TEST_P(EdgeCaseTest, SmallDatasetFullCycleOfUpdates) {
  TinyWorld world(40, false);
  const IndexSpec* spec = FindIndexSpec(GetParam());
  if (spec->min_pivots > world.pivots.size()) GTEST_SKIP();
  auto index = spec->make(IndexOptions{});
  index->Build(world.data, world.metric, world.pivots);
  // Remove everything, then re-insert everything; results must be intact.
  for (ObjectId id = 0; id < world.data.size(); ++id) index->Remove(id);
  std::vector<ObjectId> range;
  index->RangeQuery(world.data.view(0), 1000.0, &range);
  EXPECT_TRUE(range.empty()) << "index must be empty after removing all";
  for (ObjectId id = 0; id < world.data.size(); ++id) index->Insert(id);
  index->RangeQuery(world.data.view(0), 1000.0, &range);
  EXPECT_EQ(range.size(), world.data.size());
}

TEST_P(EdgeCaseTest, RepeatedBuildsAreDeterministic) {
  TinyWorld world(300, false);
  const IndexSpec* spec = FindIndexSpec(GetParam());
  if (spec->min_pivots > world.pivots.size()) GTEST_SKIP();
  IndexOptions opts;
  opts.seed = 99;
  auto a = spec->make(opts);
  auto b = spec->make(opts);
  OpStats sa = a->Build(world.data, world.metric, world.pivots);
  OpStats sb = b->Build(world.data, world.metric, world.pivots);
  EXPECT_EQ(sa.dist_computations, sb.dist_computations)
      << "same seed, same data => identical build cost";
  std::vector<Neighbor> ka, kb;
  OpStats qa = a->KnnQuery(world.data.view(7), 9, &ka);
  OpStats qb = b->KnnQuery(world.data.view(7), 9, &kb);
  EXPECT_EQ(qa.dist_computations, qb.dist_computations);
  ASSERT_EQ(ka.size(), kb.size());
  for (size_t i = 0; i < ka.size(); ++i) {
    EXPECT_EQ(ka[i].dist, kb[i].dist);
  }
}

TEST(SpbTreeKeyWidthTest, KeysThatFillTheCurveMatchLinearScan) {
  // Shapes at the edge of the 63-bit Hilbert key: 1 bit per pivot, a
  // full 63-bit key, and AutoBits's 16-bit cap.
  TinyWorld world(300, false);
  PivotSelectionOptions po;
  po.sample_size = 300;
  const struct {
    uint32_t pivots, bits;
  } shapes[] = {{1, 1}, {63, 1}, {21, 3}, {7, 9}, {5, 12}, {3, 16}};
  for (const auto& shape : shapes) {
    SCOPED_TRACE(std::to_string(shape.pivots) + " pivots x " +
                 std::to_string(shape.bits) + " bits");
    PivotSet pivots =
        SelectSharedPivots(world.data, world.metric, shape.pivots, po);
    ASSERT_EQ(pivots.size(), shape.pivots);
    IndexOptions opts;
    opts.spb_bits_per_dim = shape.bits;
    auto made = TryMakeIndex("SPB-tree", opts, shape.pivots);
    ASSERT_TRUE(made.ok()) << made.status().ToString();
    std::unique_ptr<MetricIndex> spb = std::move(made).value();
    LinearScan scan;
    spb->Build(world.data, world.metric, pivots);
    scan.Build(world.data, world.metric, pivots);
    for (ObjectId q = 0; q < 300; q += 37) {
      for (double r : {0.0, 5.0, 20.0}) {
        std::vector<ObjectId> got, want;
        spb->RangeQuery(world.data.view(q), r, &got);
        scan.RangeQuery(world.data.view(q), r, &want);
        std::sort(got.begin(), got.end());
        std::sort(want.begin(), want.end());
        EXPECT_EQ(got, want) << "q=" << q << " r=" << r;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllIndexes, EdgeCaseTest,
                         ::testing::ValuesIn(AllNames()), SafeName);

}  // namespace
}  // namespace pmi
