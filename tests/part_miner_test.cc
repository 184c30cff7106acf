#include "core/part_miner.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "datagen/generator.h"
#include "miner/gspan.h"
#include "tests/test_util.h"

namespace partminer {
namespace {

void ExpectSameResults(const PatternSet& expected, const PatternSet& actual,
                       const std::string& what) {
  EXPECT_EQ(expected.SortedCodeStrings(), actual.SortedCodeStrings()) << what;
  for (const PatternInfo& p : expected.patterns()) {
    const PatternInfo* q = actual.Find(p.code);
    ASSERT_NE(q, nullptr) << what << ": missing " << p.code.ToString();
    EXPECT_EQ(p.support, q->support) << what << ": " << p.code.ToString();
    EXPECT_EQ(p.tids, q->tids) << what << ": " << p.code.ToString();
  }
}

/// The headline property (Theorems 1-3): PartMiner output is exactly the
/// gSpan result on the unpartitioned database — same patterns, same
/// supports, same TID lists — for every k and partition criteria.
struct PartMinerCase {
  int k;
  PartitionCriteria criteria;
  int min_support;
};

class PartMinerEquivalence : public ::testing::TestWithParam<PartMinerCase> {};

TEST_P(PartMinerEquivalence, MatchesGSpan) {
  const PartMinerCase& c = GetParam();
  Rng rng(1000 + c.k * 17 + static_cast<int>(c.criteria));
  const GraphDatabase db = testutil::RandomDatabase(&rng, 14, 8, 3, 3, 2);

  GSpanMiner gspan;
  MinerOptions full;
  full.min_support = c.min_support;
  const PatternSet expected = gspan.Mine(db, full);

  PartMinerOptions options;
  options.min_support_count = c.min_support;
  options.partition.k = c.k;
  options.partition.criteria = c.criteria;
  PartMiner miner(options);
  const PartMinerResult result = miner.Mine(db);

  ExpectSameResults(expected, result.patterns,
                    "k=" + std::to_string(c.k) +
                        " criteria=" + PartitionCriteriaName(c.criteria));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PartMinerEquivalence,
    ::testing::Values(
        PartMinerCase{1, PartitionCriteria::kCombined, 3},
        PartMinerCase{2, PartitionCriteria::kCombined, 3},
        PartMinerCase{2, PartitionCriteria::kIsolation, 3},
        PartMinerCase{2, PartitionCriteria::kMinCut, 3},
        PartMinerCase{2, PartitionCriteria::kMultilevel, 3},
        PartMinerCase{3, PartitionCriteria::kCombined, 3},
        PartMinerCase{4, PartitionCriteria::kCombined, 3},
        PartMinerCase{4, PartitionCriteria::kMinCut, 4},
        PartMinerCase{6, PartitionCriteria::kCombined, 4},
        PartMinerCase{2, PartitionCriteria::kCombined, 2}),
    [](const ::testing::TestParamInfo<PartMinerCase>& info) {
      return std::string("k") + std::to_string(info.param.k) + "_" +
             PartitionCriteriaName(info.param.criteria) + "_sup" +
             std::to_string(info.param.min_support);
    });

TEST(PartMinerTest, GastonAndGSpanUnitMinersAgree) {
  Rng rng(2);
  const GraphDatabase db = testutil::RandomDatabase(&rng, 12, 8, 3, 3, 2);
  PartMinerOptions a, b;
  a.min_support_count = b.min_support_count = 3;
  a.partition.k = b.partition.k = 3;
  a.unit_miner = UnitMinerKind::kGaston;
  b.unit_miner = UnitMinerKind::kGSpan;
  PartMiner ma(a), mb(b);
  ExpectSameResults(ma.Mine(db).patterns, mb.Mine(db).patterns,
                    "unit miner kinds");
}

TEST(PartMinerTest, SupportFractionResolution) {
  PartMinerOptions options;
  options.min_support_fraction = 0.04;
  PartMiner miner(options);
  EXPECT_EQ(miner.ResolveSupport(100), 4);
  EXPECT_EQ(miner.ResolveSupport(101), 5);   // ceil.
  EXPECT_EQ(miner.ResolveSupport(10), 1);
  options.min_support_count = 7;
  PartMiner absolute(options);
  EXPECT_EQ(absolute.ResolveSupport(100), 7);
}

TEST(PartMinerTest, NodeSupportHalvesPerDepth) {
  GraphDatabase db;
  Graph g;
  g.AddVertex(0);
  g.AddVertex(0);
  g.AddEdge(0, 1, 0);
  db.Add(g);
  PartMinerOptions options;
  options.min_support_count = 8;
  options.partition.k = 4;
  PartMiner miner(options);
  miner.Mine(db);
  const auto& tree = miner.partitioned().tree();
  for (size_t i = 0; i < tree.size(); ++i) {
    const int expected = std::max(1, 8 >> tree[i].depth);
    EXPECT_EQ(miner.NodeSupport(static_cast<int>(i)), expected);
  }
}

TEST(PartMinerTest, TimingFieldsPopulated) {
  GeneratorParams params;
  params.num_graphs = 20;
  params.avg_edges = 10;
  params.num_labels = 6;
  params.num_kernels = 10;
  GraphDatabase db = GenerateDatabase(params);
  PartMinerOptions options;
  options.min_support_fraction = 0.3;
  options.partition.k = 3;
  PartMiner miner(options);
  const PartMinerResult r = miner.Mine(db);
  EXPECT_EQ(static_cast<int>(r.unit_mining_seconds.size()), 3);
  EXPECT_GE(r.AggregateSeconds(), r.ParallelSeconds());
  EXPECT_GT(r.patterns.size(), 0);
  EXPECT_EQ(r.min_support_count, 6);
}

TEST(PartMinerTest, ParallelUnitMiningMatchesSerial) {
  Rng rng(91);
  const GraphDatabase db = testutil::RandomDatabase(&rng, 16, 8, 3, 3, 2);
  PartMinerOptions serial, parallel;
  serial.min_support_count = parallel.min_support_count = 3;
  serial.partition.k = parallel.partition.k = 4;
  serial.unit_mining_threads = 0;
  parallel.unit_mining_threads = 4;
  PartMiner a(serial), b(parallel);
  ExpectSameResults(a.Mine(db).patterns, b.Mine(db).patterns,
                    "parallel unit mining");
}

TEST(PartMinerTest, FrontiersKeptOnlyAtLeavesAndRootOnRequest) {
  Rng rng(17);
  const GraphDatabase db = testutil::RandomDatabase(&rng, 16, 8, 3, 3, 2);
  for (const bool keep : {false, true}) {
    PartMinerOptions options;
    options.min_support_count = 3;
    options.partition.k = 4;  // Two interior nodes below the root.
    options.keep_frontiers = keep;
    PartMiner miner(options);
    const PartMinerResult r = miner.Mine(db);
    ASSERT_GT(r.patterns.size(), 0);

    const std::vector<MergeTreeNode>& tree = miner.partitioned().tree();
    int captured = 0;
    for (size_t node = 0; node < tree.size(); ++node) {
      const bool read_later =
          tree[node].left == -1 ||
          static_cast<int>(node) == miner.partitioned().root();
      const NodeFrontier& frontier = miner.node_frontiers()[node];
      EXPECT_EQ(frontier.valid, keep && read_later)
          << "keep=" << keep << " node " << node;
      if (!frontier.valid) EXPECT_TRUE(frontier.map.empty()) << node;
      captured += frontier.map.empty() ? 0 : 1;
    }
    if (keep) EXPECT_GT(captured, 0);
  }
}

TEST(PartMinerTest, MaxEdgesRespected) {
  Rng rng(8);
  const GraphDatabase db = testutil::RandomDatabase(&rng, 10, 8, 3, 3, 2);
  PartMinerOptions options;
  options.min_support_count = 2;
  options.partition.k = 2;
  options.max_edges = 3;
  PartMiner miner(options);
  const PartMinerResult r = miner.Mine(db);
  EXPECT_LE(r.patterns.MaxEdgeCount(), 3);

  GSpanMiner gspan;
  MinerOptions full;
  full.min_support = 2;
  full.max_edges = 3;
  ExpectSameResults(gspan.Mine(db, full), r.patterns, "max_edges=3");
}

}  // namespace
}  // namespace partminer
