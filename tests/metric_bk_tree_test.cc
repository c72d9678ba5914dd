// BK-tree: structural invariants, range-query exactness, the pruning
// benefit on clustered data, and build parity with plain chain-walking
// insertion on duplicate-heavy stores.

#include "metric/bk_tree.h"

#include <numeric>
#include <span>
#include <string>

#include <gtest/gtest.h>

#include "cluster/bk_partitioner.h"
#include "core/footrule.h"
#include "test_util.h"

namespace topk {
namespace {

TEST(BkTreeTest, EdgeLabelsAreExactParentDistances) {
  const RankingStore store = testutil::MakeClusteredStore(8, 500, 91);
  const BkTree tree = BkTree::BuildAll(&store);
  ASSERT_EQ(tree.size(), store.size());
  const auto& nodes = tree.nodes();
  for (uint32_t parent = 0; parent < nodes.size(); ++parent) {
    for (uint32_t child = nodes[parent].first_child;
         child != BkTree::kNoNode; child = nodes[child].next_sibling) {
      EXPECT_EQ(nodes[child].parent_dist,
                FootruleDistance(store.sorted(nodes[parent].id),
                                 store.sorted(nodes[child].id)));
    }
  }
}

TEST(BkTreeTest, SiblingsHaveDistinctEdgeLabels) {
  const RankingStore store = testutil::MakeClusteredStore(8, 500, 92);
  const BkTree tree = BkTree::BuildAll(&store);
  const auto& nodes = tree.nodes();
  for (uint32_t parent = 0; parent < nodes.size(); ++parent) {
    std::vector<RawDistance> labels;
    for (uint32_t child = nodes[parent].first_child;
         child != BkTree::kNoNode; child = nodes[child].next_sibling) {
      labels.push_back(nodes[child].parent_dist);
    }
    std::sort(labels.begin(), labels.end());
    EXPECT_TRUE(std::adjacent_find(labels.begin(), labels.end()) ==
                labels.end())
        << "two children share an edge label";
  }
}

class BkTreeEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<uint32_t, double>> {};

TEST_P(BkTreeEquivalenceTest, RangeQueryMatchesBruteForce) {
  const auto [k, theta] = GetParam();
  const RankingStore store = testutil::MakeClusteredStore(k, 1000, 93 + k);
  const BkTree tree = BkTree::BuildAll(&store);
  const auto queries = testutil::MakeQueries(store, 25, 94);
  const RawDistance theta_raw = RawThreshold(theta, k);
  for (const PreparedQuery& query : queries) {
    EXPECT_EQ(tree.RangeQuery(query.sorted_view(), theta_raw),
              testutil::BruteForce(store, query, theta_raw));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BkTreeEquivalenceTest,
    ::testing::Combine(::testing::Values(5u, 10u, 20u),
                       ::testing::Values(0.0, 0.1, 0.2, 0.3)));

TEST(BkTreeTest, PrunesDistanceCallsOnSelectiveQueries) {
  const RankingStore store = testutil::MakeClusteredStore(10, 3000, 95);
  const BkTree tree = BkTree::BuildAll(&store);
  const auto queries = testutil::MakeQueries(store, 10, 96);
  Statistics stats;
  for (const auto& query : queries) {
    tree.RangeQuery(query.sorted_view(), RawThreshold(0.05, 10), &stats);
  }
  // Far fewer distance calls than a full scan would need.
  EXPECT_LT(stats.Get(Ticker::kDistanceCalls),
            queries.size() * store.size() / 2);
}

TEST(BkTreeTest, RootDistanceVariantAvoidsOneCall) {
  const RankingStore store = testutil::MakeClusteredStore(10, 300, 97);
  const BkTree tree = BkTree::BuildAll(&store);
  const auto queries = testutil::MakeQueries(store, 5, 98);
  for (const auto& query : queries) {
    const RawDistance root_dist = FootruleDistance(
        query.sorted_view(), store.sorted(tree.nodes()[0].id));
    std::vector<RankingId> with_root;
    tree.RangeQueryWithRootDistance(query.sorted_view(),
                                    RawThreshold(0.2, 10), root_dist,
                                    nullptr, &with_root);
    std::sort(with_root.begin(), with_root.end());
    EXPECT_EQ(with_root,
              tree.RangeQuery(query.sorted_view(), RawThreshold(0.2, 10)));
  }
}

TEST(BkTreeTest, BuildOverSubsetQueriesOnlySubset) {
  const RankingStore store = testutil::MakeClusteredStore(10, 200, 99);
  std::vector<RankingId> subset;
  for (RankingId id = 0; id < store.size(); id += 3) subset.push_back(id);
  const BkTree tree = BkTree::Build(&store, subset);
  EXPECT_EQ(tree.size(), subset.size());
  const auto queries = testutil::MakeQueries(store, 10, 100);
  for (const auto& query : queries) {
    const auto results =
        tree.RangeQuery(query.sorted_view(), RawThreshold(0.3, 10));
    for (RankingId id : results) {
      EXPECT_TRUE(std::find(subset.begin(), subset.end(), id) !=
                  subset.end());
    }
  }
}

TEST(BkTreeTest, EmptyTreeReturnsNothing) {
  const RankingStore store = testutil::MakeClusteredStore(5, 10, 101);
  const BkTree tree = BkTree::Build(&store, {});
  PreparedQuery query(
      std::move(Ranking::Create({1, 2, 3, 4, 5})).ValueOrDie());
  EXPECT_TRUE(tree.RangeQuery(query.sorted_view(), MaxDistance(5)).empty());
}

TEST(BkTreeTest, DuplicateRankingsChainAtDistanceZero) {
  RankingStore store(4);
  const ItemId row[] = {1, 2, 3, 4};
  for (int i = 0; i < 5; ++i) store.AddUnchecked(row);
  const BkTree tree = BkTree::BuildAll(&store);
  PreparedQuery query(std::move(Ranking::Create({1, 2, 3, 4})).ValueOrDie());
  EXPECT_EQ(tree.RangeQuery(query.sorted_view(), 0).size(), 5u);
}

TEST(BkTreeTest, FaithfulModeMatchesOptimizedModeResults) {
  // Disabling the duplicate-distance reuse must never change results —
  // only the distance-call count.
  const RankingStore store = testutil::MakeClusteredStore(10, 800, 102);
  const BkTree fast = BkTree::BuildAll(&store);
  const BkTree faithful = BkTree::BuildAll(
      &store, nullptr, BkTreeOptions{/*reuse_duplicate_distances=*/false});
  const auto queries = testutil::MakeQueries(store, 10, 103);
  for (double theta : {0.0, 0.1, 0.3}) {
    const RawDistance theta_raw = RawThreshold(theta, 10);
    for (const auto& query : queries) {
      Statistics fast_stats;
      Statistics faithful_stats;
      EXPECT_EQ(fast.RangeQuery(query.sorted_view(), theta_raw, &fast_stats),
                faithful.RangeQuery(query.sorted_view(), theta_raw,
                                    &faithful_stats));
      EXPECT_LE(fast_stats.Get(Ticker::kDistanceCalls),
                faithful_stats.Get(Ticker::kDistanceCalls));
    }
  }
}

/// A BK-tree built by plain Burkhard-Keller insertion: an exact duplicate
/// walks its whole 0-edge chain (without distance calls) to attach at the
/// tail. The reference for the builds' O(1) tail append.
struct ChainWalkTree {
  std::vector<BkTree::Node> nodes;
  uint64_t distance_calls = 0;
};

void ChainWalkInsert(const RankingStore& store, RankingId id,
                     ChainWalkTree* tree) {
  std::vector<BkTree::Node>& nodes = tree->nodes;
  if (nodes.empty()) {
    nodes.push_back(BkTree::Node{id, 0, BkTree::kNoNode, BkTree::kNoNode});
    return;
  }
  uint32_t current = 0;
  bool known_zero = false;
  for (;;) {
    RawDistance d = 0;
    if (!known_zero) {
      ++tree->distance_calls;
      d = FootruleDistance(store.sorted(id), store.sorted(nodes[current].id));
      known_zero = d == 0;
    }
    uint32_t child = nodes[current].first_child;
    while (child != BkTree::kNoNode && nodes[child].parent_dist != d) {
      child = nodes[child].next_sibling;
    }
    if (child != BkTree::kNoNode) {
      current = child;
      continue;
    }
    const auto index = static_cast<uint32_t>(nodes.size());
    nodes.push_back(
        BkTree::Node{id, d, BkTree::kNoNode, nodes[current].first_child});
    nodes[current].first_child = index;
    return;
  }
}

ChainWalkTree ChainWalkBuild(const RankingStore& store,
                             std::span<const RankingId> ids) {
  ChainWalkTree tree;
  for (RankingId id : ids) ChainWalkInsert(store, id, &tree);
  return tree;
}

/// PartitionBkTree's traversal, applied to the reference nodes.
Partitioning ChainWalkPartition(const RankingStore& store,
                                const std::vector<BkTree::Node>& nodes,
                                RawDistance theta_c_raw,
                                BkPartitionMode mode) {
  struct Frame {
    uint32_t node;
    size_t partition;
    RawDistance bound;
  };
  Partitioning out;
  out.partitions.push_back(Partition{nodes[0].id, {nodes[0].id}, 0});
  std::vector<Frame> stack;
  for (uint32_t c = nodes[0].first_child; c != BkTree::kNoNode;
       c = nodes[c].next_sibling) {
    stack.push_back(Frame{c, 0, nodes[c].parent_dist});
  }
  while (!stack.empty()) {
    const Frame frame = stack.back();
    stack.pop_back();
    const BkTree::Node& node = nodes[frame.node];
    RawDistance medoid_dist = frame.bound;
    bool joins = node.parent_dist <= theta_c_raw;
    if (mode == BkPartitionMode::kStrict) {
      medoid_dist =
          FootruleDistance(store.sorted(node.id),
                           store.sorted(out.partitions[frame.partition].medoid));
      joins = medoid_dist <= theta_c_raw;
    }
    size_t partition = frame.partition;
    if (joins) {
      Partition& p = out.partitions[partition];
      p.members.push_back(node.id);
      p.radius = std::max(p.radius, medoid_dist);
    } else {
      out.partitions.push_back(Partition{node.id, {node.id}, 0});
      partition = out.partitions.size() - 1;
    }
    for (uint32_t c = node.first_child; c != BkTree::kNoNode;
         c = nodes[c].next_sibling) {
      stack.push_back(Frame{
          c, partition,
          joins ? medoid_dist + nodes[c].parent_dist : nodes[c].parent_dist});
    }
  }
  return out;
}

void ExpectSameNodes(const BkTree& tree, const ChainWalkTree& reference) {
  const auto& nodes = tree.nodes();
  ASSERT_EQ(nodes.size(), reference.nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    const BkTree::Node& got = nodes[i];
    const BkTree::Node& want = reference.nodes[i];
    ASSERT_TRUE(got.id == want.id && got.parent_dist == want.parent_dist &&
                got.first_child == want.first_child &&
                got.next_sibling == want.next_sibling)
        << "node " << i << " differs from chain-walking insertion";
  }
}

void ExpectSamePartitioning(const Partitioning& got,
                            const Partitioning& want) {
  ASSERT_EQ(got.partitions.size(), want.partitions.size());
  for (size_t i = 0; i < got.partitions.size(); ++i) {
    EXPECT_EQ(got.partitions[i].medoid, want.partitions[i].medoid) << i;
    EXPECT_EQ(got.partitions[i].members, want.partitions[i].members) << i;
    EXPECT_EQ(got.partitions[i].radius, want.partitions[i].radius) << i;
  }
}

/// Builds over the whole store and over `ids` match the reference node for
/// node and in distance calls, and both partitioner modes carve the same
/// partitions as from the reference tree.
void CheckBuildParity(const RankingStore& store,
                      std::span<const RankingId> ids) {
  std::vector<RankingId> all(store.size());
  std::iota(all.begin(), all.end(), RankingId{0});
  const ChainWalkTree reference_all = ChainWalkBuild(store, all);
  Statistics all_stats;
  ExpectSameNodes(BkTree::BuildAll(&store, &all_stats), reference_all);
  EXPECT_EQ(all_stats.Get(Ticker::kDistanceCalls),
            reference_all.distance_calls);

  const ChainWalkTree reference_ids = ChainWalkBuild(store, ids);
  Statistics ids_stats;
  ExpectSameNodes(BkTree::Build(&store, ids, &ids_stats), reference_ids);
  EXPECT_EQ(ids_stats.Get(Ticker::kDistanceCalls),
            reference_ids.distance_calls);

  for (BkPartitionMode mode :
       {BkPartitionMode::kStrict, BkPartitionMode::kSubtree}) {
    for (double theta_c : {0.06, 0.3}) {
      const RawDistance raw = RawThreshold(theta_c, store.k());
      SCOPED_TRACE(std::string(BkPartitionModeName(mode)) + " theta_c=" +
                   std::to_string(theta_c));
      ExpectSamePartitioning(
          BkPartition(store, raw, mode),
          ChainWalkPartition(store, reference_all.nodes, raw, mode));
    }
  }
}

TEST(BkTreeBuildParityTest, DuplicateHeavyNytCorpusMatchesChainWalk) {
  const RankingStore store = Generate(NytLikeOptions(20000, 10, 20150323));
  // The subset build inserts in reverse, so different rankings head the
  // chains than in the full build.
  std::vector<RankingId> reversed(store.size());
  std::iota(reversed.rbegin(), reversed.rend(), RankingId{0});
  CheckBuildParity(store, reversed);
}

TEST(BkTreeBuildParityTest, InterleavedDuplicateGroupsMatchChainWalk) {
  // Eight duplicate groups added round-robin between distinct clustered
  // rankings, so chains grow concurrently with heads at varying depths.
  const RankingStore source = testutil::MakeClusteredStore(10, 3000, 104);
  RankingStore store(10);
  for (RankingId id = 0; id < source.size(); ++id) {
    store.AddUnchecked(source.view(id).items());
    store.AddUnchecked(source.view(id % 8).items());
  }
  std::vector<RankingId> every_third;
  for (RankingId id = 0; id < store.size(); id += 3) {
    every_third.push_back(id);
  }
  CheckBuildParity(store, every_third);
}

}  // namespace
}  // namespace topk
