// BK-tree: structural invariants, range-query exactness, the pruning
// benefit on clustered data, and build parity of the level-synchronous
// bulk load with plain chain-walking insertion: serial, over a ThreadPool
// at 1-4 slots, over a runner that runs parts in reverse, and on edge
// stores.

#include "metric/bk_tree.h"

#include <numeric>
#include <span>
#include <string>

#include <gtest/gtest.h>

#include "cluster/bk_partitioner.h"
#include "core/footrule.h"
#include "data/generator.h"
#include "harness/thread_pool.h"
#include "kernel/id_split.h"
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
/// tail. The reference for the level-synchronous bulk load.
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
  if (nodes.empty()) return out;
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

/// A build and its tallies match the reference: node for node, one
/// distance call per ancestor measured, and one visited node per call.
void ExpectSameBuild(const BkTree& tree, const Statistics& stats,
                     const ChainWalkTree& reference) {
  ExpectSameNodes(tree, reference);
  EXPECT_EQ(stats.Get(Ticker::kDistanceCalls), reference.distance_calls);
  EXPECT_EQ(stats.Get(Ticker::kTreeNodesVisited), reference.distance_calls);
}

/// The chain-walk references for builds over the whole store and over
/// `ids`, and the partitions carved from the whole-store reference.
struct BuildReference {
  struct Carving {
    BkPartitionMode mode;
    RawDistance theta_c_raw;
    Partitioning partitioning;
  };

  BuildReference(const RankingStore& store, std::span<const RankingId> ids)
      : ids(ids.begin(), ids.end()) {
    std::vector<RankingId> every(store.size());
    std::iota(every.begin(), every.end(), RankingId{0});
    all = ChainWalkBuild(store, every);
    subset = ChainWalkBuild(store, ids);
    for (BkPartitionMode mode :
         {BkPartitionMode::kStrict, BkPartitionMode::kSubtree}) {
      for (double theta_c : {0.06, 0.3}) {
        const RawDistance raw = RawThreshold(theta_c, store.k());
        carvings.push_back(Carving{
            mode, raw, ChainWalkPartition(store, all.nodes, raw, mode)});
      }
    }
  }

  std::vector<RankingId> ids;
  ChainWalkTree all;
  ChainWalkTree subset;
  std::vector<Carving> carvings;
};

/// Builds over the whole store and over the reference's ids, with or
/// without `runner`, match the reference node for node and in tallies, and
/// both partitioner modes carve the same partitions from the built tree as
/// from the reference tree (BkPartition, which builds its own tree over
/// `runner`, for the first carving).
void CheckBuildParity(const RankingStore& store,
                      const BuildReference& reference,
                      const PartRunner& runner = {}) {
  Statistics all_stats;
  const BkTree all = BkTree::BuildAll(&store, &all_stats, {}, runner);
  ExpectSameBuild(all, all_stats, reference.all);
  Statistics ids_stats;
  ExpectSameBuild(BkTree::Build(&store, reference.ids, &ids_stats, {}, runner),
                  ids_stats, reference.subset);
  for (const BuildReference::Carving& carving : reference.carvings) {
    SCOPED_TRACE(std::string(BkPartitionModeName(carving.mode)) +
                 " theta_c_raw=" + std::to_string(carving.theta_c_raw));
    ExpectSamePartitioning(
        PartitionBkTree(all, carving.theta_c_raw, carving.mode),
        carving.partitioning);
  }
  const BuildReference::Carving& first = reference.carvings.front();
  ExpectSamePartitioning(
      BkPartition(store, first.theta_c_raw, first.mode, nullptr, runner),
      first.partitioning);
}

/// Wraps a runner and counts the fan-outs it was handed.
struct CountingRunner {
  PartRunner inner;
  size_t fan_outs = 0;

  PartRunner runner() {
    return [this](size_t parts, const PartBody& body) {
      ++fan_outs;
      inner(parts, body);
    };
  }
};

/// Runs the parts last to first on the calling thread, so the build
/// cannot depend on the order its parts finish in.
void ReverseRun(size_t parts, const PartBody& body) {
  for (size_t part = parts; part-- > 0;) body(0, part);
}

/// Ids in reverse: different rankings head the chains than in the full
/// build.
std::vector<RankingId> Reversed(const RankingStore& store) {
  std::vector<RankingId> reversed(store.size());
  std::iota(reversed.rbegin(), reversed.rend(), RankingId{0});
  return reversed;
}

/// A duplicate-heavy NYT-like store whose first build level clears the
/// fan-out floor, so a runner really splits the build.
RankingStore FanOutStore() {
  return Generate(
      NytLikeOptions(BkTree::kFanOutMinCalls + 2000, 10, 20150323));
}

/// Eight duplicate groups added round-robin between distinct clustered
/// rankings, so chains grow concurrently with heads at varying depths.
RankingStore InterleavedStore() {
  const RankingStore source = testutil::MakeClusteredStore(10, 3000, 104);
  RankingStore store(10);
  for (RankingId id = 0; id < source.size(); ++id) {
    store.AddUnchecked(source.view(id).items());
    store.AddUnchecked(source.view(id % 8).items());
  }
  return store;
}

std::vector<RankingId> EveryThird(const RankingStore& store) {
  std::vector<RankingId> every_third;
  for (RankingId id = 0; id < store.size(); id += 3) {
    every_third.push_back(id);
  }
  return every_third;
}

TEST(BkTreeBuildParityTest, DuplicateHeavyNytCorpusMatchesChainWalk) {
  const RankingStore store = Generate(NytLikeOptions(20000, 10, 20150323));
  CheckBuildParity(store, BuildReference(store, Reversed(store)));
}

TEST(BkTreeBuildParityTest, InterleavedDuplicateGroupsMatchChainWalk) {
  const RankingStore store = InterleavedStore();
  CheckBuildParity(store, BuildReference(store, EveryThird(store)));
}

TEST(BkTreeBuildParityTest, ThreadPoolRunnerMatchesChainWalkAtOneToFourSlots) {
  const RankingStore store = FanOutStore();
  ASSERT_GT(store.size(), BkTree::kFanOutMinCalls + 1);
  const BuildReference reference(store, Reversed(store));
  for (size_t workers = 0; workers < 4; ++workers) {
    SCOPED_TRACE("slots=" + std::to_string(workers + 1));
    ThreadPool pool(workers);
    CountingRunner counting{PoolRunner(&pool)};
    CheckBuildParity(store, reference, counting.runner());
    EXPECT_GT(counting.fan_outs, 0u) << "no build level fanned out";
  }
}

TEST(BkTreeBuildParityTest, ReverseOrderRunnerMatchesChainWalk) {
  const RankingStore store = FanOutStore();
  const BuildReference reference(store, Reversed(store));
  CountingRunner counting{ReverseRun};
  CheckBuildParity(store, reference, counting.runner());
  EXPECT_GT(counting.fan_outs, 0u) << "no build level fanned out";
}

/// Edge stores, each serial, over a pool and over the reverse runner.
void CheckEdgeStore(const RankingStore& store,
                    std::span<const RankingId> ids) {
  const BuildReference reference(store, ids);
  CheckBuildParity(store, reference);
  ThreadPool pool(3);
  CheckBuildParity(store, reference, PoolRunner(&pool));
  CheckBuildParity(store, reference, ReverseRun);
}

TEST(BkTreeBuildParityTest, EmptyOneAndTwoRowStoresMatchChainWalk) {
  const RankingStore source = testutil::MakeClusteredStore(10, 2, 7);
  for (size_t rows = 0; rows <= 2; ++rows) {
    SCOPED_TRACE("rows=" + std::to_string(rows));
    RankingStore store(10);
    for (RankingId id = 0; id < rows; ++id) {
      store.AddUnchecked(source.view(id).items());
    }
    CheckEdgeStore(store, Reversed(store));
  }
}

TEST(BkTreeBuildParityTest, IdenticalRowsFormOneChain) {
  RankingStore store(10);
  const std::vector<ItemId> row = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  for (int i = 0; i < 1000; ++i) store.AddUnchecked(row);
  CheckEdgeStore(store, EveryThird(store));
  const BkTree tree = BkTree::BuildAll(&store);
  for (uint32_t i = 0; i + 1 < tree.size(); ++i) {
    EXPECT_EQ(tree.nodes()[i].first_child, i + 1);
    EXPECT_EQ(tree.nodes()[i + 1].parent_dist, 0u);
  }
}

TEST(BkTreeBuildParityTest, RowsAtPairwiseMaxDistanceFormOneLongPath) {
  // Disjoint items: every pair is at dmax, so each level places one row
  // and hands the rest to it — 499 levels.
  RankingStore store(10);
  for (ItemId r = 0; r < 500; ++r) {
    std::vector<ItemId> row(10);
    std::iota(row.begin(), row.end(), r * 10 + 1);
    store.AddUnchecked(row);
  }
  CheckEdgeStore(store, EveryThird(store));
  Statistics stats;
  const BkTree tree = BkTree::BuildAll(&store, &stats);
  for (uint32_t i = 0; i + 1 < tree.size(); ++i) {
    EXPECT_EQ(tree.nodes()[i].first_child, i + 1);
    EXPECT_EQ(tree.nodes()[i + 1].parent_dist, MaxDistance(10));
  }
  EXPECT_EQ(stats.Get(Ticker::kDistanceCalls), 499u * 500u / 2u);
}

TEST(BkTreeBuildParityTest, EveryThirdIdSubsetMatchesChainWalk) {
  const RankingStore store = FanOutStore();
  CheckEdgeStore(store, EveryThird(store));
}

}  // namespace
}  // namespace topk
