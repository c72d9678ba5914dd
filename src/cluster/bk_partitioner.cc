#include "cluster/bk_partitioner.h"

#include <algorithm>

#include "core/footrule.h"

namespace topk {

const char* BkPartitionModeName(BkPartitionMode mode) {
  switch (mode) {
    case BkPartitionMode::kStrict:
      return "strict";
    case BkPartitionMode::kSubtree:
      return "subtree";
  }
  return "unknown";
}

namespace {

struct Frame {
  uint32_t node;
  size_t partition;       // index into partitioning.partitions
  RawDistance bound;      // upper bound on d(node, partition medoid)
};

}  // namespace

Partitioning PartitionBkTree(const BkTree& tree, RawDistance theta_c_raw,
                             BkPartitionMode mode, Statistics* stats) {
  Partitioning out;
  if (tree.empty()) return out;
  const RankingStore& store = tree.store();
  const auto& nodes = tree.nodes();

  // Iterative DFS. The root founds the first partition; every visited node
  // either joins its parent's partition or founds its own, and its
  // children are processed under whichever partition it ended up in.
  std::vector<Frame> stack;

  auto found_partition = [&](RankingId medoid) -> size_t {
    out.partitions.push_back(Partition{medoid, {medoid}, 0});
    return out.partitions.size() - 1;
  };

  const size_t root_partition = found_partition(nodes[0].id);
  for (uint32_t child = nodes[0].first_child; child != BkTree::kNoNode;
       child = nodes[child].next_sibling) {
    stack.push_back(Frame{child, root_partition, nodes[child].parent_dist});
  }

  while (!stack.empty()) {
    const Frame frame = stack.back();
    stack.pop_back();
    const auto& node = nodes[frame.node];

    bool joins = false;
    RawDistance medoid_dist = frame.bound;
    if (mode == BkPartitionMode::kStrict) {
      // Membership decided by the true distance to the medoid.
      AddTicker(stats, Ticker::kDistanceCalls);
      medoid_dist = FootruleDistance(
          store.sorted(node.id),
          store.sorted(out.partitions[frame.partition].medoid));
      joins = medoid_dist <= theta_c_raw;
    } else {
      // Membership decided by the edge to the BK parent alone (the paper's
      // rule); frame.bound carries the path-sum radius bound.
      joins = node.parent_dist <= theta_c_raw;
    }

    size_t partition = frame.partition;
    if (joins) {
      Partition& p = out.partitions[frame.partition];
      p.members.push_back(node.id);
      p.radius = std::max(p.radius, medoid_dist);
    } else {
      partition = found_partition(node.id);
    }

    for (uint32_t child = node.first_child; child != BkTree::kNoNode;
         child = nodes[child].next_sibling) {
      // Path-sum bound: d(child, medoid) <= d(child, node) + bound(node).
      const RawDistance child_bound =
          joins ? medoid_dist + nodes[child].parent_dist
                : nodes[child].parent_dist;
      stack.push_back(Frame{child, partition, child_bound});
    }
  }
  return out;
}

Partitioning BkPartition(const RankingStore& store, RawDistance theta_c_raw,
                         BkPartitionMode mode, Statistics* stats,
                         const PartRunner& runner) {
  const BkTree tree = BkTree::BuildAll(&store, stats, {}, runner);
  return PartitionBkTree(tree, theta_c_raw, mode, stats);
}

}  // namespace topk
