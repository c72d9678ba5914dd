// BK-tree-guided partition extraction (Section 4.1, Figure 1).
//
// A BK-tree is built over the collection, then traversed to carve
// partitions. Two membership rules are provided:
//
//  kStrict  — a node joins the current medoid's partition iff its *actual*
//             distance to the medoid is <= theta_C (one extra Footrule
//             call per node); otherwise it founds a new partition and the
//             traversal continues beneath it with the new medoid. This
//             enforces radius <= theta_C, the precondition of the paper's
//             Lemma 1, by construction.
//
//  kSubtree — the paper's literal reading of Figure 1: children at edge
//             distance <= theta_C join the parent's partition *with their
//             whole subtrees*. No extra distance computations, but a deep
//             descendant may lie farther than theta_C from the medoid (a
//             BK edge only bounds the distance to the immediate parent).
//             Exactness is preserved anyway because the partition radius
//             is tracked as the path-sum of edge distances from the medoid
//             (a triangle-inequality upper bound), and the coarse index
//             retrieves medoids with theta + radius.
//
// BkPartition builds the tree through BkTree::BuildAll, so a PartRunner
// splits the build's large levels into parts (QueryFrontend hands over
// its own pool). The traversal that carves the partitions stays serial;
// the partitions are the same with or without a runner.

#ifndef TOPK_CLUSTER_BK_PARTITIONER_H_
#define TOPK_CLUSTER_BK_PARTITIONER_H_

#include "cluster/partitioner.h"
#include "core/ranking.h"
#include "core/statistics.h"
#include "metric/bk_tree.h"

namespace topk {

enum class BkPartitionMode { kStrict, kSubtree };

const char* BkPartitionModeName(BkPartitionMode mode);

/// Carves partitions out of an already-built BK-tree covering the store.
Partitioning PartitionBkTree(const BkTree& tree, RawDistance theta_c_raw,
                             BkPartitionMode mode,
                             Statistics* stats = nullptr);

/// Convenience: builds the BK-tree over the whole store (over `runner`
/// when given), then partitions.
Partitioning BkPartition(const RankingStore& store, RawDistance theta_c_raw,
                         BkPartitionMode mode, Statistics* stats = nullptr,
                         const PartRunner& runner = {});

}  // namespace topk

#endif  // TOPK_CLUSTER_BK_PARTITIONER_H_
