// Figure 5: M-tree vs BK-tree wall time on the NYT-like dataset.
// Left plot: k in {5,10,15,20,25} at theta = 0.1.
// Right plot: theta in {0, 0.05, ..., 0.3} at k = 10.
//
// Both trees are the paper's baselines: the BK-tree runs in faithful mode
// (no duplicate-distance reuse — the paper applies that optimization
// inside the coarse index's partitions, not to the standalone baseline it
// measured).
//
// Paper shape to reproduce: the (unbalanced) BK-tree beats the balanced
// M-tree at this intrinsic dimensionality, and both degrade with theta.

#include <iostream>

#include "bench_util.h"
#include "harness/report.h"
#include "metric/bk_tree.h"
#include "metric/m_tree.h"

namespace topk {
namespace {

constexpr BkTreeOptions kFaithful{/*reuse_duplicate_distances=*/false};

double RunTree(const BkTree& tree, const std::vector<PreparedQuery>& queries,
               RawDistance theta_raw) {
  Stopwatch watch;
  for (const PreparedQuery& query : queries) {
    tree.RangeQuery(query.sorted_view(), theta_raw);
  }
  return watch.ElapsedMillis() / 1000.0;
}

double RunTree(const MTree& tree, const std::vector<PreparedQuery>& queries,
               RawDistance theta_raw) {
  Stopwatch watch;
  for (const PreparedQuery& query : queries) {
    tree.RangeQuery(query.sorted_view(), theta_raw);
  }
  return watch.ElapsedMillis() / 1000.0;
}

void Sweep(const bench::BenchArgs& args) {
  std::cout << "\n--- left: vary k (theta = 0.1) ---\n";
  TextTable by_k({"k", "BK-tree_s", "M-tree_s"});
  for (uint32_t k : {5u, 10u, 15u, 20u, 25u}) {
    const RankingStore store = bench::MakeNyt(args, k);
    const auto queries = bench::MakeBenchWorkload(store, args);
    const BkTree bk = BkTree::BuildAll(&store, nullptr, kFaithful);
    const MTree mt = MTree::BuildAll(&store);
    const RawDistance theta_raw = RawThreshold(0.1, k);
    by_k.AddRow({std::to_string(k),
                 FormatDouble(RunTree(bk, queries, theta_raw), 3),
                 FormatDouble(RunTree(mt, queries, theta_raw), 3)});
  }
  by_k.Print(std::cout);

  std::cout << "\n--- right: vary theta (k = 10) ---\n";
  TextTable by_theta({"theta", "BK-tree_s", "M-tree_s"});
  const RankingStore store = bench::MakeNyt(args, 10);
  const auto queries = bench::MakeBenchWorkload(store, args);
  const BkTree bk = BkTree::BuildAll(&store, nullptr, kFaithful);
  const MTree mt = MTree::BuildAll(&store);
  for (double theta : {0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3}) {
    const RawDistance theta_raw = RawThreshold(theta, 10);
    by_theta.AddRow({FormatDouble(theta, 2),
                     FormatDouble(RunTree(bk, queries, theta_raw), 3),
                     FormatDouble(RunTree(mt, queries, theta_raw), 3)});
  }
  by_theta.Print(std::cout);
}

}  // namespace
}  // namespace topk

int main(int argc, char** argv) {
  using namespace topk;
  auto args = bench::BenchArgs::Parse(argc, argv);
  // Metric trees are the slow baselines; keep the default workload small
  // enough that the bench stays snappy.
  if (!args.full && args.queries > 200) args.queries = 200;
  bench::PrintHeader("Figure 5: M-tree vs BK-tree (NYT-like)", args);
  Sweep(args);
  return 0;
}
