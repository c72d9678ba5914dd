// Table 6: index sizes (MB) and construction times (seconds) for k = 10,
// both datasets; coarse index at theta_C = 0.5.
//
// Paper shape to reproduce: all indexes are of the same order of
// magnitude in size (they all store the rankings' content); the augmented
// inverted index is the largest; the metric trees are compact; the coarse
// index construction dominates everything (BK-tree build + partitioning;
// this library's partitions need no trees of their own, DESIGN.md), while
// plain inverted index construction — no
// distance computations at all — is by far the cheapest.

#include <iostream>

#include "bench_util.h"
#include "harness/query_algorithms.h"
#include "harness/report.h"

namespace topk {
namespace {

void RunDataset(const char* name, const RankingStore& store) {
  std::cout << "\n--- " << name << " (n=" << store.size() << ", k=10) ---\n";
  EngineSuite suite(&store);
  // The store itself holds the ranking payload every index shares; report
  // it once so sizes can be read as "directory + store".
  std::cout << "ranking store payload: " << FormatMegabytes(
                   store.MemoryUsage())
            << " MB\n";

  struct Row {
    const char* label;
    Algorithm algorithm;
  };
  const Row rows[] = {
      {"Plain Inverted Index", Algorithm::kFV},
      {"Augmented Inverted Index", Algorithm::kListMerge},
      {"Blocked Inverted Index", Algorithm::kBlockedPrune},
      {"Delta Inverted Index", Algorithm::kAdaptSearch},
      {"BK-tree", Algorithm::kBkTree},
      {"M-tree", Algorithm::kMTree},
      {"Coarse Index (theta_C=0.5)", Algorithm::kCoarse},
  };
  TextTable table({"index", "size_MB", "construction_s"});
  for (const Row& row : rows) {
    const IndexBuildInfo info = suite.BuildInfo(row.algorithm);
    table.AddRow({row.label, FormatMegabytes(info.memory_bytes),
                  FormatDouble(info.build_ms / 1000.0, 3)});
  }
  table.Print(std::cout);
}

}  // namespace
}  // namespace topk

int main(int argc, char** argv) {
  using namespace topk;
  const auto args = bench::BenchArgs::Parse(argc, argv);
  bench::PrintHeader("Table 6: index size and construction time", args);
  const RankingStore nyt = bench::MakeNyt(args, 10);
  const RankingStore yago = bench::MakeYago(args, 10);
  RunDataset("NYT-like", nyt);
  RunDataset("Yago-like", yago);
  return 0;
}
