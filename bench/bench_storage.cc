// bench_storage: standalone benchmark of the compressed storage tier.
//
// Prints the same `storage` section bench_baseline embeds into
// BENCH_baseline.json (snapshot checksum throughput, posting-arena
// compression footprint, query
// latency through the four serving tiers with a bit-exactness check
// against the RAM baseline, snapshot residency right after a page-cache
// evicted open — the zero-copy evidence), as its own JSON document
// (default BENCH_storage.json, override with --out=). Useful for
// iterating on storage/ changes without re-running the full baseline.

#include <fstream>
#include <iostream>
#include <string>

#include "bench_util.h"
#include "json_writer.h"
#include "storage_bench.h"

namespace topk {
namespace {

int Run(int argc, char** argv) {
  const auto args = bench::BenchArgs::Parse(argc, argv);
  std::string out_path = "BENCH_storage.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--out=", 0) == 0) out_path = arg.substr(6);
  }
  bench::PrintHeader("Storage tier benchmark (JSON)", args);

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot open " << out_path << " for writing\n";
    return 1;
  }
  bench::JsonWriter json(&out);
  json.BeginObject();
  json.Key("schema_version");
  json.Uint(1);
  bench::EmitStorageSection(&json, args);
  json.EndObject();
  out << "\n";
  std::cout << "wrote " << out_path << "\n";
  return 0;
}

}  // namespace
}  // namespace topk

int main(int argc, char** argv) { return topk::Run(argc, argv); }
