// bench_kernel: standalone micro-benchmark of the src/kernel/ and
// src/storage/ kernels.
//
// Prints the same `kernel`, `simd` and `storage` sections bench_baseline
// embeds into BENCH_baseline.json (naive vs merge vs batched Footrule
// validation; per-item vector lists vs the CSR posting arena; scalar vs
// lane kernels; CRC32C and block-decode throughput, each dispatched body
// against its scalar twin), as its own JSON document (default
// BENCH_kernel.json, override with --out=). Useful for iterating on
// kernel changes without re-running the full baseline.

#include <fstream>
#include <iostream>
#include <string>

#include "bench_util.h"
#include "json_writer.h"
#include "kernel_bench.h"
#include "storage_bench.h"

namespace topk {
namespace {

int Run(int argc, char** argv) {
  const auto args = bench::BenchArgs::Parse(argc, argv);
  std::string out_path = "BENCH_kernel.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--out=", 0) == 0) out_path = arg.substr(6);
  }
  bench::PrintHeader("Kernel micro-benchmark (JSON)", args);

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot open " << out_path << " for writing\n";
    return 1;
  }
  bench::JsonWriter json(&out);
  json.BeginObject();
  json.Key("schema_version");
  json.Uint(1);
  bench::EmitKernelSection(&json, args);
  bench::EmitSimdSection(&json, args);
  bench::EmitStorageSection(&json, args);
  json.EndObject();
  out << "\n";
  std::cout << "wrote " << out_path << "\n";
  return 0;
}

}  // namespace
}  // namespace topk

int main(int argc, char** argv) { return topk::Run(argc, argv); }
