// perfbench: runs one benchmark workload and prints its report as one
// JSON line (the last line of standard output).
//
//   perfbench --workload nyt_ram --seed 1 --seconds 10 --trace 0
//             [--work-dir <dir>] [--commit <rev>]
//
// perfbench/run.py builds this binary, runs it and turns the report into
// the benchmark result; see perfbench/README.md.

#include <cstdlib>
#include <filesystem>
#include <functional>
#include <iostream>
#include <map>
#include <string>

#include "common.h"

namespace {

int Usage(const char* message) {
  std::cerr << "perfbench: " << message
            << "\nusage: perfbench --workload <nyt_ram|nyt_snapshot|"
               "yago_live|nyt_log_coarse> --seed <n> --seconds <s> "
               "--trace <0|1> [--work-dir <dir>] [--commit <rev>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) return "";
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      options.trace = value() == "1";
    } else if (arg == "--work-dir") {
      options.work_dir = value();
    } else if (arg == "--commit") {
      options.commit = value();
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  const std::map<std::string, std::function<void(
                                  const perfbench::RunOptions&,
                                  perfbench::Report*)>>
      workloads = {{"nyt_ram", perfbench::RunNytRam},
                   {"nyt_snapshot", perfbench::RunNytSnapshot},
                   {"yago_live", perfbench::RunYagoLive},
                   {"nyt_log_coarse", perfbench::RunNytLogCoarse}};
  const auto it = workloads.find(options.workload);
  if (it == workloads.end()) return Usage("unknown workload");
  if (options.seconds <= 0) return Usage("--seconds must be positive");
  std::filesystem::create_directories(options.work_dir);

  perfbench::Report report;
  perfbench::AddRunMetadata(options, &report);
  it->second(options, &report);
  std::cout << report.ToJson() << std::endl;
  return 0;
}
