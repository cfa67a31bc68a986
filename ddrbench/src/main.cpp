// ddrbench — runs one workload of the DDR end-to-end benchmark and prints
// its report as one JSON line (run.py builds this program and formats the
// report). Usage:
//
//   ddrbench --workload <pencil_fft|rebalance|insitu_lbm|tiff_volume>
//            --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <string>

#include "suite.hpp"

int main(int argc, char** argv) {
  bench::Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") o.workload = v;
    else if (k == "--seed") o.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") o.seconds = std::atof(v.c_str());
    else if (k == "--trace") o.trace = v == "1";
    else if (k == "--work-dir") o.work_dir = v;
    else {
      std::fprintf(stderr, "ddrbench: unknown option %s\n", k.c_str());
      return 2;
    }
  }
  const std::map<std::string, bench::Report (*)(const bench::Options&)> suite{
      {"pencil_fft", bench::run_pencil_fft},
      {"rebalance", bench::run_rebalance},
      {"insitu_lbm", bench::run_insitu_lbm},
      {"tiff_volume", bench::run_tiff_volume},
  };
  const auto it = suite.find(o.workload);
  if (it == suite.end() || o.seconds <= 0) {
    std::fprintf(stderr,
                 "ddrbench: need --workload <name> and --seconds > 0\n");
    return 2;
  }
  try {
    bench::warm_up_cpus(0.5);
    const bench::Report rep = it->second(o);
    std::cout << rep.json() << std::endl;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ddrbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
