// dsmbench: one run of one perfbench workload.
//
//   dsmbench --workload <paper-mix|algo-grid|durable-small|cluster-mix>
//            --seed N --seconds S --trace 0|1 [--smoke] [--work-dir DIR]
//
// Prints human-readable lines prefixed with '#', then one JSON line with
// provenance and informational fields, then the result object as the last
// line of stdout. With --trace 0 the result carries the end-to-end metrics;
// with --trace 1 the per-layer metrics of a traced run. Exit status: 0 when
// every output checked correct, 1 when a correctness check failed (the
// result line says which in the info line's "errors"), 2 on a usage or
// internal error (no result line).
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "pb.hpp"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "dsmbench: " << why
            << "\nusage: dsmbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--smoke] [--work-dir DIR]\n";
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& text) {
  std::size_t used = 0;
  unsigned long long v = 0;
  try {
    v = std::stoull(text, &used, 10);
  } catch (const std::exception&) {
    usage(flag + " needs a non-negative integer, got '" + text + "'");
  }
  if (used != text.size()) {
    usage(flag + " needs a non-negative integer, got '" + text + "'");
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  pb::Options opt;
  opt.work_dir = ".bench_build/work";
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--smoke") {
      opt.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = parse_u64(a, v);
      have_seed = true;
    } else if (a == "--seconds") {
      const std::uint64_t s = parse_u64(a, v);
      if (s < 1 || s > 3600) usage("--seconds must be in [1, 3600]");
      opt.seconds = static_cast<double>(s);
      have_seconds = true;
    } else if (a == "--trace") {
      if (v != "0" && v != "1") usage("--trace must be 0 or 1");
      opt.trace = v == "1";
      have_trace = true;
    } else if (a == "--work-dir") {
      opt.work_dir = v;
    } else {
      usage("unknown flag " + a);
    }
  }
  if (opt.workload.empty() || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  const unsigned hw = std::thread::hardware_concurrency();
  opt.nproc = hw == 0 ? 1 : static_cast<int>(hw);

  pb::Report report;
  try {
    if (opt.workload == "algo-grid") {
      pb::run_algo_grid(opt, report);
    } else if (opt.workload == "paper-mix" || opt.workload == "durable-small" ||
               opt.workload == "cluster-mix") {
      pb::run_service_workload(opt, report);
    } else {
      usage("unknown workload '" + opt.workload + "'");
    }
  } catch (const std::exception& e) {
    std::cerr << "dsmbench: " << opt.workload << " failed: " << e.what()
              << "\n";
    return 2;
  }
  report.info("provenance", pb::provenance_json(opt));
  std::cout << report.info_line() << "\n"
            << report.result_line() << std::endl;
  return report.correct() ? 0 : 1;
}
