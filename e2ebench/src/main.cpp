// e2ebench — end-to-end benchmark of maestro flows and campaigns.
//
//   e2ebench --workload flow_congested|mab_campaign|tune_memo --seed N
//            --seconds S --trace 0|1 [--spawn-ns T] [--trace-out FILE]
//
// Runs whole rounds of the workload for S seconds and prints, as the last
// line of stdout, {"correct", "attempted", "failed", "metrics"}: end-to-end
// metrics with --trace 0, per-layer metrics with --trace 1. --spawn-ns is
// the CLOCK_MONOTONIC time (ns) at which the launcher spawned this process,
// so setup_s counts from process start; without it, from main(). Scratch
// files (store directories, sockets) live under .bench_tmp/ in the working
// directory and are removed before exit.

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "e2ebench: " << why
            << "\nusage: e2ebench --workload flow_congested|mab_campaign|tune_memo --seed N "
               "--seconds S --trace 0|1 [--spawn-ns T] [--trace-out FILE]\n";
  std::exit(2);
}

/// Scratch directory removed on every exit path out of main's scope.
struct ScratchDir {
  std::string path;
  ScratchDir() {
    std::filesystem::create_directories(".bench_tmp");
    char tmpl[] = ".bench_tmp/run-XXXXXX";
    if (::mkdtemp(tmpl) == nullptr) throw std::runtime_error("mkdtemp failed");
    path = tmpl;
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
    std::filesystem::remove(".bench_tmp", ec);  // only if no other run uses it
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
};

}  // namespace

int main(int argc, char** argv) {
  using e2e::Clock;
  e2e::Args args;
  args.t0 = Clock::now();
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        args.workload = v;
        have_workload = true;
      } else if (a == "--seed") {
        args.seed = std::stoull(v);
        have_seed = true;
      } else if (a == "--seconds") {
        args.seconds = std::stod(v);
        have_seconds = args.seconds > 0.0;
      } else if (a == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        args.trace = v == "1";
        have_trace = true;
      } else if (a == "--spawn-ns") {
        args.t0 = Clock::time_point(std::chrono::nanoseconds(std::stoll(v)));
      } else if (a == "--trace-out") {
        args.trace_out = v;
      } else {
        usage("unknown argument " + a);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + a + ": " + v);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds (> 0) and --trace are required");
  }

  e2e::Report (*run)(const e2e::Args&, e2e::SpanLog&) = nullptr;
  if (args.workload == "flow_congested") run = e2e::run_flow_congested;
  else if (args.workload == "mab_campaign") run = e2e::run_mab_campaign;
  else if (args.workload == "tune_memo") run = e2e::run_tune_memo;
  else usage("unknown workload " + args.workload);

  try {
    const ScratchDir scratch;
    args.tmp_dir = scratch.path;
    e2e::SpanLog log;
    const e2e::Report report = run(args, log);
    if (!args.trace_out.empty() && !log.write_chrome(args.trace_out)) {
      std::cerr << "e2ebench: could not write " << args.trace_out << '\n';
    }
    std::cout << report.json() << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "e2ebench: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
