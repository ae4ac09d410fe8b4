// ntr_perfbench: runs one benchmark workload and prints its metrics.
//
//   ntr_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--digests DIR] [--spans FILE]
//   ntr_perfbench --workload NAME --write-digests [--digests DIR]
//
// The last line of standard output is the result object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. Exit status 0 when
// every routing matched its checked-in digest, 1 when one did not, 2 on a
// usage or run error.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.h"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "ntr_perfbench: %s\n"
               "usage: ntr_perfbench --workload NAME --seed N --seconds S --trace 0|1 "
               "[--digests DIR] [--spans FILE]\n"
               "       ntr_perfbench --workload NAME --write-digests [--digests DIR]\n",
               why.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions o;
  o.digest_dir = "perfbench/digests";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--workload") o.workload = value();
      else if (arg == "--seed") o.seed = std::stoull(value());
      else if (arg == "--seconds") o.seconds = std::stod(value());
      else if (arg == "--trace") o.trace = std::stoi(value()) != 0;
      else if (arg == "--digests") o.digest_dir = value();
      else if (arg == "--spans") o.spans_path = value();
      else if (arg == "--write-digests") o.write_digests = true;
      else usage("unknown argument " + arg);
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  bool known = false;
  for (const std::string& name : perfbench::workload_names()) known |= name == o.workload;
  if (!known) usage("unknown workload '" + o.workload + "'");

  try {
    if (o.write_digests) {
      perfbench::write_digests(o);
      return 0;
    }
    const perfbench::LibraryWorkload* library =
        perfbench::find_library_workload(o.workload);
    const perfbench::RunResult r = library ? perfbench::run_library_workload(*library, o)
                                           : perfbench::run_serve_mix(o);
    for (const std::string& note : r.notes) std::printf("%s\n", note.c_str());
    for (const perfbench::Metric& m : r.metrics)
      std::printf("%-24s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    const std::string line =
        perfbench::result_json(r.correct, r.attempted, r.failed, r.metrics);
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
    return r.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ntr_perfbench: %s\n", e.what());
    return 2;
  }
}
