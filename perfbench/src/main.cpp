// Benchmark of record for hotspot-bnn. Usage:
//
//   perfbench --workload <offline_paper128|scan_tiled|serve_mixed>
//             --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//
// Prints detail lines (inputs, host fingerprint) and, last, one JSON result
// line: {"correct", "attempted", "failed", "metrics"}. An untraced run
// reports the end-to-end metrics, a traced run the per-layer metrics.
// Exits 0 when every output matched its reference and nothing failed, 1
// when an output was wrong or a request, window or swap failed (the result
// line is still printed and counts them), 2 on bad usage, 3 when the run
// could not measure (e.g. a one-class reference).
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "util/parallel.h"
#include "workloads.h"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <offline_paper128|scan_tiled|"
               "serve_mixed> --seed <n> --seconds <s> --trace <0|1> "
               "--work-dir <dir>\n");
}

bool parse_u64(const char* text, std::uint64_t* out) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || text[0] == '-') {
    return false;
  }
  *out = value;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      usage();
      return 2;
    }
    const char* value = argv[++i];
    std::uint64_t number = 0;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed" && parse_u64(value, &number)) {
      options.seed = number;
      have_seed = true;
    } else if (flag == "--seconds" && parse_u64(value, &number) &&
               number >= 1 && number <= 60) {
      options.seconds = static_cast<double>(number);
    } else if (flag == "--trace" && (std::string(value) == "0" ||
                                     std::string(value) == "1")) {
      options.trace = std::string(value) == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      usage();
      return 2;
    }
  }
  if (!have_seed || options.work_dir.empty()) {
    usage();
    return 2;
  }
  try {
    hotspot::util::set_parallel_threads(perfbench::pool_threads());
    const perfbench::StealMeter steal;
    perfbench::Result result;
    if (options.workload == "offline_paper128") {
      result = perfbench::run_offline_paper128(options);
    } else if (options.workload == "scan_tiled") {
      result = perfbench::run_scan_tiled(options);
    } else if (options.workload == "serve_mixed") {
      result = perfbench::run_serve_mixed(options);
    } else {
      usage();
      return 2;
    }
    // A run on a host whose CPUs other tenants took a large share of
    // (steal_share) is not comparable with one on a quiet host.
    std::printf("{\"host\":%s,\"steal_share\":%.4f}\n",
                perfbench::host_fingerprint_json().c_str(), steal.share());
    std::printf("%s\n", result.json().c_str());
    std::fflush(stdout);
    return result.passed() ? 0 : 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 3;
  }
}
