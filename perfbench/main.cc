// perfbench: the repo benchmark program. One workload per run:
//
//   perfbench --workload grid|serve --seed N --seconds S --trace 0|1
//             [--spans PATH]
//
// Prints a detail line (environment stamp, per-operation counts, extra
// measurements) and, last, the result line
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the workload's end-to-end metrics, measured with tracing
// off; with --trace 1 they are its per-layer metrics, and the spans are
// written to --spans. Exits 1 when any output check failed, 2 on bad
// arguments or a polluted environment.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "perfbench/bench_common.h"
#include "src/trace/chunk_cache.h"
#include "src/util/random_access_file.h"
#include "src/util/string_util.h"

namespace {

// Variables that change what the library does; the benchmark measures
// the library defaults, so every one of them must be unset.
constexpr const char* kPinnedEnv[] = {"DDR_FAULT_PLAN", "DDR_SCHED",
                                      "DDR_DECODE_PATH", "DDR_IO_BACKEND",
                                      "DDR_CACHE_MB"};

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload grid|serve "
               "--seed N --seconds S --trace 0|1 [--spans PATH]\n",
               message);
  return 2;
}

std::string Stamp(const perfbench::RunConfig& config) {
  return ddr::StrPrintf(
      "{\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,\"trace\":%d,"
      "\"cores\":%u,\"build_type\":\"%s\",\"compiler\":\"%s\","
      "\"io_backend\":\"%s\",\"cache_bytes\":%llu}",
      config.workload.c_str(), static_cast<unsigned long long>(config.seed),
      config.seconds, config.trace ? 1 : 0,
      std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
      PERFBENCH_COMPILER,
      std::string(ddr::IoBackendName(ddr::DefaultIoBackend())).c_str(),
      static_cast<unsigned long long>(ddr::DefaultChunkCacheBytes()));
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && config.seconds > 0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      config.trace = value == "1";
    } else if (flag == "--spans") {
      config.spans_path = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1 || config.workload.empty() || !have_seed ||
      !have_seconds || !have_trace) {
    return Usage("missing or malformed arguments");
  }
  for (const char* name : kPinnedEnv) {
    if (std::getenv(name) != nullptr) {
      return Usage((std::string(name) + " must be unset").c_str());
    }
  }

  perfbench::Report report;
  if (config.workload == "grid") {
    perfbench::RunGrid(config, report);
  } else if (config.workload == "serve") {
    perfbench::RunServe(config, report);
  } else {
    return Usage(("unknown workload " + config.workload).c_str());
  }

  const std::string stamp = Stamp(config);
  if (config.trace && !config.spans_path.empty() &&
      !perfbench::WriteSpans(config.spans_path, perfbench::Tracer::Snapshot(),
                             stamp)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 config.spans_path.c_str());
  }
  std::printf("%s\n%s\n", report.DetailLine(stamp).c_str(),
              report.ResultLine().c_str());
  return report.correct() ? 0 : 1;
}
