// ngram_perfbench: runs one benchmark workload and prints its metrics.
//
//   ngram_perfbench --workload count-mem --seed 1 --seconds 30 --trace 0
//                   --out-dir .bench_build/out [--commit SHA] [--smoke]
//
// The last line of standard output is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1; the spans go to <out-dir>/trace-<workload>-seed<N>.json).
// Run it through perfbench/run.py, which builds it first.
#include <sys/vfs.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "report.h"
#include "trace.h"
#include "workload.h"

namespace {

using perfbench::JsonEscape;

int Usage() {
  fprintf(stderr,
          "usage: ngram_perfbench --workload NAME --seed N --seconds S "
          "--trace 0|1 --out-dir DIR [--commit SHA] [--smoke]\n"
          "workloads:");
  for (const auto& w : perfbench::Workloads()) {
    fprintf(stderr, " %s", w.name.c_str());
  }
  fprintf(stderr, "\n");
  return 2;
}

std::string FilesystemType(const std::string& path) {
  struct statfs s {};
  if (statfs(path.c_str(), &s) != 0) {
    return "unknown";
  }
  switch (static_cast<unsigned long>(s.f_type)) {
    case 0xEF53:
      return "ext4";
    case 0x01021994:
      return "tmpfs";
    case 0x794C7630:
      return "overlayfs";
    case 0x58465342:
      return "xfs";
    case 0x9123683E:
      return "btrfs";
    case 0x6969:
      return "nfs";
    case 0x65735546:
      return "fuse";
    case 0x2FC12FC1:
      return "zfs";
    default: {
      char buf[32];
      snprintf(buf, sizeof(buf), "0x%lx",
               static_cast<unsigned long>(s.f_type));
      return buf;
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  std::string commit = "unknown";
  bool have_seed = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--smoke") {
      options.smoke = true;
      continue;
    }
    if (value == nullptr) {
      return Usage();
    }
    ++i;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      options.seconds = atof(value);
    } else if (arg == "--trace") {
      options.trace = strcmp(value, "0") != 0;
      have_trace = true;
    } else if (arg == "--out-dir") {
      options.out_dir = value;
    } else if (arg == "--commit") {
      commit = value;
    } else {
      return Usage();
    }
  }
  if (options.workload.empty() || !have_seed || !have_trace ||
      options.out_dir.empty() || !(options.seconds > 0)) {
    return Usage();
  }

  // Only optimized builds with real (not modelled) job costs are timed.
#ifdef NDEBUG
  const bool optimized = strcmp(PERFBENCH_BUILD_TYPE, "Release") == 0;
#else
  const bool optimized = false;
#endif
  if (!optimized) {
    fprintf(stderr, "perfbench: refusing to time a %s build (need Release)\n",
            PERFBENCH_BUILD_TYPE);
    return 2;
  }
  const char* overhead = getenv("NGRAM_BENCH_JOB_OVERHEAD_MS");
  if (overhead != nullptr && atof(overhead) != 0) {
    fprintf(stderr,
            "perfbench: refusing to time with NGRAM_BENCH_JOB_OVERHEAD_MS=%s"
            " (job_overhead_ms must be 0)\n",
            overhead);
    return 2;
  }

  std::error_code ec;
  std::filesystem::create_directories(options.out_dir, ec);
  // Anything the library would put in a private temp dir stays here too.
  setenv("TMPDIR", options.out_dir.c_str(), 1);

  char meta[1024];
  snprintf(meta, sizeof(meta),
           "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
           "\"trace\": %d, \"smoke\": %d, \"nproc\": %u, \"slots\": %u, "
           "\"clients\": %u, \"compiler\": \"%s\", \"build_type\": \"%s\", "
           "\"commit\": \"%s\", \"work_dir_fs\": \"%s\", "
           "\"job_overhead_ms\": 0}",
           JsonEscape(options.workload).c_str(),
           static_cast<unsigned long long>(options.seed), options.seconds,
           options.trace ? 1 : 0, options.smoke ? 1 : 0,
           std::thread::hardware_concurrency(), perfbench::Slots(),
           perfbench::kClients, JsonEscape(PERFBENCH_COMPILER).c_str(),
           PERFBENCH_BUILD_TYPE, JsonEscape(commit).c_str(),
           FilesystemType(options.out_dir).c_str());
  printf("meta %s\n", meta);

  perfbench::Report report;
  perfbench::Trace trace(options.trace);
  const int rc = perfbench::RunWorkload(options, &report, &trace);
  if (rc != 0) {
    return rc;
  }
  if (options.trace) {
    const std::string path = options.out_dir + "/trace-" + options.workload +
                             "-seed" + std::to_string(options.seed) + ".json";
    if (!trace.Write(path, meta)) {
      fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
      return 1;
    }
    fprintf(stderr, "perfbench: %zu spans written to %s\n", trace.size(),
            path.c_str());
  }
  printf("%s (%s)\n", options.workload.c_str(),
         options.trace ? "per-layer metrics, traced run"
                       : "end-to-end metrics, untraced run");
  report.PrintSummary(stdout, options.trace);
  printf("%s\n", report.ResultLine(options.trace).c_str());
  return 0;
}
