// Set-up and the timed loop shared by every workload.
#include "workload.h"

#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <thread>

#include "core/brute_force.h"
#include "core/stats_io.h"
#include "corpus/synthetic.h"
#include "serve/serving_builder.h"
#include "util/stopwatch.h"

namespace perfbench {

namespace fs = std::filesystem;

namespace {

/// Share of --seconds planned for the batch phase; the serve phase gets
/// the rest.
constexpr double kBatchShare = 0.5;
/// Typical batch cycle wall time of every workload on a 4-vCPU VM (1.0 to
/// 1.25 s). It fixes how many cycles a run of a given --seconds times,
/// whatever the speed of the build under test.
constexpr double kCycleMs = 1200;
/// Serve windows are sized from the warm-up window to last about this long.
constexpr double kWindowMs = 250;
constexpr uint64_t kWarmupQueries = 1000;

/// Removes a directory tree when it goes out of scope.
class ScopedDir {
 public:
  explicit ScopedDir(std::string path) : path_(std::move(path)) {}
  ~ScopedDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  ScopedDir(const ScopedDir&) = delete;
  ScopedDir& operator=(const ScopedDir&) = delete;

 private:
  const std::string path_;
};

/// BruteForceCounts in a child process, so the oracle's memory does not
/// count toward the benchmark's peak RSS. The child writes the table to a
/// file; the destructor kills and reaps a child that was never waited for.
class ReferenceProcess {
 public:
  ReferenceProcess() = default;
  ~ReferenceProcess() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
    }
  }
  ReferenceProcess(const ReferenceProcess&) = delete;
  ReferenceProcess& operator=(const ReferenceProcess&) = delete;

  /// Must be called while the process has no other threads.
  bool Start(const ngram::Corpus& corpus, uint64_t tau, uint32_t sigma,
             const std::string& path) {
    fflush(stdout);
    fflush(stderr);
    pid_ = fork();
    if (pid_ == 0) {
      const ngram::NgramStatistics stats =
          ngram::BruteForceCounts(corpus, tau, sigma);
      _exit(ngram::WriteStatsBinary(stats, path).ok() ? 0 : 1);
    }
    return pid_ > 0;
  }

  /// Waits for the child; true when it wrote the table.
  bool Wait() {
    int status = 0;
    const pid_t pid = waitpid(pid_, &status, 0);
    pid_ = -1;
    return pid > 0 && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

 private:
  pid_t pid_ = -1;
};

ngram::Corpus Generate(const WorkloadConfig& cfg, uint64_t seed) {
  return ngram::GenerateSyntheticCorpus(
      cfg.clueweb ? ngram::ClueWebLikeOptions(cfg.docs, seed)
                  : ngram::NytLikeOptions(cfg.docs, seed));
}

/// Timed batch cycles of a run: fixed by --seconds alone, so every build
/// takes its medians over the same cycle indices (APRIORI-SCAN slows from
/// cycle to cycle on count-spill; see README). A multiple of 4, so that a
/// traced run's untraced, traced, traced, untraced pattern is balanced.
int TimedCycles(double seconds) {
  const double fit = seconds * 1e3 * kBatchShare / kCycleMs;
  return 4 * std::max(1, static_cast<int>(fit / 4));
}

/// Whether timed unit `i` of a traced run is traced: the pattern U T T U
/// repeats, so a drift over the run weighs on both sides alike.
bool TracedUnit(int i) { return i % 4 == 1 || i % 4 == 2; }

/// Heap bytes of a statistics table (payload; allocator overhead aside).
uint64_t TableBytes(const ngram::NgramStatistics& stats) {
  uint64_t bytes = stats.entries.capacity() * sizeof(stats.entries[0]);
  for (const auto& entry : stats.entries) {
    bytes += entry.first.capacity() * sizeof(ngram::TermId);
  }
  return bytes;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024 / 1e6;
}

/// Records a finished set-up step as a span.
void SetupSpan(Trace* trace, const std::string& name, int64_t start_us,
               double ms) {
  trace->Add(Span{name, "setup", start_us, static_cast<int64_t>(ms * 1e3), 0,
                  trace->NextId(), 0, ""});
}

}  // namespace

const std::vector<WorkloadConfig>& Workloads() {
  static const std::vector<WorkloadConfig> workloads = [] {
    WorkloadConfig mem;
    mem.name = "count-mem";
    mem.docs = 1500;
    mem.tau = 10;
    WorkloadConfig spill;
    spill.name = "count-spill";
    spill.clueweb = true;
    spill.docs = 2000;
    spill.tau = 20;
    spill.spill_knobs = true;
    WorkloadConfig zipf;
    zipf.name = "serve-zipf";
    zipf.docs = 1000;
    zipf.tau = 2;
    zipf.cache_bytes = 128 << 10;
    return std::vector<WorkloadConfig>{mem, spill, zipf};
  }();
  return workloads;
}

uint32_t Slots() {
  return std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
}

int RunWorkload(const RunOptions& options, Report* report, Trace* trace) {
  const auto& all = Workloads();
  auto found = std::find_if(all.begin(), all.end(), [&](const auto& w) {
    return w.name == options.workload;
  });
  if (found == all.end()) {
    fprintf(stderr, "perfbench: unknown workload '%s'\n",
            options.workload.c_str());
    return 2;
  }
  WorkloadConfig config = *found;
  if (options.smoke) {
    config.docs /= 10;
  }

  Setup setup;
  setup.config = &config;
  const std::string run_dir = options.out_dir + "/run-" + config.name + "-" +
                              std::to_string(getpid());
  ScopedDir remove_run_dir(run_dir);
  setup.work_dir = run_dir + "/work";
  setup.store_dir = run_dir + "/store";
  std::error_code ec;
  fs::create_directories(setup.work_dir, ec);
  fs::create_directories(setup.store_dir, ec);
  if (ec) {
    fprintf(stderr, "perfbench: cannot create %s: %s\n", run_dir.c_str(),
            ec.message().c_str());
    return 1;
  }
  for (ngram::Method m :
       {ngram::Method::kNaive, ngram::Method::kAprioriScan,
        ngram::Method::kAprioriIndex, ngram::Method::kSuffixSigma}) {
    if (JobOptions(setup, m, nullptr).job_overhead_ms != 0) {
      fprintf(stderr, "perfbench: refusing to time a modelled job overhead\n");
      return 2;
    }
  }

  // Set-up, repeated: corpus generation and the input context. The
  // reference is computed once, in a child, while the repetitions run.
  const int reps = options.smoke ? 1 : 3;
  std::vector<double> rep_ms(reps, 0.0);
  std::vector<double> gen_ms;
  std::vector<double> ctx_ms;
  ReferenceProcess reference_process;
  const std::string reference_path = run_dir + "/reference.ngs";
  ngram::Stopwatch reference_clock;
  for (int r = 0; r < reps; ++r) {
    int64_t start_us = trace->NowUs();
    ngram::Stopwatch clock;
    setup.corpus = Generate(config, options.seed);
    gen_ms.push_back(clock.ElapsedMillis());
    SetupSpan(trace, "corpus_gen", start_us, gen_ms.back());
    if (r == 0) {
      reference_clock.Restart();
      if (!reference_process.Start(setup.corpus, config.tau, kSigma,
                                   reference_path)) {
        fprintf(stderr, "perfbench: fork failed\n");
        return 1;
      }
    }
    start_us = trace->NowUs();
    clock.Restart();
    setup.ctx = ngram::BuildCorpusContext(setup.corpus);
    ctx_ms.push_back(clock.ElapsedMillis());
    SetupSpan(trace, "context_build", start_us, ctx_ms.back());
    rep_ms[r] += gen_ms.back() + ctx_ms.back();
  }
  int64_t start_us = trace->NowUs();
  auto reference = std::make_shared<ngram::NgramStatistics>();
  if (!reference_process.Wait() ||
      !ngram::ReadStatsBinary(reference_path, reference.get()).ok()) {
    fprintf(stderr, "perfbench: computing the reference failed\n");
    return 1;
  }
  reference->SortCanonical();
  setup.reference = reference;
  double reference_ms = reference_clock.ElapsedMillis();
  SetupSpan(trace, "reference (wait)", start_us,
            (trace->NowUs() - start_us) / 1e3);

  // Warm-up cycle; its SUFFIX-sigma table becomes the store.
  BatchPhase batch(&setup, report, trace);
  const double warmup_batch_ms = batch.RunCycle(false, false);
  start_us = trace->NowUs();
  ngram::Stopwatch expected_clock;
  ServePhase serve(&setup, report, trace, options.seed);
  reference_ms += expected_clock.ElapsedMillis();
  SetupSpan(trace, "expected answers", start_us,
            expected_clock.ElapsedMillis());
  std::vector<double> build_ms;
  std::vector<double> open_ms;
  for (int r = 0; r < reps; ++r) {
    ngram::serve::BuildServingOptions build_options;
    build_options.num_shards = kShards;
    start_us = trace->NowUs();
    ngram::Stopwatch clock;
    const ngram::Status st = ngram::serve::BuildServingShards(
        batch.last_suffix_sigma(), setup.store_dir, build_options);
    build_ms.push_back(clock.ElapsedMillis());
    SetupSpan(trace, "build_serving", start_us, build_ms.back());
    if (!st.ok()) {
      fprintf(stderr, "perfbench: BuildServingShards: %s\n",
              st.ToString().c_str());
      return 1;
    }
    start_us = trace->NowUs();
    clock.Restart();
    if (!serve.Open()) {
      return 1;
    }
    open_ms.push_back(clock.ElapsedMillis());
    SetupSpan(trace, "serve_open", start_us, open_ms.back());
    rep_ms[r] += build_ms.back() + open_ms.back();
  }
  const uint64_t warmup_queries =
      options.smoke ? kWarmupQueries / 5 : kWarmupQueries;
  const double warmup_serve_ms = serve.RunWindow(warmup_queries, false, false);
  const uint64_t window_queries = std::max<uint64_t>(
      100, static_cast<uint64_t>(warmup_queries * kWindowMs /
                                 std::max(warmup_serve_ms, 1.0)));
  const double warmup_ms = warmup_batch_ms + warmup_serve_ms;
  const double setup_s = (Median(rep_ms) + warmup_ms) / 1e3;

  // The timed phases, interleaved so that both sample the whole run: the
  // next unit is a batch cycle while cycles are left and the batch phase is
  // behind its share of the time measured so far, a serve window
  // otherwise; windows fill the rest of --seconds. A traced run mixes
  // untraced and traced cycles (and windows), so the difference between
  // the two is the tracing overhead.
  const double budget_ms = options.seconds * 1e3;
  const int timed_cycles = TimedCycles(options.seconds);
  const int min_windows = options.trace ? 2 : 1;
  double batch_ms = 0;
  double serve_ms = 0;
  int cycles = 0;
  int windows = 0;
  while (cycles < timed_cycles || windows < min_windows ||
         batch_ms + serve_ms < budget_ms) {
    if (cycles < timed_cycles &&
        batch_ms <= kBatchShare * (batch_ms + serve_ms)) {
      batch_ms += batch.RunCycle(true, options.trace && TracedUnit(cycles));
      ++cycles;
    } else {
      serve_ms += serve.RunWindow(window_queries, true,
                                  options.trace && TracedUnit(windows));
      ++windows;
    }
  }

  if (!options.trace) {
    batch.ReportEndToEnd(report);
    serve.ReportEndToEnd(report);
    report->EndToEnd("setup_s", "s", setup_s,
                     "median of " + std::to_string(reps) +
                         " set-ups + warm-up");
    report->EndToEnd("peak_rss_mb", "MB", PeakRssMb());
    return 0;
  }
  report->Layer("corpus_gen_ms", "ms", Median(gen_ms));
  report->Layer("context_build_ms", "ms", Median(ctx_ms));
  report->Layer("reference_ms", "ms", reference_ms,
                "oracle work, not part of setup_s");
  report->Layer("oracle_mb", "MB",
                (TableBytes(*setup.reference) + serve.OwnedBytes()) / 1e6,
                "benchmark-held reference table and expected answers, part "
                "of peak_rss_mb");
  report->Layer("stats_build_ms", "ms", batch.last_suffix_sigma_ms(),
                "SUFFIX-sigma run that fed the store");
  report->Layer("build_serving_ms", "ms", Median(build_ms));
  report->Layer("serve_open_ms", "ms", Median(open_ms));
  report->Layer("warmup_ms", "ms", warmup_ms);
  batch.ReportLayers(report);
  serve.ReportLayers(report);
  const double untraced =
      batch.MedianCycleMs(false) + serve.MedianWindowMs(false);
  const double traced = batch.MedianCycleMs(true) + serve.MedianWindowMs(true);
  report->Layer("trace_overhead_pct", "%",
                untraced > 0 ? (traced / untraced - 1) * 100 : 0,
                "median traced vs untraced cycle + window");
  return 0;
}

}  // namespace perfbench
