// The benchmark's workloads. Every workload is one user scenario: compute
// n-gram statistics over a generated corpus with each of the paper's four
// methods (the batch phase), then serve the result to closed-loop clients
// (the serve phase). The workloads differ in corpus, tau, runtime knobs and
// serving cache, so each layer does real work on one workload and none on
// another:
//
//   count-mem    NYT-like, tau 10, default knobs: CPU layers only; no
//                spill, fetch or KV store; the store fits the block cache.
//   count-spill  CW-like, tau 20, 512 KiB sort buffer, merge factor 16,
//                fetch shuffle, 32 KiB reducer budget: spill, merge,
//                fetch and KV-store layers dominate.
//   serve-zipf   NYT-like, tau 2 (a large store) behind a 128 KiB block
//                cache: block decode and continuation scans dominate.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/input.h"
#include "core/options.h"
#include "core/stats.h"
#include "corpus/zipf.h"
#include "serve/stats_service.h"
#include "report.h"
#include "text/corpus.h"
#include "trace.h"
#include "tracing_env.h"
#include "util/random.h"

namespace perfbench {

struct WorkloadConfig {
  std::string name;
  bool clueweb = false;  // CW-like corpus; NYT-like otherwise.
  uint64_t docs = 0;
  uint64_t tau = 1;
  /// The count-spill knob set (see file comment); defaults otherwise.
  bool spill_knobs = false;
  /// Serving block cache; 0 = the library default.
  size_t cache_bytes = 0;
};

/// Shared by every workload: the paper's sigma, reducers per job, and
/// serving shards.
constexpr uint32_t kSigma = 5;
constexpr uint32_t kReducers = 8;
constexpr uint32_t kShards = 4;

/// The workloads, in the order BENCHMARK.json lists them.
const std::vector<WorkloadConfig>& Workloads();

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Smoke size: a tenth of the corpus, one set-up repetition.
  bool smoke = false;
  /// Scratch directory: work dirs, the store, the trace file.
  std::string out_dir;
};

/// Slots / client threads the load comes from: min(4, nproc) and 2.
uint32_t Slots();
constexpr uint32_t kClients = 2;

/// Everything the phases share once set-up is done.
struct Setup {
  const WorkloadConfig* config = nullptr;
  std::string work_dir;    // Reused by every method run, as users do.
  std::string store_dir;   // Serving shards.
  ngram::Corpus corpus;
  ngram::CorpusContext ctx;
  /// BruteForceCounts(corpus, tau, sigma), canonically sorted.
  std::shared_ptr<ngram::NgramStatistics> reference;
};

/// Options for one method run over `setup` (io_env = nullptr: untraced).
/// job_overhead_ms stays 0: every time is real wall-clock.
ngram::NgramJobOptions JobOptions(const Setup& setup, ngram::Method method,
                                  ngram::mr::IoEnv* io_env);

/// The batch phase: the four methods, cycle after cycle, each output
/// checked against the reference.
class BatchPhase {
 public:
  BatchPhase(const Setup* setup, Report* report, Trace* trace);
  BatchPhase(const BatchPhase&) = delete;
  BatchPhase& operator=(const BatchPhase&) = delete;

  /// Runs every method once and returns the cycle's wall time in ms. The
  /// warm-up cycle (`timed` = false) feeds no metric; a traced cycle runs
  /// through the tracing IoEnv and records spans.
  double RunCycle(bool timed, bool traced);

  /// The SUFFIX-sigma table and time of the last cycle.
  const ngram::NgramStatistics& last_suffix_sigma() const {
    return last_suffix_sigma_;
  }
  double last_suffix_sigma_ms() const { return last_suffix_sigma_ms_; }

  /// Median cycle wall time in ms over timed cycles, untraced or traced.
  double MedianCycleMs(bool traced) const;

  void ReportEndToEnd(Report* report) const;
  void ReportLayers(Report* report) const;

 private:
  struct Sample {
    double wall_ms = 0;
    double cpu_ms = 0;
    ngram::mr::RunMetrics metrics;
    IoSnapshot io;
  };
  struct MethodState {
    ngram::Method method = ngram::Method::kNaive;
    std::string key;  // Metric prefix, e.g. "apriori_scan".
    std::vector<Sample> timed;
    std::vector<Sample> traced;
    /// Warm-up data counters; every later run must reproduce them.
    uint64_t output_bytes = 0;
    uint64_t output_records = 0;
  };

  /// Runs, checks and records one method; returns its wall time in ms.
  double RunMethod(MethodState* state, bool timed, bool traced,
                   uint64_t cycle_span);

  const Setup* const setup_;
  Report* const report_;
  Trace* const trace_;
  TracingEnv env_;
  std::vector<MethodState> methods_;
  std::vector<double> cycle_ms_[2];  // [traced]
  std::vector<IoSnapshot> traced_cycle_io_;
  uint64_t cycles_ = 0;
  uint64_t retries_ = 0;
  uint64_t leaked_files_ = 0;
  ngram::NgramStatistics last_suffix_sigma_;
  double last_suffix_sigma_ms_ = 0;
};

/// The serve phase: closed-loop clients sending the Zipf(1.0) query mix
/// (80% Count, 15% top-k, 5% sentence perplexity) to a StatsService over
/// the store. Every Count and perplexity answer is checked, and every
/// eighth top-k answer.
class ServePhase {
 public:
  ServePhase(const Setup* setup, Report* report, Trace* trace,
             uint64_t seed);
  ServePhase(const ServePhase&) = delete;
  ServePhase& operator=(const ServePhase&) = delete;

  /// Opens the service over the store; false (and logged) on failure.
  bool Open();

  /// Every client sends `queries` queries, each after the previous one
  /// returned; returns the window's wall time in ms. The warm-up window
  /// (`timed` = false) feeds no metric.
  double RunWindow(uint64_t queries, bool timed, bool traced);

  double MedianWindowMs(bool traced) const;

  /// Heap bytes of the query inputs and expected answers this phase holds.
  uint64_t OwnedBytes() const;

  void ReportEndToEnd(Report* report) const;
  void ReportLayers(Report* report) const;

 private:
  /// What one client saw in one window.
  struct ClientResult {
    std::vector<double> count_us, topk_us, ppl_us;
    std::vector<double> topk_empty_us, topk_nonempty_us;
    uint64_t ppl_terms = 0;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /// Sampled top-k answers, checked after the window.
    std::vector<std::pair<ngram::TermSequence,
                          std::vector<ngram::serve::Completion>>>
        topk_samples;
    std::vector<Span> spans;
  };

  void RunClient(uint32_t client, uint64_t queries, bool traced,
                 uint64_t window_span, ClientResult* result);
  std::vector<ngram::serve::Completion> ExpectedTopK(
      const ngram::TermSequence& prefix) const;

  const Setup* const setup_;
  Report* const report_;
  Trace* const trace_;
  std::unique_ptr<ngram::serve::StatsService> service_;
  /// Stored n-grams by descending frequency (the Zipf ranks), pointing
  /// into the reference table.
  std::vector<const ngram::NgramStatistics::Entry*> ranked_;
  std::unique_ptr<ngram::ZipfSampler> sampler_;
  std::vector<ngram::TermSequence> sentences_;
  std::vector<double> expected_ppl_;
  std::vector<ngram::serve::Completion> expected_empty_topk_;
  std::vector<ngram::Rng> client_rngs_;
  double store_bytes_per_ngram_ = 0;

  // Untraced timed windows: the end-to-end metrics.
  std::vector<double> count_us_, topk_us_, ppl_us_;
  uint64_t timed_queries_ = 0;
  double timed_wall_ms_ = 0;
  // Traced windows: the per-layer metrics.
  std::vector<double> topk_empty_us_, topk_nonempty_us_;
  double traced_ppl_us_ = 0;
  uint64_t traced_ppl_terms_ = 0;
  uint64_t traced_queries_ = 0;
  uint64_t traced_cache_hits_ = 0;
  uint64_t traced_cache_misses_ = 0;
  std::vector<double> window_ms_[2];  // [traced]
};

/// Runs the workload named in `options`; returns the process exit code
/// (0 when `report` holds a result).
int RunWorkload(const RunOptions& options, Report* report, Trace* trace);

}  // namespace perfbench
