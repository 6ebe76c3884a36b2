// The batch phase: ComputeNgramStatistics with each method, timed from
// outside, checked against the reference, and broken into layers from the
// returned JobMetrics.
#include <sys/resource.h>

#include <algorithm>
#include <filesystem>

#include "core/apriori_scan.h"
#include "core/runner.h"
#include "mapreduce/counters.h"
#include "util/stopwatch.h"
#include "workload.h"

namespace perfbench {

using ngram::Method;
namespace mr = ngram::mr;

namespace {

constexpr double kMB = 1e6;
/// Chrome trace thread of the first file class's I/O spans: each class gets
/// its own row, since they all span their method run.
constexpr int kIoThread = 10;

double CpuMs() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

uint64_t CountFiles(const std::string& dir) {
  uint64_t n = 0;
  std::error_code ec;
  for (std::filesystem::recursive_directory_iterator it(dir, ec), end;
       !ec && it != end; it.increment(ec)) {
    if (it->is_regular_file(ec)) {
      ++n;
    }
  }
  return n;
}

uint64_t MaxCounter(const mr::RunMetrics& m, const char* name) {
  uint64_t best = 0;
  for (const mr::JobMetrics& job : m.jobs) {
    best = std::max(best, job.Counter(name));
  }
  return best;
}

/// Max-over-mean reduce input of the job that reduced the most records.
double ReduceSkew(const mr::RunMetrics& m, uint32_t reducers) {
  const mr::JobMetrics* biggest = nullptr;
  for (const mr::JobMetrics& job : m.jobs) {
    if (biggest == nullptr || job.Counter(mr::kReduceInputRecords) >
                                  biggest->Counter(mr::kReduceInputRecords)) {
      biggest = &job;
    }
  }
  if (biggest == nullptr || biggest->Counter(mr::kReduceInputRecords) == 0) {
    return 0;
  }
  return static_cast<double>(
             biggest->Counter(mr::kReduceInputRecordsMax)) *
         reducers /
         static_cast<double>(biggest->Counter(mr::kReduceInputRecords));
}

double Ratio(uint64_t num, uint64_t den, double if_empty) {
  return den == 0 ? if_empty
                  : static_cast<double>(num) / static_cast<double>(den);
}

/// Median over `samples` of `fn(sample)`.
template <typename T, typename Fn>
double MedianOf(const std::vector<T>& samples, Fn fn) {
  std::vector<double> values;
  values.reserve(samples.size());
  for (const T& s : samples) {
    values.push_back(fn(s));
  }
  return Median(std::move(values));
}

std::string Args(const IoSnapshot& io, FileClass c) {
  const ClassIo& x = io.classes[c];
  char buf[160];
  snprintf(buf, sizeof(buf),
           "\"write_mb\": %.6f, \"write_ms\": %.3f, \"read_mb\": %.6f, "
           "\"read_ms\": %.3f, \"files\": %llu",
           x.write_bytes / kMB, x.write_ns / 1e6, x.read_bytes / kMB,
           x.read_ns / 1e6, static_cast<unsigned long long>(x.files));
  return buf;
}

}  // namespace

ngram::NgramJobOptions JobOptions(const Setup& setup, Method method,
                                  mr::IoEnv* io_env) {
  const WorkloadConfig& cfg = *setup.config;
  ngram::NgramJobOptions o;
  o.method = method;
  o.tau = cfg.tau;
  o.sigma = kSigma;
  o.num_reducers = kReducers;
  o.map_slots = Slots();
  o.reduce_slots = Slots();
  o.work_dir = setup.work_dir;
  o.io_env = io_env;
  if (cfg.spill_knobs) {
    o.sort_buffer_bytes = 512 << 10;
    o.merge_factor = 16;
    o.fetch_shuffle = true;
    o.reducer_memory_budget_bytes = 32 << 10;
  }
  return o;
}

BatchPhase::BatchPhase(const Setup* setup, Report* report, Trace* trace)
    : setup_(setup),
      report_(report),
      trace_(trace),
      env_(mr::IoEnv::Default()) {
  const std::pair<Method, const char*> methods[] = {
      {Method::kNaive, "naive"},
      {Method::kAprioriScan, "apriori_scan"},
      {Method::kAprioriIndex, "apriori_index"},
      {Method::kSuffixSigma, "suffix_sigma"}};
  for (const auto& [method, key] : methods) {
    MethodState state;
    state.method = method;
    state.key = key;
    methods_.push_back(std::move(state));
  }
  for (int c = 0; c < kNumFileClasses; ++c) {
    trace_->NameThread(kIoThread + c,
                       std::string("io:") +
                           FileClassName(static_cast<FileClass>(c)));
  }
}

double BatchPhase::RunMethod(MethodState* state, bool timed, bool traced,
                             uint64_t cycle_span) {
  const ngram::NgramJobOptions options =
      JobOptions(*setup_, state->method, traced ? &env_ : nullptr);
  const IoSnapshot io_before = env_.Snapshot();
  const double cpu_before = CpuMs();
  const int64_t start_us = trace_->NowUs();
  ngram::Stopwatch clock;
  auto run = ngram::ComputeNgramStatistics(setup_->ctx, options);
  const double wall_ms = clock.ElapsedMillis();
  Sample sample;
  sample.wall_ms = wall_ms;
  sample.cpu_ms = CpuMs() - cpu_before;
  sample.io = env_.Snapshot().Minus(io_before);

  const std::string what =
      std::string(ngram::MethodName(state->method)) + " run";
  if (!run.ok()) {
    report_->Check(false, what + ": " + run.status().ToString());
    return wall_ms;
  }
  // Data counters must not depend on tracing (or anything else).
  const uint64_t out_bytes = run->metrics.map_output_bytes();
  const uint64_t out_records = run->metrics.map_output_records();
  if (!timed) {
    state->output_bytes = out_bytes;
    state->output_records = out_records;
  }
  const bool same_counters = out_bytes == state->output_bytes &&
                             out_records == state->output_records;
  const bool same_table = run->stats.SameAs(*setup_->reference);
  report_->Check(same_table && same_counters,
                 what + (same_table ? " changed MAP_OUTPUT counters"
                                    : " differs from BruteForceCounts"));
  if (timed) {
    retries_ += run->metrics.TotalCounter(mr::kTaskRetries) +
                run->metrics.TotalCounter(mr::kFetchRetries) +
                run->metrics.TotalCounter(mr::kMapReexecutions);
  }
  if (state->method == Method::kSuffixSigma) {
    last_suffix_sigma_ = std::move(run->stats);
    last_suffix_sigma_ms_ = wall_ms;
  }

  if (trace_->enabled() && (traced || !timed)) {
    const uint64_t method_id = trace_->NextId();
    const int64_t dur_us = static_cast<int64_t>(wall_ms * 1e3);
    trace_->Add(Span{ngram::MethodName(state->method), "method", start_us,
                     dur_us, 0, method_id, cycle_span,
                     "\"jobs\": " + std::to_string(run->metrics.num_jobs()) +
                         ", \"cpu_ms\": " + std::to_string(sample.cpu_ms)});
    // Job, map and reduce spans are laid out from the JobMetrics
    // durations: jobs run one after another, so each starts where the
    // previous one ended (boundary work between jobs is not placed).
    int64_t job_start = start_us;
    for (const mr::JobMetrics& job : run->metrics.jobs) {
      const uint64_t job_id = trace_->NextId();
      const int64_t job_us = static_cast<int64_t>(job.wallclock_ms * 1e3);
      const int64_t map_us = static_cast<int64_t>(job.map_phase_ms * 1e3);
      const int64_t reduce_us =
          static_cast<int64_t>(job.reduce_phase_ms * 1e3);
      trace_->Add(Span{job.job_name, "job", job_start, job_us, 0, job_id,
                       method_id,
                       "\"map_output_bytes\": " +
                           std::to_string(job.Counter(mr::kMapOutputBytes)) +
                           ", \"spill_files\": " +
                           std::to_string(job.Counter(mr::kSpillFiles))});
      trace_->Add(Span{"map", "phase", job_start, map_us, 0,
                       trace_->NextId(), job_id, ""});
      trace_->Add(Span{"reduce", "phase", job_start + job_us - reduce_us,
                       reduce_us, 0, trace_->NextId(), job_id, ""});
      job_start += job_us;
    }
    for (int c = 0; c < kNumFileClasses; ++c) {
      const ClassIo& x = sample.io.classes[c];
      if (x.files + x.read_bytes + x.write_bytes > 0) {
        trace_->Add(Span{std::string("io:") +
                             FileClassName(static_cast<FileClass>(c)),
                         "io", start_us, dur_us, kIoThread + c,
                         trace_->NextId(), method_id,
                         Args(sample.io, static_cast<FileClass>(c))});
      }
    }
  }
  if (timed) {
    sample.metrics = std::move(run->metrics);
    (traced ? state->traced : state->timed).push_back(std::move(sample));
  }
  return wall_ms;
}

double BatchPhase::RunCycle(bool timed, bool traced) {
  const uint64_t cycle_span = trace_->enabled() ? trace_->NextId() : 0;
  const int64_t start_us = trace_->NowUs();
  const IoSnapshot io_before = env_.Snapshot();
  ngram::Stopwatch clock;
  std::string per_method;
  for (MethodState& state : methods_) {
    const double ms = RunMethod(&state, timed, traced, cycle_span);
    per_method += " " + state.key + "=" + std::to_string(static_cast<int>(ms));
  }
  const double cycle_ms = clock.ElapsedMillis();
  leaked_files_ = CountFiles(setup_->work_dir);
  fprintf(stderr,
          "perfbench: %s cycle %llu%s: %.1f ms (%s ), %llu file(s) left in "
          "work_dir\n",
          timed ? "batch" : "warm-up",
          static_cast<unsigned long long>(cycles_), traced ? " (traced)" : "",
          cycle_ms, per_method.c_str(),
          static_cast<unsigned long long>(leaked_files_));
  if (trace_->enabled() && (traced || !timed)) {
    trace_->Add(Span{timed ? "cycle" : "warm-up cycle", "cycle", start_us,
                     static_cast<int64_t>(cycle_ms * 1e3), 0, cycle_span, 0,
                     "\"cycle\": " + std::to_string(cycles_) +
                         ", \"workdir_files\": " +
                         std::to_string(leaked_files_)});
  }
  if (timed) {
    cycle_ms_[traced].push_back(cycle_ms);
    if (traced) {
      traced_cycle_io_.push_back(env_.Snapshot().Minus(io_before));
    }
  }
  ++cycles_;
  return cycle_ms;
}

double BatchPhase::MedianCycleMs(bool traced) const {
  return Median(cycle_ms_[traced]);
}

void BatchPhase::ReportEndToEnd(Report* report) const {
  double tokens_runs = 0;
  double wall_s = 0;
  for (const MethodState& state : methods_) {
    report->EndToEnd(state.key + "_ms", "ms",
                     MedianOf(state.timed,
                              [](const Sample& s) { return s.wall_ms; }),
                     "median of " + std::to_string(state.timed.size()));
    for (const Sample& s : state.timed) {
      tokens_runs += static_cast<double>(setup_->ctx.total_term_occurrences);
      wall_s += s.wall_ms / 1e3;
    }
  }
  report->EndToEnd("tokens_per_s", "1/s",
                   wall_s > 0 ? tokens_runs / wall_s : 0,
                   "corpus tokens x method runs / their wall time");
  uint64_t shuffle_bytes = 0;
  for (const MethodState& state : methods_) {
    shuffle_bytes += state.output_bytes;
  }
  report->EndToEnd("shuffle_mb", "MB", shuffle_bytes / kMB,
                   "MAP_OUTPUT_BYTES summed over one cycle");
}

void BatchPhase::ReportLayers(Report* report) const {
  for (const MethodState& state : methods_) {
    const std::vector<Sample>& t = state.traced;
    const std::string p = state.key + ".";
    auto total = [](const char* name) {
      return [name](const Sample& s) {
        return static_cast<double>(s.metrics.TotalCounter(name));
      };
    };
    auto total_mb = [](const char* name) {
      return [name](const Sample& s) {
        return static_cast<double>(s.metrics.TotalCounter(name)) / kMB;
      };
    };
    report->Layer(p + "jobs", "count", MedianOf(t, [](const Sample& s) {
                    return static_cast<double>(s.metrics.num_jobs());
                  }));
    report->Layer(p + "map_ms", "ms", MedianOf(t, [](const Sample& s) {
                    return s.metrics.total_map_phase_ms();
                  }));
    report->Layer(p + "reduce_ms", "ms", MedianOf(t, [](const Sample& s) {
                    return s.metrics.total_reduce_phase_ms();
                  }));
    report->Layer(p + "job_other_ms", "ms", MedianOf(t, [](const Sample& s) {
                    return s.metrics.total_wallclock_ms() -
                           s.metrics.total_map_phase_ms() -
                           s.metrics.total_reduce_phase_ms();
                  }));
    report->Layer(p + "boundary_ms", "ms", MedianOf(t, [](const Sample& s) {
                    return s.wall_ms - s.metrics.total_wallclock_ms();
                  }));
    report->Layer(p + "cpu_ms", "ms",
                  MedianOf(t, [](const Sample& s) { return s.cpu_ms; }));
    report->Layer(p + "shuffle_records", "count",
                  MedianOf(t, total(mr::kMapOutputRecords)));
    report->Layer(p + "combine_ratio", "ratio",
                  MedianOf(t, [](const Sample& s) {
                    return Ratio(
                        s.metrics.TotalCounter(mr::kCombineOutputRecords),
                        s.metrics.TotalCounter(mr::kCombineInputRecords), 1);
                  }));
    report->Layer(p + "boundary_mb", "MB",
                  MedianOf(t, total_mb(mr::kMapInputBytes)));
    report->Layer(p + "reduce_skew", "ratio",
                  MedianOf(t, [](const Sample& s) {
                    return ReduceSkew(s.metrics, kReducers);
                  }));
    report->Layer(p + "bookkeeping_peak", "count",
                  MedianOf(t, [](const Sample& s) {
                    return static_cast<double>(MaxCounter(
                        s.metrics, mr::kBookkeepingPeakEntries));
                  }));
    report->Layer(p + "spill_files", "count",
                  MedianOf(t, total(mr::kSpillFiles)));
    report->Layer(p + "merge_passes", "count",
                  MedianOf(t, total(mr::kMergePasses)));
    report->Layer(p + "merge_mb", "MB",
                  MedianOf(t, total_mb(mr::kIntermediateMergeBytes)));
    report->Layer(p + "run_mb_written", "MB",
                  MedianOf(t, total_mb(mr::kRunBytesWritten)));
    report->Layer(p + "run_compress_ratio", "ratio",
                  MedianOf(t, [](const Sample& s) {
                    return Ratio(s.metrics.TotalCounter(mr::kRunBytesRaw),
                                 s.metrics.TotalCounter(mr::kRunBytesWritten),
                                 0);
                  }));
    report->Layer(p + "fetch_mb", "MB",
                  MedianOf(t, total_mb(mr::kShuffleFetchBytes)));
    report->Layer(p + "fetch_wait_ms", "ms",
                  MedianOf(t, total(mr::kFetchWaitMs)));
    if (state.method == Method::kAprioriScan) {
      report->Layer("apriori_scan.dict_mem_bytes", "bytes",
                    MedianOf(t, [](const Sample& s) {
                      return static_cast<double>(
                          MaxCounter(s.metrics, ngram::kDictionaryBytes));
                    }));
    }
  }
  report->Layer("retries", "count", static_cast<double>(retries_),
                "TASK_RETRIES + FETCH_RETRIES + MAP_REEXECUTIONS");

  const std::vector<IoSnapshot>& io = traced_cycle_io_;
  for (int c = 0; c < kUnclassified; ++c) {
    const std::string p =
        std::string("io.") + FileClassName(static_cast<FileClass>(c)) + ".";
    report->Layer(p + "write_mb", "MB", MedianOf(io, [c](const IoSnapshot& s) {
                    return s.classes[c].write_bytes / kMB;
                  }));
    report->Layer(p + "write_ms", "ms", MedianOf(io, [c](const IoSnapshot& s) {
                    return s.classes[c].write_ns / 1e6;
                  }));
    report->Layer(p + "read_mb", "MB", MedianOf(io, [c](const IoSnapshot& s) {
                    return s.classes[c].read_bytes / kMB;
                  }));
    report->Layer(p + "read_ms", "ms", MedianOf(io, [c](const IoSnapshot& s) {
                    return s.classes[c].read_ns / 1e6;
                  }));
    report->Layer(p + "files", "count", MedianOf(io, [c](const IoSnapshot& s) {
                    return static_cast<double>(s.classes[c].files);
                  }));
  }
  report->Layer("io.syncs", "count", MedianOf(io, [](const IoSnapshot& s) {
                  return static_cast<double>(s.syncs);
                }));
  report->Layer("io.unclassified_mb", "MB",
                MedianOf(io, [](const IoSnapshot& s) {
                  const ClassIo& x = s.classes[kUnclassified];
                  return (x.read_bytes + x.write_bytes) / kMB;
                }));
  report->Layer("workdir_leaked_files", "count",
                static_cast<double>(leaked_files_),
                "files left in work_dir after the last cycle");
}

}  // namespace perfbench
