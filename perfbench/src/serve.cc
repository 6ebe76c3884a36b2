// The serve phase: closed-loop clients over a StatsService, latency timed
// around each call, answers checked against the in-memory reference.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <thread>

#include "lm/language_model.h"
#include "workload.h"

namespace perfbench {

using ngram::TermSequence;
using ngram::serve::Completion;

namespace {

constexpr size_t kTopK = 10;
constexpr size_t kSentences = 4096;
/// Every n-th top-k answer of a client is kept and checked.
constexpr uint64_t kTopKCheckEvery = 8;
/// Per-query spans kept per client and traced window.
constexpr size_t kMaxQuerySpans = 1000;

bool SortByCountThenTerm(const Completion& a, const Completion& b) {
  return a.count != b.count ? a.count > b.count : a.term < b.term;
}

bool Close(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(std::fabs(a), std::fabs(b));
}

void Append(std::vector<double>* to, const std::vector<double>& from) {
  to->insert(to->end(), from.begin(), from.end());
}

}  // namespace

ServePhase::ServePhase(const Setup* setup, Report* report, Trace* trace,
                       uint64_t seed)
    : setup_(setup), report_(report), trace_(trace) {
  for (uint32_t c = 0; c < kClients; ++c) {
    client_rngs_.emplace_back(seed * 1000003 + 17 + c);
    trace_->NameThread(static_cast<int>(c) + 1,
                       "client " + std::to_string(c));
  }
  // Query inputs: Zipf ranks over the stored n-grams and a seeded sample
  // of corpus sentences.
  ranked_.reserve(setup_->reference->entries.size());
  for (const auto& entry : setup_->reference->entries) {
    ranked_.push_back(&entry);
  }
  std::sort(ranked_.begin(), ranked_.end(), [](const auto* a, const auto* b) {
    return a->second != b->second ? a->second > b->second
                                  : a->first < b->first;
  });
  if (!ranked_.empty()) {
    sampler_ = std::make_unique<ngram::ZipfSampler>(ranked_.size(), 1.0);
  }
  std::vector<const TermSequence*> all;
  for (const ngram::Document& doc : setup_->corpus.docs) {
    for (const TermSequence& sentence : doc.sentences) {
      if (!sentence.empty()) {
        all.push_back(&sentence);
      }
    }
  }
  ngram::Rng rng(seed ^ 0x5e47e4ceULL);
  for (size_t i = 0; i < kSentences && !all.empty(); ++i) {
    sentences_.push_back(*all[rng.Uniform(all.size())]);
  }

  // Expected answers: the top-k of the empty prefix (a scan of every
  // unigram) and each sentence's perplexity under a stupid-backoff model
  // over the in-memory table.
  const ngram::NgramStatistics& ref = *setup_->reference;
  uint64_t unigrams = 0;
  for (const auto& [seq, count] : ref.entries) {
    if (seq.size() == 1) {
      expected_empty_topk_.push_back(Completion{seq[0], count});
      unigrams += count;
    }
  }
  std::sort(expected_empty_topk_.begin(), expected_empty_topk_.end(),
            SortByCountThenTerm);
  if (expected_empty_topk_.size() > kTopK) {
    expected_empty_topk_.resize(kTopK);
  }
  ngram::lm::LanguageModelOptions lm_options;
  lm_options.order = std::min(lm_options.order, std::max(1u, ref.MaxLength()));
  auto model = ngram::lm::StupidBackoffModel::BuildFromSource(
      std::make_shared<ngram::lm::StatisticsSource>(setup_->reference),
      lm_options, unigrams);
  for (const TermSequence& sentence : sentences_) {
    double expected = NAN;
    if (model.ok()) {
      ngram::Corpus one;
      one.docs.emplace_back();
      one.docs.back().sentences.push_back(sentence);
      expected = model->Perplexity(one);
    }
    expected_ppl_.push_back(expected);
  }
}

bool ServePhase::Open() {
  ngram::serve::ServingOptions options;
  if (setup_->config->cache_bytes > 0) {
    options.cache_bytes = setup_->config->cache_bytes;
  }
  auto service = ngram::serve::StatsService::Open(setup_->store_dir, options);
  if (!service.ok()) {
    fprintf(stderr, "perfbench: StatsService::Open: %s\n",
            service.status().ToString().c_str());
    return false;
  }
  service_ = std::move(*service);
  uint64_t store_bytes = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(setup_->store_dir, ec)) {
    store_bytes += entry.file_size(ec);
  }
  if (ranked_.empty() || sentences_.empty()) {
    fprintf(stderr, "perfbench: no n-grams or sentences to query\n");
    return false;
  }
  store_bytes_per_ngram_ = static_cast<double>(store_bytes) / ranked_.size();
  return true;
}

std::vector<Completion> ServePhase::ExpectedTopK(
    const TermSequence& prefix) const {
  if (prefix.empty()) {
    return expected_empty_topk_;
  }
  const auto& entries = setup_->reference->entries;
  auto it = std::lower_bound(
      entries.begin(), entries.end(), prefix,
      [](const auto& entry, const TermSequence& p) { return entry.first < p; });
  std::vector<Completion> out;
  for (; it != entries.end() && it->first.size() >= prefix.size() &&
         std::equal(prefix.begin(), prefix.end(), it->first.begin());
       ++it) {
    if (it->first.size() == prefix.size() + 1) {
      out.push_back(Completion{it->first.back(), it->second});
    }
  }
  std::sort(out.begin(), out.end(), SortByCountThenTerm);
  if (out.size() > kTopK) {
    out.resize(kTopK);
  }
  return out;
}

void ServePhase::RunClient(uint32_t client, uint64_t queries, bool traced,
                           uint64_t window_span, ClientResult* r) {
  using Clock = std::chrono::steady_clock;
  ngram::Rng& rng = client_rngs_[client];
  const ngram::serve::StatsService& svc = *service_;
  uint64_t topk_seen = 0;
  for (uint64_t q = 0; q < queries; ++q) {
    const auto& [key, count] = *ranked_[sampler_->Sample(&rng) - 1];
    const double mix = rng.NextDouble();
    const char* name = nullptr;
    bool ok = false;
    const int64_t start_us = traced ? trace_->NowUs() : 0;
    Clock::time_point begin;
    Clock::time_point end;
    if (mix < 0.80) {
      name = "Count";
      begin = Clock::now();
      auto answer = svc.Count(key);
      end = Clock::now();
      ok = answer.ok() && *answer == count;
      r->count_us.push_back(
          std::chrono::duration<double, std::micro>(end - begin).count());
    } else if (mix < 0.95) {
      const TermSequence prefix(key.begin(), key.end() - 1);
      name = prefix.empty() ? "TopK(empty)" : "TopK";
      begin = Clock::now();
      auto answer = svc.TopKCompletions(prefix, kTopK);
      end = Clock::now();
      ok = answer.ok();
      const double us =
          std::chrono::duration<double, std::micro>(end - begin).count();
      r->topk_us.push_back(us);
      (prefix.empty() ? r->topk_empty_us : r->topk_nonempty_us).push_back(us);
      if (ok && ++topk_seen % kTopKCheckEvery == 0) {
        r->topk_samples.emplace_back(prefix, std::move(*answer));
      }
    } else {
      const size_t i = rng.Uniform(sentences_.size());
      name = "Perplexity";
      begin = Clock::now();
      auto answer = svc.SentencePerplexity(sentences_[i]);
      end = Clock::now();
      ok = answer.ok() && Close(*answer, expected_ppl_[i]);
      r->ppl_us.push_back(
          std::chrono::duration<double, std::micro>(end - begin).count());
      r->ppl_terms += sentences_[i].size();
    }
    ++r->attempted;
    r->failed += ok ? 0 : 1;
    if (traced && r->spans.size() < kMaxQuerySpans) {
      const int64_t dur_us =
          std::chrono::duration_cast<std::chrono::microseconds>(end - begin)
              .count();
      r->spans.push_back(Span{name, "query", start_us, dur_us,
                              static_cast<int>(client) + 1, 0, window_span,
                              "\"client\": " + std::to_string(client) +
                                  ", \"ok\": " + (ok ? "true" : "false")});
    }
  }
}

double ServePhase::RunWindow(uint64_t queries, bool timed, bool traced) {
  const uint64_t window_span = trace_->enabled() ? trace_->NextId() : 0;
  const ngram::kv::BlockCacheStats cache_before = service_->CacheStats();
  const int64_t start_us = trace_->NowUs();
  std::vector<ClientResult> results(kClients);
  const auto begin = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> clients;
    for (uint32_t c = 0; c < kClients; ++c) {
      clients.emplace_back([this, c, queries, traced, window_span, &results] {
        RunClient(c, queries, traced, window_span, &results[c]);
      });
    }
    for (std::thread& t : clients) {
      t.join();
    }
  }
  const double window_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - begin)
                               .count();
  const ngram::kv::BlockCacheStats cache_after = service_->CacheStats();

  for (ClientResult& r : results) {
    for (const auto& [prefix, answer] : r.topk_samples) {
      r.failed += answer == ExpectedTopK(prefix) ? 0 : 1;
    }
    report_->Tally(r.attempted, r.failed,
                   "serving queries failed or answered wrongly");
    for (Span& span : r.spans) {
      span.id = trace_->NextId();
    }
    trace_->AddAll(&r.spans);
    if (!timed) {
      continue;
    }
    const uint64_t n = r.count_us.size() + r.topk_us.size() + r.ppl_us.size();
    if (traced) {
      Append(&topk_empty_us_, r.topk_empty_us);
      Append(&topk_nonempty_us_, r.topk_nonempty_us);
      for (double us : r.ppl_us) {
        traced_ppl_us_ += us;
      }
      traced_ppl_terms_ += r.ppl_terms;
      traced_queries_ += n;
    } else {
      Append(&count_us_, r.count_us);
      Append(&topk_us_, r.topk_us);
      Append(&ppl_us_, r.ppl_us);
      timed_queries_ += n;
    }
  }
  if (timed) {
    window_ms_[traced].push_back(window_ms);
    if (traced) {
      traced_cache_hits_ += cache_after.hits - cache_before.hits;
      traced_cache_misses_ += cache_after.misses - cache_before.misses;
    } else {
      timed_wall_ms_ += window_ms;
    }
  }
  if (trace_->enabled() && (traced || !timed)) {
    trace_->Add(Span{timed ? "serve window" : "warm-up window", "window",
                     start_us, static_cast<int64_t>(window_ms * 1e3), 0,
                     window_span, 0,
                     "\"queries_per_client\": " + std::to_string(queries) +
                         ", \"cache_hits\": " +
                         std::to_string(cache_after.hits - cache_before.hits) +
                         ", \"cache_misses\": " +
                         std::to_string(cache_after.misses -
                                        cache_before.misses)});
  }
  return window_ms;
}

uint64_t ServePhase::OwnedBytes() const {
  uint64_t bytes = ranked_.capacity() * sizeof(ranked_[0]) +
                   expected_ppl_.capacity() * sizeof(double) +
                   expected_empty_topk_.capacity() * sizeof(Completion) +
                   sentences_.capacity() * sizeof(TermSequence);
  for (const TermSequence& sentence : sentences_) {
    bytes += sentence.capacity() * sizeof(ngram::TermId);
  }
  return bytes;
}

double ServePhase::MedianWindowMs(bool traced) const {
  return Median(window_ms_[traced]);
}

void ServePhase::ReportEndToEnd(Report* report) const {
  report->EndToEnd("serve_qps", "1/s",
                   timed_wall_ms_ > 0 ? timed_queries_ / (timed_wall_ms_ / 1e3)
                                      : 0,
                   std::to_string(kClients) + " closed-loop clients");
  const struct {
    const char* name;
    const std::vector<double>* us;
  } types[] = {{"count", &count_us_}, {"topk", &topk_us_}, {"ppl", &ppl_us_}};
  for (const auto& type : types) {
    const std::string samples = std::to_string(type.us->size()) + " samples";
    report->EndToEnd(std::string(type.name) + "_p50_us", "us",
                     Quantile(*type.us, 0.50), samples);
    report->EndToEnd(std::string(type.name) + "_p99_us", "us",
                     Quantile(*type.us, 0.99), samples);
  }
}

void ServePhase::ReportLayers(Report* report) const {
  const uint64_t lookups = traced_cache_hits_ + traced_cache_misses_;
  report->Layer("cache_hit_ratio", "ratio",
                lookups == 0 ? 0
                             : static_cast<double>(traced_cache_hits_) /
                                   static_cast<double>(lookups));
  report->Layer("cache_misses_per_query", "count",
                traced_queries_ == 0
                    ? 0
                    : static_cast<double>(traced_cache_misses_) /
                          static_cast<double>(traced_queries_));
  report->Layer("store_bytes_per_ngram", "bytes", store_bytes_per_ngram_);
  const size_t topk = topk_empty_us_.size() + topk_nonempty_us_.size();
  report->Layer("topk_empty_share", "ratio",
                topk == 0 ? 0
                          : static_cast<double>(topk_empty_us_.size()) /
                                static_cast<double>(topk));
  report->Layer("topk_empty_p50_us", "us", Quantile(topk_empty_us_, 0.5));
  report->Layer("topk_nonempty_p50_us", "us",
                Quantile(topk_nonempty_us_, 0.5));
  report->Layer("ppl_us_per_term", "us",
                traced_ppl_terms_ == 0 ? 0
                                       : traced_ppl_us_ / traced_ppl_terms_);
}

}  // namespace perfbench
