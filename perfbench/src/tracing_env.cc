#include "tracing_env.h"

#include <chrono>

namespace perfbench {

using ngram::Status;

namespace {

constexpr char kTmpSuffix[] = ".tmp";

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// `path` without a writer's staging suffix.
std::string CommittedName(const std::string& path) {
  return EndsWith(path, kTmpSuffix)
             ? path.substr(0, path.size() - (sizeof(kTmpSuffix) - 1))
             : path;
}

/// Class of `path` by its name; kUnclassified when the name says nothing.
FileClass ClassifyByName(const std::string& path) {
  const std::string name = CommittedName(path);
  const size_t slash = name.find_last_of('/');
  const std::string base =
      slash == std::string::npos ? name : name.substr(slash + 1);
  if (!EndsWith(base, ".run")) {
    return kUnclassified;
  }
  if (base.rfind("fetch-", 0) == 0) {
    return kClone;
  }
  if (base.find("-merge-") != std::string::npos) {
    return kMerge;
  }
  // <prefix>-NNNNNN.run
  const size_t digits = 6;
  const size_t stem = base.size() - 4;
  if (stem > digits && base[stem - digits - 1] == '-') {
    for (size_t i = stem - digits; i < stem; ++i) {
      if (base[i] < '0' || base[i] > '9') {
        return kUnclassified;
      }
    }
    return kSpill;
  }
  return kUnclassified;
}

class TracingReadableFile final : public ngram::mr::ReadableFile {
 public:
  TracingReadableFile(TracingEnv::Counters* counters,
                      std::unique_ptr<ngram::mr::ReadableFile> base)
      : counters_(counters), base_(std::move(base)) {}

  Status Read(char* dst, size_t n, size_t* read) override {
    const uint64_t start = NowNs();
    Status st = base_->Read(dst, n, read);
    counters_->read_ns.fetch_add(NowNs() - start, std::memory_order_relaxed);
    if (st.ok()) {
      counters_->read_bytes.fetch_add(*read, std::memory_order_relaxed);
    }
    return st;
  }

  Status Seek(uint64_t offset) override { return base_->Seek(offset); }

 private:
  TracingEnv::Counters* const counters_;
  std::unique_ptr<ngram::mr::ReadableFile> base_;
};

class TracingWritableFile final : public ngram::mr::WritableFile {
 public:
  TracingWritableFile(TracingEnv* env, TracingEnv::Counters* counters,
                      std::unique_ptr<ngram::mr::WritableFile> base)
      : env_(env), counters_(counters), base_(std::move(base)) {}

  Status Write(const char* data, size_t n) override {
    const uint64_t start = NowNs();
    Status st = base_->Write(data, n);
    counters_->write_ns.fetch_add(NowNs() - start,
                                  std::memory_order_relaxed);
    if (st.ok()) {
      counters_->write_bytes.fetch_add(n, std::memory_order_relaxed);
    }
    return st;
  }

  Status Sync() override {
    env_->CountSync();
    return base_->Sync();
  }

  Status Close() override { return base_->Close(); }

 private:
  TracingEnv* const env_;
  TracingEnv::Counters* const counters_;
  std::unique_ptr<ngram::mr::WritableFile> base_;
};

}  // namespace

const char* FileClassName(FileClass c) {
  switch (c) {
    case kSpill:
      return "spill";
    case kMerge:
      return "merge";
    case kClone:
      return "clone";
    default:
      return "unclassified";
  }
}

IoSnapshot IoSnapshot::Minus(const IoSnapshot& earlier) const {
  IoSnapshot d;
  for (int c = 0; c < kNumFileClasses; ++c) {
    const ClassIo& a = classes[c];
    const ClassIo& b = earlier.classes[c];
    d.classes[c] = ClassIo{a.write_bytes - b.write_bytes,
                           a.write_ns - b.write_ns,
                           a.read_bytes - b.read_bytes, a.read_ns - b.read_ns,
                           a.files - b.files};
  }
  d.syncs = syncs - earlier.syncs;
  return d;
}

TracingEnv::Counters* TracingEnv::Opened(const std::string& path) {
  Counters* c = &classes_[ClassifyByName(path)];
  c->files.fetch_add(1, std::memory_order_relaxed);
  return c;
}

Status TracingEnv::NewReadableFile(
    const std::string& path, size_t buffer_hint,
    std::unique_ptr<ngram::mr::ReadableFile>* file) {
  std::unique_ptr<ngram::mr::ReadableFile> base;
  Status st = base_->NewReadableFile(path, buffer_hint, &base);
  if (!st.ok()) {
    return st;
  }
  *file = std::make_unique<TracingReadableFile>(Opened(path), std::move(base));
  return Status::OK();
}

Status TracingEnv::NewWritableFile(
    const std::string& path, std::unique_ptr<ngram::mr::WritableFile>* file) {
  std::unique_ptr<ngram::mr::WritableFile> base;
  Status st = base_->NewWritableFile(path, &base);
  if (!st.ok()) {
    return st;
  }
  *file = std::make_unique<TracingWritableFile>(this, Opened(path),
                                                std::move(base));
  return Status::OK();
}

Status TracingEnv::Rename(const std::string& from, const std::string& to) {
  return base_->Rename(from, to);
}

Status TracingEnv::Unlink(const std::string& path) {
  return base_->Unlink(path);
}

Status TracingEnv::FileSize(const std::string& path, uint64_t* size) {
  return base_->FileSize(path, size);
}

IoSnapshot TracingEnv::Snapshot() const {
  IoSnapshot s;
  for (int c = 0; c < kNumFileClasses; ++c) {
    const Counters& k = classes_[c];
    s.classes[c] = ClassIo{k.write_bytes.load(), k.write_ns.load(),
                           k.read_bytes.load(), k.read_ns.load(),
                           k.files.load()};
  }
  s.syncs = syncs_.load();
  return s;
}

}  // namespace perfbench
