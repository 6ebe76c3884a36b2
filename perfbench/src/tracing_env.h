// An IoEnv decorator that counts and times every byte the MapReduce
// runtime reads or writes, split by file class.
//
// Files are classified by the names the runtime gives them:
//   spill  <prefix>-NNNNNN.run        (sort-buffer spills)
//   merge  <prefix>-merge-NNNNNN.run  (bounded-fan-in merge outputs)
//   clone  fetch-<task>-a<n>-<i>.run  (fetched map outputs)
// A writer's "<path>.tmp" staging file counts as <path>. Anything else is
// "unclassified", so a file the runtime renames, or a new kind of file it
// starts writing through the env, shows up there instead of vanishing from
// the per-class numbers.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "mapreduce/io_env.h"

namespace perfbench {

enum FileClass { kSpill = 0, kMerge, kClone, kUnclassified, kNumFileClasses };

const char* FileClassName(FileClass c);

struct ClassIo {
  uint64_t write_bytes = 0;
  uint64_t write_ns = 0;
  uint64_t read_bytes = 0;
  uint64_t read_ns = 0;
  uint64_t files = 0;  // Files opened (for reading or writing).
};

struct IoSnapshot {
  std::array<ClassIo, kNumFileClasses> classes{};
  uint64_t syncs = 0;

  /// this - earlier, member-wise.
  IoSnapshot Minus(const IoSnapshot& earlier) const;
};

class TracingEnv final : public ngram::mr::IoEnv {
 public:
  /// `base` must outlive this env.
  explicit TracingEnv(ngram::mr::IoEnv* base) : base_(base) {}
  TracingEnv(const TracingEnv&) = delete;
  TracingEnv& operator=(const TracingEnv&) = delete;

  ngram::Status NewReadableFile(
      const std::string& path, size_t buffer_hint,
      std::unique_ptr<ngram::mr::ReadableFile>* file) override;
  ngram::Status NewWritableFile(
      const std::string& path,
      std::unique_ptr<ngram::mr::WritableFile>* file) override;
  ngram::Status Rename(const std::string& from,
                       const std::string& to) override;
  ngram::Status Unlink(const std::string& path) override;
  ngram::Status FileSize(const std::string& path, uint64_t* size) override;

  IoSnapshot Snapshot() const;

  // One file class's totals, updated by the file wrappers.
  struct Counters {
    std::atomic<uint64_t> write_bytes{0};
    std::atomic<uint64_t> write_ns{0};
    std::atomic<uint64_t> read_bytes{0};
    std::atomic<uint64_t> read_ns{0};
    std::atomic<uint64_t> files{0};
  };
  void CountSync() { syncs_.fetch_add(1, std::memory_order_relaxed); }

 private:
  /// Counts an opened file in its class and returns that class's counters.
  Counters* Opened(const std::string& path);

  ngram::mr::IoEnv* const base_;
  std::array<Counters, kNumFileClasses> classes_;
  std::atomic<uint64_t> syncs_{0};
};

}  // namespace perfbench
