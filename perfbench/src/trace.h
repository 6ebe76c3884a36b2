// In-memory span recorder written out as Chrome trace-event JSON
// (chrome://tracing, https://ui.perfetto.dev).
//
// Spans are recorded by the benchmark around each call it makes into a
// library layer; nothing inside the library is instrumented. A disabled
// recorder drops every span, so untraced runs pay one branch per call.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::string category;
  int64_t start_us = 0;
  int64_t duration_us = 0;
  /// Chrome "tid": 0 = the main thread, 1.. = client threads.
  int thread = 0;
  /// Identifier shared by the spans of one request, and the id of the
  /// span that caused this one (0 = none).
  uint64_t id = 0;
  uint64_t parent = 0;
  /// Extra "args" members, already JSON-encoded without braces, e.g.
  /// "\"bytes\": 12".
  std::string args;
};

class Trace {
 public:
  explicit Trace(bool enabled)
      : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

  bool enabled() const { return enabled_; }

  /// Microseconds since the recorder was created.
  int64_t NowUs() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  /// A fresh span identifier.
  uint64_t NextId();

  /// Names a Chrome trace thread row (thread 0 is "main").
  void NameThread(int thread, const std::string& name);

  void Add(Span span);
  void AddAll(std::vector<Span>* spans);

  size_t size() const;

  /// Writes every span plus `metadata_json` (an object, stored under
  /// "metadata") to `path`. Returns false on I/O failure.
  bool Write(const std::string& path, const std::string& metadata_json) const;

 private:
  const bool enabled_;
  const std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // Guarded by mu_.
  // Guarded by mu_.
  std::vector<std::pair<int, std::string>> thread_names_{{0, "main"}};
  uint64_t next_id_ = 1;     // Guarded by mu_.
};

}  // namespace perfbench
