#include "trace.h"

#include <cstdio>
#include <memory>

#include "report.h"

namespace perfbench {

uint64_t Trace::NextId() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void Trace::NameThread(int thread, const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  thread_names_.emplace_back(thread, name);
}

void Trace::Add(Span span) {
  if (!enabled_) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

void Trace::AddAll(std::vector<Span>* spans) {
  if (enabled_) {
    std::lock_guard<std::mutex> lock(mu_);
    for (Span& span : *spans) {
      spans_.push_back(std::move(span));
    }
  }
  spans->clear();
}

size_t Trace::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool Trace::Write(const std::string& path,
                  const std::string& metadata_json) const {
  std::unique_ptr<FILE, int (*)(FILE*)> out(fopen(path.c_str(), "w"),
                                            &fclose);
  if (out == nullptr) {
    return false;
  }
  std::lock_guard<std::mutex> lock(mu_);
  fprintf(out.get(), "{\"displayTimeUnit\": \"ms\", \"metadata\": %s,\n",
          metadata_json.c_str());
  fprintf(out.get(), "\"traceEvents\": [\n");
  const char* separator = "";
  for (const auto& [thread, name] : thread_names_) {
    fprintf(out.get(),
            "%s{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
            "\"tid\": %d, \"args\": {\"name\": \"%s\"}}",
            separator, thread, JsonEscape(name).c_str());
    separator = ",\n";
  }
  for (const Span& s : spans_) {
    fprintf(out.get(),
            ",\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
            "\"pid\": 1, \"tid\": %d, \"ts\": %lld, \"dur\": %lld, "
            "\"args\": {\"id\": %llu, \"parent\": %llu%s%s}}",
            JsonEscape(s.name).c_str(), JsonEscape(s.category).c_str(),
            s.thread, static_cast<long long>(s.start_us),
            static_cast<long long>(s.duration_us),
            static_cast<unsigned long long>(s.id),
            static_cast<unsigned long long>(s.parent),
            s.args.empty() ? "" : ", ", s.args.c_str());
  }
  fprintf(out.get(), "\n]}\n");
  return fflush(out.get()) == 0 && ferror(out.get()) == 0;
}

}  // namespace perfbench
