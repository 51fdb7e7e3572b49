#include "spans.hpp"

#include <chrono>
#include <cstdio>
#include <fstream>

#include "util/json_writer.hpp"

namespace nscc::benchmark {

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Sized for the largest probe set (about 12k spans per workload at full
// size) so no span ever reallocates the log mid-measurement.
SpanLog::SpanLog() { spans_.reserve(1 << 16); }

int SpanLog::begin(const char* name, int parent, int run) {
  spans_.push_back(Span{name, now_ns(), -1, parent, run});
  return static_cast<int>(spans_.size()) - 1;
}

std::int64_t SpanLog::end(int id) {
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end = now_ns();
  return s.end - s.start;
}

bool SpanLog::write_chrome(const std::string& path, int pid,
                           const std::string& process_name) const {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  // Timestamps stay on the absolute steady clock, which every process on
  // the host shares, so per-workload traces merge onto one timeline.
  std::string line;
  util::jsonw::append_escaped(line, process_name);
  out << "{\"traceEvents\": [\n{\"name\": \"process_name\", \"ph\": \"M\", "
         "\"pid\": "
      << pid << ", \"tid\": 0, \"args\": {\"name\": " << line << "}}";
  char buf[320];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end < 0) continue;
    std::snprintf(buf, sizeof buf,
                  ",\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": %d, "
                  "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                  "{\"span\": %zu, \"parent\": %d, \"run\": %d}}",
                  s.name, pid, s.run, static_cast<double>(s.start) / 1e3,
                  static_cast<double>(s.end - s.start) / 1e3, i, s.parent,
                  s.run);
    out << buf;
  }
  out << "\n]}\n";
  out.flush();
  if (!out) {
    std::fprintf(stderr, "write to %s failed\n", path.c_str());
    return false;
  }
  return true;
}

}  // namespace nscc::benchmark
