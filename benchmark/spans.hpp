// In-memory span log for the benchmark's own host-time measurements.
//
// Every Workload::run call and every probe call is one span: name, start,
// end, parent span and run id, all on the host's steady clock.  The probe
// percentiles are computed from these same spans, so the exported Chrome
// trace shows exactly the samples behind each reported number.  Spans live
// in a pre-reserved vector: recording one never allocates, which keeps the
// probes' allocation counts clean.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace nscc::benchmark {

/// Host steady-clock time in nanoseconds.
[[nodiscard]] std::int64_t now_ns() noexcept;

class SpanLog {
 public:
  static constexpr int kRoot = -1;

  SpanLog();

  /// Open a span and return its id.  `name` must outlive the log (string
  /// literals); `parent` is a span id or kRoot.
  int begin(const char* name, int parent, int run);
  /// Close span `id` and return its duration in nanoseconds.
  std::int64_t end(int id);

  /// Write every closed span as Chrome trace-event JSON: one "X" event per
  /// line on process `pid`, track = run id, args = span id, parent and run.
  /// Returns false on an IO error.
  [[nodiscard]] bool write_chrome(const std::string& path, int pid,
                                  const std::string& process_name) const;

 private:
  struct Span {
    const char* name;
    std::int64_t start;
    std::int64_t end;
    int parent;
    int run;
  };
  std::vector<Span> spans_;
};

}  // namespace nscc::benchmark
