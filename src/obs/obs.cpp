#include "obs/obs.hpp"

#include <cstdio>

#include "util/flags.hpp"

namespace nscc::obs {

Hub::Hub(Options options)
    : options_(std::move(options)), tracer_(options_.trace_capacity) {
  active_ = options_.enable || !options_.trace_path.empty() ||
            !options_.metrics_path.empty() || options_.flow_trace ||
            options_.profile;
  tracer_.enable(options_.enable || !options_.trace_path.empty() ||
                 options_.flow_trace);
  tracer_.set_flows(options_.flow_trace);
}

namespace {

bool has_suffix(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

bool Hub::finalize() {
  bool ok = true;
  if (tracer_.dropped() > 0) {
    // Surface the truncation in both machine-readable (registry counter)
    // and human-readable (end-of-run stderr warning) form.
    registry_.counter("trace.dropped_events").inc(tracer_.dropped());
    std::fprintf(stderr,
                 "obs: trace ring dropped %llu event(s) (capacity %zu) — the "
                 "exported trace is truncated; raise Options::trace_capacity\n",
                 static_cast<unsigned long long>(tracer_.dropped()),
                 tracer_.capacity());
  }
  if (tracer_.track_collisions() > 0) {
    registry_.counter("trace.track_collisions").inc(tracer_.track_collisions());
    std::fprintf(stderr,
                 "obs: %llu trace track-id collision(s) — events from "
                 "distinct components share a thread track\n",
                 static_cast<unsigned long long>(tracer_.track_collisions()));
  }
  if (!options_.trace_path.empty()) {
    ok = tracer_.write_chrome_json(options_.trace_path) && ok;
  }
  if (!options_.metrics_path.empty()) {
    ok = (has_suffix(options_.metrics_path, ".json")
              ? sampler_.write_json(options_.metrics_path)
              : sampler_.write_csv(options_.metrics_path)) &&
         ok;
  }
  return ok;
}

void add_flags(util::Flags& flags) {
  flags
      .add_string("trace-out", "",
                  "write a Chrome trace-event JSON of the run here")
      .add_string("metrics-out", "",
                  "write the virtual-time metrics series here (CSV, or JSON "
                  "with a .json suffix)")
      .add_double("sample-interval", 50.0,
                  "metrics sampling interval in virtual milliseconds")
      .within("sample-interval",
              1.0 / static_cast<double>(sim::kMillisecond),
              sim::to_seconds(sim::kHorizon) * 1e3)
      .add_bool("flow-trace", false,
                "record causal write->transit->read flow arrows in the "
                "trace (use with --trace-out; implies tracing)")
      .add_bool("profile", false,
                "run the engine self-profiler (events/sec, per-event-kind "
                "wall-clock histograms, queue depth, allocations)");
}

Options options_from_flags(const util::Flags& flags) {
  Options opts;
  opts.trace_path = flags.get_string("trace-out");
  opts.metrics_path = flags.get_string("metrics-out");
  opts.flow_trace = flags.get_bool("flow-trace");
  opts.profile = flags.get_bool("profile");
  opts.sample_interval = static_cast<sim::Time>(
      flags.get_double("sample-interval") *
      static_cast<double>(sim::kMillisecond));
  return opts;
}

}  // namespace nscc::obs
