#include "net/frame.hpp"

#include <utility>

namespace nscc::net {

namespace {

void trace_verdict(obs::Tracer& tracer, int track, int src, int dst,
                   sim::Time now, const fault::FaultInjector::Verdict& v) {
  if (v.drop) {
    tracer.instant(track, "fault.loss", now, "src", src, "dst", dst);
  } else if (v.corrupt_seed != 0) {
    tracer.instant(track, "fault.corrupt", now, "src", src, "dst", dst);
  }
}

}  // namespace

void deliver_frame(sim::Engine& engine, fault::FaultInjector* injector,
                   obs::Tracer* tracer, int track, int src, int dst,
                   sim::Time delivered_at, Outcome outcome) {
  fault::FaultInjector::Verdict verdict;
  if (injector != nullptr) {
    const sim::Time now = engine.now();
    verdict = injector->judge(src, dst, now);
    if (tracer != nullptr && tracer->enabled()) {
      trace_verdict(*tracer, track, src, dst, now, verdict);
    }
  }

  if (verdict.drop) {
    // The frame has already occupied the wire; it dies between the wire
    // and the receiver.
    engine.schedule(delivered_at, obs::EventKind::kNetwork,
                    [cb = std::move(outcome), delivered_at] {
                      cb(delivered_at, false, 0);
                    });
    return;
  }
  const std::uint64_t corrupt_seed = verdict.corrupt_seed;
  auto deliver = [cb = std::move(outcome), delivered_at, corrupt_seed] {
    cb(delivered_at, true, corrupt_seed);
  };
  // The frame's outcome rides its delivery event without a heap node.
  static_assert(sim::Engine::Callback::kStoredInline<decltype(deliver)>);
  engine.schedule(delivered_at, obs::EventKind::kNetwork, std::move(deliver));
}

}  // namespace nscc::net
