#include "net/frame.hpp"

#include <memory>
#include <utility>

namespace nscc::net {

namespace {

void trace_verdict(obs::Tracer& tracer, int track, int src, int dst,
                   sim::Time now, const fault::FaultInjector::Verdict& v) {
  if (v.drop) {
    tracer.instant(track, "fault.loss", now, "src", src, "dst", dst);
  } else if (v.duplicate) {
    tracer.instant(track, "fault.dup", now, "src", src, "dst", dst);
  } else if (v.extra_delay > 0) {
    tracer.instant(track, "fault.delay", now, "extra_ns", v.extra_delay);
  }
  if (v.corrupt_seed != 0) {
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
    verdict = injector->judge(src, dst, now, delivered_at);
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
  delivered_at += verdict.extra_delay;
  const std::uint64_t corrupt_seed = verdict.corrupt_seed;
  if (verdict.duplicate) {
    // Two deliveries share one callback through one heap node (the rare
    // fault path; every other frame's outcome rides its event inline).
    // Only the original carries the damage: the duplicate models a
    // link-level retransmit whose second copy arrived intact.
    const sim::Time dup_at = delivered_at + verdict.duplicate_delay;
    auto cb = std::make_shared<Outcome>(std::move(outcome));
    engine.schedule(delivered_at, obs::EventKind::kNetwork,
                    [cb, delivered_at, corrupt_seed] {
                      (*cb)(delivered_at, true, corrupt_seed);
                    });
    engine.schedule(dup_at, obs::EventKind::kNetwork,
                    [cb = std::move(cb), dup_at] { (*cb)(dup_at, true, 0); });
    return;
  }
  auto deliver = [cb = std::move(outcome), delivered_at, corrupt_seed] {
    cb(delivered_at, true, corrupt_seed);
  };
  // The frame's outcome rides its delivery event without a heap node.
  static_assert(sim::Engine::Callback::kStoredInline<decltype(deliver)>);
  engine.schedule(delivered_at, obs::EventKind::kNetwork, std::move(deliver));
}

}  // namespace nscc::net
