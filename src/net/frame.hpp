// The fault-and-delivery step every interconnect model ends a frame with.
//
// A model (SharedBus, SwitchFabric) works out when a frame would arrive on
// a perfect network; deliver_frame() then subjects it to the machine's
// fault::FaultPlan and schedules its outcome: lost frames have already
// occupied the wire but report delivered=false (so callers can release
// transport windows and retransmit), and corrupted frames arrive on time
// with a damage seed.  Every frame of every model takes this one path, so
// a verdict is drawn, counted (once, in fault::FaultStats) and traced the
// same way whichever interconnect carries the frame.
#pragma once

#include <cstdint>

#include "fault/fault.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"
#include "sim/inline_function.hpp"
#include "sim/time.hpp"

namespace nscc::net {

/// Runs once, at delivery (delivered=true) or at the moment a fault loses
/// the frame (delivered=false); always engine context.  `corrupt_seed` is
/// nonzero when the frame arrived with a damaged payload
/// (fault::corruption_effect(seed, bytes) describes the damage).
///
/// Stored inline (no heap allocation) for captures up to 40 bytes; the
/// delivery event that carries it then still fits the engine's inline
/// callback.
using Outcome = sim::InlineFunction<
    void(sim::Time at, bool delivered, std::uint64_t corrupt_seed), 40>;

/// Judge a frame from `src` to `dst` handed over now that would arrive at
/// `delivered_at`, trace the verdict on `track` (when `tracer` is enabled)
/// and schedule `outcome`.  A null `injector` delivers every frame intact.
void deliver_frame(sim::Engine& engine, fault::FaultInjector* injector,
                   obs::Tracer* tracer, int track, int src, int dst,
                   sim::Time delivered_at, Outcome outcome);

}  // namespace nscc::net
