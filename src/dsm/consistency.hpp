// Pluggable consistency models (ROADMAP item 5): the consistency semantics
// that used to be hard-coded into SharedSpace's Global_Read predicate and
// the per-app Mode → PropagationPolicy mappings, extracted behind one
// interface so the paper's design point becomes one row of a matrix.
//
// A ConsistencyModel owns three decisions:
//
//   * read admission — admit() is the Global_Read gate: given the local
//     copy's metadata and the read's (curr_iter, age) declaration, may the
//     read return now or must it keep waiting?  The paper's non-strict
//     model admits iff the copy is valid and no older than curr_iter - age;
//     other models widen (eventual) or narrow (regional fences) that rule.
//   * propagation — shape() runs once per SharedSpace construction and may
//     override the policy's transport-facing knobs (coalescing, reliable
//     updates), so a model can own how its updates travel, not just when
//     they become readable.
//   * ordering metadata — a model that stamps updates (stamps_updates())
//     appends a per-writer release sequence number to every propagated
//     update (next_stamp() on the writer, note_stamp() on the reader), and
//     may defer visibility: visible_on_arrival() == false parks arriving
//     updates until the reader's next acquire point (any Global_Read or
//     plain read), RACoherence-style.
//
// The set of models is closed: one constant table in consistency.cpp holds
// the four built-ins, and make_consistency_model() instantiates one per
// SharedSpace by name.  PropagationPolicy::consistency selects it and
// defaults to "nonstrict", which is bit-for-bit the pre-refactor
// behaviour.  The four built-ins, in table order:
//
//   nonstrict        the paper: per-read bounded staleness (default)
//   regional         region-scoped acquire fences: a read of ANY member
//                    location admits only once EVERY location the task has
//                    read (its region) satisfies the bound, then the whole
//                    region is fenced until the next iteration
//   release-acquire  updates invisible until an acquire point; per-writer
//                    release sequence numbers detect reordering
//   eventual         no admission blocking beyond first-value validity;
//                    newest-wins propagation with forced coalescing
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace nscc::dsm {

using LocationId = std::int32_t;
using Iteration = std::int64_t;

struct PropagationPolicy;

/// Reader-side snapshot of a local copy, as the admission decision sees it.
struct CopyMeta {
  Iteration iteration = -1;  ///< Writer iteration that generated the copy.
  bool valid = false;        ///< False until the first update/write lands.
  bool degraded = false;     ///< Last served because the writer was gone.
  std::uint64_t epoch = 0;   ///< Writer incarnation that produced it.
};

class ConsistencyModel {
 public:
  virtual ~ConsistencyModel() = default;

  [[nodiscard]] virtual const char* name() const noexcept = 0;

  /// The Global_Read admission gate.  Called at least once before the read
  /// considers blocking and again after every applied update while it
  /// waits, so implementations may keep state (fences, region membership)
  /// but must be monotone within one read: once true for a given copy, a
  /// re-ask with the same or a fresher copy stays true.  Recovery's escape
  /// hatches (dead-writer degradation, quorum-less stale serves) bypass
  /// this gate by design — they are liveness valves, not consistency.
  [[nodiscard]] virtual bool admit(LocationId loc, Iteration curr_iter,
                                   Iteration age, const CopyMeta& copy) = 0;

  /// Propagation ownership: invoked once, at SharedSpace construction, on
  /// the policy the space will use.  The default keeps the harness's
  /// mode-derived wiring (the paper's mapping: coalesce iff partial).
  virtual void shape(PropagationPolicy& policy) { (void)policy; }

  /// False parks arriving updates until the next acquire point instead of
  /// applying them at delivery (release-acquire visibility).
  [[nodiscard]] virtual bool visible_on_arrival() const noexcept {
    return true;
  }

  /// True appends a u64 ordering stamp to every update's wire format.
  /// Every task in a run shares one model name, so writer and reader
  /// always agree on the format.
  [[nodiscard]] virtual bool stamps_updates() const noexcept { return false; }

  /// Writer side: the stamp for the next outgoing update (only consulted
  /// when stamps_updates()).
  virtual std::uint64_t next_stamp() { return 0; }

  /// Reader side: account an incoming stamp from writer task `src`.
  /// Returns false when it arrived out of release order (the caller counts
  /// it; newest-wins still decides what is applied).
  virtual bool note_stamp(int src, std::uint64_t stamp) {
    (void)src;
    (void)stamp;
    return true;
  }

  /// Bookkeeping hook: the reader's copy of `loc` changed (an update was
  /// applied).  Lets stateful models track non-read locations' freshness
  /// without owning the cache.
  virtual void note_copy(LocationId loc, const CopyMeta& copy) {
    (void)loc;
    (void)copy;
  }
};

/// A new instance of the built-in model called `name`.  Throws
/// std::invalid_argument for an unknown name.
[[nodiscard]] std::unique_ptr<ConsistencyModel> make_consistency_model(
    const std::string& name);

/// The built-in model names, in table order (the paper's default first).
[[nodiscard]] std::vector<std::string> consistency_model_names();

}  // namespace nscc::dsm
