#include "dsm/consistency.hpp"

#include <map>
#include <set>
#include <stdexcept>
#include <utility>

#include "dsm/shared_space.hpp"

namespace nscc::dsm {

namespace {

/// The paper's model: admit iff the copy is valid and generated no earlier
/// than iteration curr_iter - age.  Stateless, so repeated asks are free;
/// shape() is a no-op, which keeps the harness's mode-derived propagation
/// wiring (and the pre-refactor byte-identical behaviour).
class NonStrictModel final : public ConsistencyModel {
 public:
  [[nodiscard]] const char* name() const noexcept override {
    return "nonstrict";
  }
  [[nodiscard]] bool admit(LocationId, Iteration curr_iter, Iteration age,
                           const CopyMeta& copy) override {
    return copy.valid && copy.iteration >= curr_iter - age;
  }
};

/// Regional consistency (Ramesh & Ribbens, PAPERS.md), mapped onto the
/// iteration-stamped cache: the task's *region* is every location it has
/// ever Global_Read.  A read at iteration curr first enforces the paper's
/// per-read bound on its own location (so regional is strictly stricter
/// than nonstrict and certifies trivially), then acts as the region's
/// acquire fence: it admits only once EVERY member location satisfies the
/// same bound, after which the whole region is fenced through iteration
/// curr and sibling reads of that iteration admit without re-checking.
///
/// age == 0 degenerates to the per-read rule: a whole-region fresh fence
/// would deadlock mutually-reading peers (each needs the other's full
/// iteration t before publishing its own).  With age >= 1 the fence is
/// deadlock-free by induction: the fence at t needs peers' t - age, which
/// they publish after their own fence at t - age needed our t - 2*age.
class RegionalModel final : public ConsistencyModel {
 public:
  [[nodiscard]] const char* name() const noexcept override {
    return "regional";
  }

  [[nodiscard]] bool admit(LocationId loc, Iteration curr_iter, Iteration age,
                           const CopyMeta& copy) override {
    members_.insert(loc);
    copies_[loc] = copy;
    if (!copy.valid) return false;
    const Iteration need = curr_iter - age;
    if (copy.iteration < need) return false;
    if (age == 0) return true;
    if (curr_iter <= fence_) return true;
    // Try to advance the fence: the whole region must meet this read's
    // bound.  A member still behind keeps the read blocked; the update
    // that freshens it re-asks through note_copy + the wait loop.
    for (const auto& [member, meta] : copies_) {
      if (!meta.valid || meta.iteration < need) return false;
    }
    fence_ = curr_iter;
    return true;
  }

  void note_copy(LocationId loc, const CopyMeta& copy) override {
    if (members_.count(loc) != 0) copies_[loc] = copy;
  }

 private:
  std::set<LocationId> members_;
  std::map<LocationId, CopyMeta> copies_;
  Iteration fence_ = -1;  ///< Region admitted wholesale through here.
};

/// RACoherence-style release/acquire (SNIPPETS.md): a writer's update is a
/// *release* — stamped with a per-writer sequence number — and becomes visible
/// to a reader only at its next *acquire* point, which in this runtime is any
/// read entry (Global_Read or plain read).  Between acquires, arriving updates
/// park unapplied (SharedSpace holds the log), so a computation phase observes
/// one coherent snapshot however many releases land mid-phase.  Admission
/// itself keeps the paper's per-read bound: after the acquire flush the same
/// staleness contract holds, which is what lets every workload certify under
/// --sanitize=strict unchanged.
class ReleaseAcquireModel final : public ConsistencyModel {
 public:
  [[nodiscard]] const char* name() const noexcept override {
    return "release-acquire";
  }
  [[nodiscard]] bool admit(LocationId, Iteration curr_iter, Iteration age,
                           const CopyMeta& copy) override {
    return copy.valid && copy.iteration >= curr_iter - age;
  }
  [[nodiscard]] bool visible_on_arrival() const noexcept override {
    return false;
  }
  [[nodiscard]] bool stamps_updates() const noexcept override { return true; }
  std::uint64_t next_stamp() override { return ++release_seq_; }
  bool note_stamp(int src, std::uint64_t stamp) override {
    std::uint64_t& last = last_stamp_[src];
    const bool in_order = stamp >= last;
    if (in_order) last = stamp;
    return in_order;
  }

 private:
  std::uint64_t release_seq_ = 0;           ///< Writer-side release clock.
  std::map<int, std::uint64_t> last_stamp_;  ///< Reader-side vector clock.
};

/// Eventual consistency: no staleness gate at all — a read admits as soon
/// as the location has ANY value (programs unpack the payload, so a
/// never-written location must still wait for its first update).  The
/// model owns propagation outright: updates always coalesce (newest wins
/// on the wire too) and never ride the reliable channel, whatever the
/// harness's mode wiring said.  Under --sanitize=strict this model is
/// *expected* to fail certification on workloads whose contract demands
/// fresh reads (the sync variants of nn.train and bayes.sampling) — that
/// failure is the sanitizer doing its job on an honest model.
class EventualModel final : public ConsistencyModel {
 public:
  [[nodiscard]] const char* name() const noexcept override {
    return "eventual";
  }
  [[nodiscard]] bool admit(LocationId, Iteration, Iteration,
                           const CopyMeta& copy) override {
    return copy.valid;
  }
  void shape(PropagationPolicy& policy) override {
    policy.coalesce = true;
    policy.reliable_updates = false;
  }
};

}  // namespace

namespace {

template <typename Model>
std::unique_ptr<ConsistencyModel> make_model() {
  return std::make_unique<Model>();
}

struct BuiltIn {
  const char* name;
  std::unique_ptr<ConsistencyModel> (*make)();
};

constexpr BuiltIn kBuiltIns[] = {
    {"nonstrict", make_model<NonStrictModel>},
    {"regional", make_model<RegionalModel>},
    {"release-acquire", make_model<ReleaseAcquireModel>},
    {"eventual", make_model<EventualModel>},
};

}  // namespace

std::unique_ptr<ConsistencyModel> make_consistency_model(
    const std::string& name) {
  for (const BuiltIn& model : kBuiltIns) {
    if (name == model.name) return model.make();
  }
  std::string known;
  for (const BuiltIn& model : kBuiltIns) {
    known += (known.empty() ? "" : ", ") + std::string(model.name);
  }
  throw std::invalid_argument("unknown consistency model '" + name +
                              "' (registered: " + known + ")");
}

std::vector<std::string> consistency_model_names() {
  std::vector<std::string> names;
  for (const BuiltIn& model : kBuiltIns) names.emplace_back(model.name);
  return names;
}

}  // namespace nscc::dsm
