#include "sanitize/sanitize.hpp"

#include <algorithm>
#include <ostream>

namespace nscc::sanitize {

const char* level_name(Level level) noexcept {
  switch (level) {
    case Level::kOff:
      return "off";
    case Level::kTrack:
      return "track";
    case Level::kStrict:
      return "strict";
  }
  return "?";
}

std::optional<Level> level_from_name(const std::string& name) {
  if (name == "off") return Level::kOff;
  if (name == "track") return Level::kTrack;
  if (name == "strict") return Level::kStrict;
  return std::nullopt;
}

const char* violation_name(ViolationKind kind) noexcept {
  switch (kind) {
    case ViolationKind::kStaleness:
      return "staleness";
    case ViolationKind::kDegraded:
      return "degraded";
    case ViolationKind::kInvalid:
      return "invalid";
    case ViolationKind::kChecksum:
      return "checksum";
  }
  return "?";
}

ToleranceSpec& ToleranceSpec::set_default(ToleranceRule rule) {
  default_ = rule;
  return *this;
}

ToleranceSpec& ToleranceSpec::declare(LocationId loc, ToleranceRule rule) {
  points_[loc] = rule;
  return *this;
}

ToleranceSpec& ToleranceSpec::declare_range(LocationId lo, LocationId hi,
                                            ToleranceRule rule) {
  if (lo < hi) ranges_.push_back(Range{lo, hi, rule});
  return *this;
}

ToleranceRule ToleranceSpec::rule_for(LocationId loc) const noexcept {
  const auto it = points_.find(loc);
  if (it != points_.end()) return it->second;
  for (auto r = ranges_.rbegin(); r != ranges_.rend(); ++r) {
    if (r->lo <= loc && loc < r->hi) return r->rule;
  }
  return default_;
}

Sanitizer::Sanitizer(Options options, obs::Hub& hub)
    : opt_(std::move(options)),
      hub_(hub),
      writes_recorded_(hub.registry().counter("sanitize.writes_recorded")),
      reads_audited_(hub.registry().counter("sanitize.reads_audited")),
      shadow_evictions_(hub.registry().counter("sanitize.shadow_evictions")),
      checksum_unverified_(
          hub.registry().counter("sanitize.checksum_unverified")) {
  if (opt_.shadow_depth == 0) opt_.shadow_depth = 1;
  for (int k = 0; k < kViolationKinds; ++k) {
    violations_[k] = &hub.registry().counter(
        std::string("sanitize.violations.") +
        violation_name(static_cast<ViolationKind>(k)));
  }
}

std::uint64_t Sanitizer::violations() const noexcept {
  std::uint64_t n = 0;
  for (const obs::Counter* c : violations_) n += c->value();
  return n;
}

void Sanitizer::record_write(int writer, LocationId loc, Iteration iter,
                             std::uint32_t checksum, std::uint32_t bytes,
                             sim::Time at) {
  writes_recorded_.inc();
  auto& log = shadow_[loc];
  log.push_back(ShadowWrite{iter, checksum, bytes, writer, at});
  while (log.size() > opt_.shadow_depth) {
    log.pop_front();
    shadow_evictions_.inc();
  }
}

void Sanitizer::audit_read(int reader, LocationId loc, Iteration curr_iter,
                           Iteration declared_age, bool valid, bool degraded,
                           Iteration value_iter, std::uint32_t checksum,
                           sim::Time at) {
  reads_audited_.inc();
  const ToleranceRule rule = opt_.spec.rule_for(loc);

  if (!valid) {
    // Never-written location; nothing else about the value is meaningful.
    // Covers the documented degraded && !valid case (a dead producer that
    // never wrote) as well as a plain read before the first update.
    if (!rule.tolerate_invalid) {
      flag(ViolationKind::kInvalid, reader, loc, curr_iter, value_iter, -1,
           at);
    }
    return;
  }

  if (degraded) {
    // A degraded value is *by definition* older than the read's age bound
    // (that is why it was served degraded), so the staleness check does
    // not apply — what matters is whether the contract allows degraded
    // data to flow into this location at all.
    if (!rule.tolerate_degraded) {
      flag(ViolationKind::kDegraded, reader, loc, curr_iter, value_iter, -1,
           at);
    }
  } else {
    // Staleness: audited only for Global_Read (declared_age >= 0); a plain
    // asynchronous read carries no iteration context to measure against.
    if (declared_age >= 0) {
      Iteration limit = declared_age;
      if (rule.max_age >= 0) limit = std::min(limit, rule.max_age);
      const Iteration staleness = curr_iter - value_iter;
      if (staleness > limit) {
        flag(ViolationKind::kStaleness, reader, loc, curr_iter, value_iter,
             limit, at);
      }
    } else if (rule.require_aged) {
      // The contract demands an explicit age bound on every read of this
      // location, and this read came through the un-aged path.
      flag(ViolationKind::kStaleness, reader, loc, curr_iter, value_iter,
           rule.max_age, at);
    }
  }

  // End-to-end integrity: the delivered payload must equal *something* the
  // writer committed for that iteration.  A writer may re-publish the same
  // iteration with corrected content (the sampler's anti-message role), so
  // a reader still holding the superseded copy matches an older entry —
  // that is writer-committed data, not corruption.  Entries older than the
  // bounded shadow log cannot be cross-checked and are counted, not
  // flagged.
  const auto it = shadow_.find(loc);
  bool found = false;
  bool matched = false;
  if (it != shadow_.end()) {
    for (auto w = it->second.rbegin(); w != it->second.rend(); ++w) {
      if (w->iter != value_iter) continue;
      found = true;
      if (w->checksum == checksum) {
        matched = true;
        break;
      }
    }
  }
  if (!found) {
    checksum_unverified_.inc();
  } else if (!matched) {
    flag(ViolationKind::kChecksum, reader, loc, curr_iter, value_iter, -1, at);
  }
}

void Sanitizer::flag(ViolationKind kind, int reader, LocationId loc,
                     Iteration curr_iter, Iteration value_iter,
                     Iteration limit, sim::Time at) {
  violations_[static_cast<int>(kind)]->inc();
  if (recorded_.size() < opt_.max_recorded) {
    recorded_.push_back(
        Violation{kind, reader, loc, curr_iter, value_iter, limit, at});
  }
  hub_.tracer().instant(reader, "sanitize.violation", at, "loc", loc, "kind",
                        static_cast<int>(kind));
}

void Sanitizer::report(std::ostream& out) const {
  const std::uint64_t total = violations();
  if (total == 0) {
    out << "[sanitize:" << level_name(opt_.level) << "] clean: "
        << reads_audited_.value() << " reads audited, "
        << writes_recorded_.value() << " writes shadowed, 0 violations\n";
    return;
  }
  out << "[sanitize:" << level_name(opt_.level) << "] " << total
      << " violation(s) in " << reads_audited_.value() << " audited reads (";
  bool first = true;
  for (int k = 0; k < kViolationKinds; ++k) {
    const std::uint64_t n = violations_[k]->value();
    if (n == 0) continue;
    if (!first) out << ", ";
    out << violation_name(static_cast<ViolationKind>(k)) << "=" << n;
    first = false;
  }
  out << ")\n";
  for (const auto& v : recorded_) {
    out << "  [" << violation_name(v.kind) << "] reader=" << v.reader
        << " loc=" << v.loc << " curr_iter=" << v.curr_iter
        << " value_iter=" << v.value_iter;
    if (v.limit >= 0) out << " limit=" << v.limit;
    out << " t=" << sim::to_seconds(v.at) << "s\n";
  }
  if (total > recorded_.size()) {
    out << "  ... and " << (total - recorded_.size()) << " more (cap "
        << opt_.max_recorded << ")\n";
  }
}

}  // namespace nscc::sanitize
