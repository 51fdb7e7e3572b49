#include "fault/fault.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/flags.hpp"

namespace nscc::fault {

namespace {

bool in_any(const std::vector<Window>& windows, sim::Time t) {
  for (const Window& w : windows) {
    if (w.contains(t)) return true;
  }
  return false;
}

/// Group index of `node` in a partition window's group list, -1 when the
/// node is listed in no group (unlisted nodes are never isolated).
int group_of(const PartitionWindow& p, int node) {
  for (std::size_t g = 0; g < p.groups.size(); ++g) {
    for (const int id : p.groups[g]) {
      if (id == node) return static_cast<int>(g);
    }
  }
  return -1;
}

/// True when the partition window isolates src from dst (both listed, in
/// different groups).
bool partition_cuts(const PartitionWindow& p, int src, int dst) {
  const int gs = group_of(p, src);
  if (gs < 0) return false;
  const int gd = group_of(p, dst);
  return gd >= 0 && gd != gs;
}

}  // namespace

bool FaultPlan::reachable(int a, int b, sim::Time t) const noexcept {
  for (const PartitionWindow& p : partitions) {
    if (p.window.contains(t) && partition_cuts(p, a, b)) return false;
  }
  for (const BlackholeWindow& h : blackholes) {
    if (!h.window.contains(t)) continue;
    if ((h.src == a && h.dst == b) || (h.src == b && h.dst == a)) {
      return false;
    }
  }
  return true;
}

sim::Time FaultPlan::last_window_end() const noexcept {
  sim::Time last = 0;
  const auto latest = [&last](const std::vector<Window>& windows) {
    for (const Window& w : windows) last = std::max(last, w.end);
  };
  latest(outages);
  latest(corrupt_windows);
  for (const PartitionWindow& p : partitions) {
    last = std::max(last, p.window.end);
  }
  for (const BlackholeWindow& h : blackholes) {
    last = std::max(last, h.window.end);
  }
  for (const auto& [node, windows] : crashes) latest(windows);
  return last;
}

FaultInjector::Verdict FaultInjector::judge(int src, int dst, sim::Time now) {
  Verdict v;
  ++stats_.frames_judged;

  // Scheduled faults first: they consume no randomness, so a plan that only
  // schedules windows perturbs nothing about the stochastic draw sequence.
  if (in_any(plan_.outages, now)) {
    v.drop = true;
    ++stats_.frames_lost;
    ++stats_.outage_drops;
    return v;
  }
  for (const PartitionWindow& p : plan_.partitions) {
    if (p.window.contains(now) && partition_cuts(p, src, dst)) {
      v.drop = true;
      ++stats_.frames_lost;
      ++stats_.partition_drops;
      return v;
    }
  }
  for (const BlackholeWindow& h : plan_.blackholes) {
    if (h.src == src && h.dst == dst && h.window.contains(now)) {
      v.drop = true;
      ++stats_.frames_lost;
      ++stats_.blackhole_drops;
      return v;
    }
  }
  for (const int node : {src, dst}) {
    const auto it = plan_.crashes.find(node);
    if (it != plan_.crashes.end() && in_any(it->second, now)) {
      v.drop = true;
      ++stats_.frames_lost;
      ++stats_.crash_drops;
      return v;
    }
  }

  // Fixed draw order (loss, then corruption); each draw is guarded on its
  // probability, so a disabled fault class consumes no randomness.
  const LinkFaults& link = plan_.link;
  const bool lost = link.loss_prob > 0.0 && rng_.bernoulli(link.loss_prob);
  const bool corrupt =
      link.corrupt_prob > 0.0 && rng_.bernoulli(link.corrupt_prob);
  if (lost) {
    v.drop = true;
    ++stats_.frames_lost;
    return v;
  }
  if (corrupt) {
    const std::uint64_t seed = rng_();
    v.corrupt_seed = seed != 0 ? seed : 1;
    ++stats_.frames_corrupted;
  } else if (in_any(plan_.corrupt_windows, now)) {
    // Scheduled corruption, like outages, consumes no randomness: the
    // damage seed is a pure function of the frame's position in the
    // schedule, so a corrupt-window run stays stream-aligned with the same
    // schedule run as an outage.
    const std::uint64_t seed =
        (static_cast<std::uint64_t>(now) * 0x9E3779B97F4A7C15ULL) ^
        stats_.frames_judged;
    v.corrupt_seed = seed != 0 ? seed : 1;
    ++stats_.frames_corrupted;
  }
  return v;
}

CorruptionEffect corruption_effect(std::uint64_t seed,
                                   std::size_t payload_bytes) {
  CorruptionEffect effect;
  if (seed == 0 || payload_bytes == 0) return effect;
  util::Xoshiro256 rng(seed);
  // One in four corrupted frames is cut short; the rest take 1-3 bit flips
  // (single-event upsets and short bursts — the damage real CRCs exist to
  // catch).  A truncation always removes at least the last byte so the
  // damage is never a no-op.
  if (rng.below(4) == 0) {
    effect.truncate_to = static_cast<std::size_t>(rng.below(payload_bytes));
    return effect;
  }
  const std::uint64_t nflips = 1 + rng.below(3);
  for (std::uint64_t i = 0; i < nflips; ++i) {
    effect.bit_flips.push_back(
        static_cast<std::size_t>(rng.below(payload_bytes * 8)));
  }
  return effect;
}

namespace {

/// Why `spec` is not a window `parse` accepts; empty when it is one, or
/// when it is empty (no window).
template <typename Parse>
std::string spec_error(const std::string& spec, Parse parse) {
  if (spec.empty()) return {};
  try {
    (void)parse(spec);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return {};
}

}  // namespace

void add_flags(util::Flags& flags) {
  const double horizon_s = sim::to_seconds(sim::kHorizon);
  flags
      .add_double("loss-rate", 0.0,
                  "per-frame loss probability injected on every link")
      .within("loss-rate", 0.0, 1.0)
      .add_double("corrupt-rate", 0.0,
                  "per-frame payload-corruption probability injected on "
                  "every link (bit flips / truncation; CRC-checked frames "
                  "are dropped as loss)")
      .within("corrupt-rate", 0.0, 1.0)
      .add_int("fault-seed", 0xFA17,
               "seed for the fault injector's RNG stream")
      .add_double("read-timeout-ms", 0.0,
                  "Global_Read starvation watchdog budget in virtual ms "
                  "(0 disables escalation)")
      .within("read-timeout-ms", 0.0, horizon_s * 1e3)
      .add_double("crash-at", 0.0,
                  "virtual seconds at which --crash-node loses its state "
                  "(0 disables the crash window)")
      .within("crash-at", 0.0, horizon_s)
      .add_double("crash-for", 1.0,
                  "length of the crash window in virtual seconds")
      .within("crash-for", 0.0, horizon_s)
      .add_int("crash-node", 1, "node id torn down at --crash-at")
      .range("crash-node", 0)
      .add_string("partition-at", "",
                  "scheduled group partition start:end:group-spec, times in "
                  "virtual seconds, groups |-separated node lists "
                  "(e.g. 0.2:0.6:0,1|2,3); empty disables")
      .validate("partition-at",
                [](const std::string& spec) {
                  return spec_error(spec, parse_partition_spec);
                })
      .add_string("blackhole-at", "",
                  "scheduled one-way link loss start:end:src:dst in virtual "
                  "seconds (frames src->dst dropped, reverse untouched); "
                  "empty disables")
      .validate("blackhole-at", [](const std::string& spec) {
        return spec_error(spec, parse_blackhole_spec);
      });
}

namespace {

/// Split on `sep` into non-empty trimless tokens; empty tokens are junk.
std::vector<std::string> split_strict(const std::string& s, char sep,
                                      const std::string& what) {
  std::vector<std::string> out;
  std::size_t begin = 0;
  while (true) {
    const std::size_t end = s.find(sep, begin);
    const std::string tok = s.substr(begin, end - begin);
    if (tok.empty()) {
      throw std::invalid_argument("empty token in " + what + ": '" + s + "'");
    }
    out.push_back(tok);
    if (end == std::string::npos) break;
    begin = end + 1;
  }
  return out;
}

double parse_seconds(const std::string& tok, const std::string& what) {
  std::size_t used = 0;
  double v = 0.0;
  try {
    v = std::stod(tok, &used);
  } catch (const std::exception&) {
    throw std::invalid_argument("bad number in " + what + ": '" + tok + "'");
  }
  const bool in_horizon = v >= 0.0 && v <= sim::to_seconds(sim::kHorizon);
  if (used != tok.size() || !in_horizon) {
    throw std::invalid_argument("bad number in " + what + ": '" + tok +
                                "' (seconds within the 24 h run horizon)");
  }
  return v;
}

int parse_node(const std::string& tok, const std::string& what) {
  std::size_t used = 0;
  int v = 0;
  try {
    v = std::stoi(tok, &used);
  } catch (const std::exception&) {
    throw std::invalid_argument("bad node id in " + what + ": '" + tok + "'");
  }
  if (used != tok.size()) {
    throw std::invalid_argument("bad node id in " + what + ": '" + tok + "'");
  }
  return v;
}

Window parse_window(const std::string& start_tok, const std::string& end_tok,
                    const std::string& what) {
  const double start_s = parse_seconds(start_tok, what);
  const double end_s = parse_seconds(end_tok, what);
  if (end_s <= start_s) {
    throw std::invalid_argument(what + " window must satisfy start < end");
  }
  return Window{static_cast<sim::Time>(start_s * sim::kSecond),
                static_cast<sim::Time>(end_s * sim::kSecond)};
}

}  // namespace

PartitionWindow parse_partition_spec(const std::string& spec) {
  const std::string what = "--partition-at";
  const auto parts = split_strict(spec, ':', what);
  if (parts.size() != 3) {
    throw std::invalid_argument(what + " wants start:end:group-spec, got '" +
                                spec + "'");
  }
  PartitionWindow p;
  p.window = parse_window(parts[0], parts[1], what);
  for (const std::string& group : split_strict(parts[2], '|', what)) {
    std::vector<int> ids;
    for (const std::string& tok : split_strict(group, ',', what)) {
      ids.push_back(parse_node(tok, what));
    }
    p.groups.push_back(std::move(ids));
  }
  if (p.groups.size() < 2) {
    throw std::invalid_argument(what +
                                " needs at least two |-separated groups");
  }
  std::vector<int> seen;
  for (const auto& group : p.groups) {
    for (const int id : group) {
      if (std::find(seen.begin(), seen.end(), id) != seen.end()) {
        throw std::invalid_argument(what + " lists node " +
                                    std::to_string(id) + " twice");
      }
      seen.push_back(id);
    }
  }
  return p;
}

BlackholeWindow parse_blackhole_spec(const std::string& spec) {
  const std::string what = "--blackhole-at";
  const auto parts = split_strict(spec, ':', what);
  if (parts.size() != 4) {
    throw std::invalid_argument(what + " wants start:end:src:dst, got '" +
                                spec + "'");
  }
  BlackholeWindow h;
  h.window = parse_window(parts[0], parts[1], what);
  h.src = parse_node(parts[2], what);
  h.dst = parse_node(parts[3], what);
  if (h.src == h.dst) {
    throw std::invalid_argument(what + " src and dst must differ");
  }
  return h;
}

FaultPlan plan_from_flags(const util::Flags& flags) {
  FaultPlan plan;
  plan.seed = static_cast<std::uint64_t>(flags.get_int("fault-seed"));
  plan.link.loss_prob = flags.get_double("loss-rate");
  plan.link.corrupt_prob = flags.get_double("corrupt-rate");
  const double crash_at = flags.get_double("crash-at");
  if (crash_at > 0.0) {
    const auto start = static_cast<sim::Time>(crash_at * sim::kSecond);
    const auto span =
        static_cast<sim::Time>(flags.get_double("crash-for") * sim::kSecond);
    plan.crashes[static_cast<int>(flags.get_int("crash-node"))].push_back(
        Window{start, start + span});
  }
  if (const std::string& spec = flags.get_string("partition-at");
      !spec.empty()) {
    plan.partitions.push_back(parse_partition_spec(spec));
  }
  if (const std::string& spec = flags.get_string("blackhole-at");
      !spec.empty()) {
    plan.blackholes.push_back(parse_blackhole_spec(spec));
  }
  return plan;
}

sim::Time read_timeout_from_flags(const util::Flags& flags) {
  return static_cast<sim::Time>(flags.get_double("read-timeout-ms") *
                                static_cast<double>(sim::kMillisecond));
}

}  // namespace nscc::fault
