#include "obs/trace.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace nscc::obs {

void Tracer::set_track_name(int tid, std::string name) {
  auto it = track_names_.find(tid);
  if (it != track_names_.end()) {
    if (it->second != name) {
      // Two components claimed the same track id (e.g. a switch port base
      // overlapping a processor id).  The exported trace would interleave
      // their events under one thread — fail loudly in debug, keep the
      // first registration and count the conflict in release.
      assert(false && "Tracer: track id registered under two names");
      ++track_collisions_;
    }
    return;  // Dedup: repeated identical registration is a no-op.
  }
  track_names_.emplace(tid, std::move(name));
}

int Tracer::claim_tracks(int count, int preferred_base) {
  assert(count > 0);
  int base = preferred_base;
  auto conflicts = [this](int lo, int hi) -> int {
    // Returns the first id past a conflict, or lo when the range is free.
    for (const auto& [clo, chi] : claimed_) {
      if (lo < chi && clo < hi) return chi;
    }
    auto it = track_names_.lower_bound(lo);
    if (it != track_names_.end() && it->first < hi) return it->first + 1;
    return lo;
  };
  for (;;) {
    const int next = conflicts(base, base + count);
    if (next == base) break;
    base = next;
  }
  claimed_.emplace_back(base, base + count);
  return base;
}

std::vector<Tracer::Event> Tracer::events() const {
  std::vector<Event> out;
  out.reserve(count_);
  // Oldest event is at head_ when the ring wrapped, else at 0.
  const std::size_t start = count_ < capacity_ ? 0 : head_;
  for (std::size_t i = 0; i < count_; ++i) {
    out.push_back(ring_[(start + i) % capacity_]);
  }
  return out;
}

namespace {

void escape_into(std::ostream& os, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
}

/// Virtual ns -> trace-event microseconds (fractional, full precision).
void ts_into(std::ostream& os, sim::Time ns) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%lld.%03lld",
                static_cast<long long>(ns / 1000),
                static_cast<long long>(ns % 1000));
  os << buf;
}

}  // namespace

std::string Tracer::to_chrome_json() const {
  std::ostringstream os;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ",\n";
    first = false;
  };
  // Single trace-event "process" (the simulated machine); one thread track
  // per simulated processor / infrastructure component.
  sep();
  os << R"({"ph":"M","pid":0,"tid":0,"name":"process_name",)"
     << R"("args":{"name":"nscc-sim"}})";
  for (const auto& [tid, name] : track_names_) {
    sep();
    os << R"({"ph":"M","pid":0,"tid":)" << tid
       << R"(,"name":"thread_name","args":{"name":")";
    escape_into(os, name);
    os << "\"}}";
  }
  for (const Event& e : events()) {
    sep();
    os << R"({"ph":")" << e.phase << R"(","pid":0,"tid":)" << e.tid
       << R"(,"ts":)";
    ts_into(os, e.ts);
    os << R"(,"name":")" << (e.name != nullptr ? e.name : "?") << '"';
    if (e.phase == 'X') {
      os << R"(,"dur":)";
      ts_into(os, e.dur);
    }
    if (e.phase == 'i') os << R"(,"s":"t")";
    if (e.phase == 's' || e.phase == 't' || e.phase == 'f') {
      // Flow events need a category and the shared flow id; the end binds
      // to the enclosing slice ("bp":"e") so Perfetto attaches the arrow
      // head to whatever span the consumer was in.
      os << R"(,"cat":"flow","id":)" << e.flow;
      if (e.phase == 'f') os << R"(,"bp":"e")";
    }
    if (e.a0_name != nullptr || e.a1_name != nullptr) {
      os << R"(,"args":{)";
      if (e.a0_name != nullptr) {
        os << '"' << e.a0_name << "\":" << e.a0;
      }
      if (e.a1_name != nullptr) {
        if (e.a0_name != nullptr) os << ',';
        os << '"' << e.a1_name << "\":" << e.a1;
      }
      os << '}';
    }
    os << '}';
  }
  os << "\n]}\n";
  return os.str();
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << to_chrome_json();
  return static_cast<bool>(out);
}

void Tracer::clear() noexcept {
  head_ = 0;
  count_ = 0;
  dropped_ = 0;
  next_flow_ = 1;
  track_collisions_ = 0;
  track_names_.clear();
  claimed_.clear();
}

}  // namespace nscc::obs
