#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace nscc::obs {

namespace {

int bucket_index(double v) noexcept {
  if (!(v >= 1.0)) return 0;  // v < 1, zero, negative, or NaN.
  const int e = std::ilogb(v) + 1;
  return std::min(e, Histogram::kBuckets - 1);
}

}  // namespace

void Histogram::observe(double v) noexcept {
  ++buckets_[static_cast<std::size_t>(bucket_index(v))];
  ++count_;
  sum_ += v;
  min_ = std::min(min_, v);
  max_ = std::max(max_, v);
}

void Histogram::merge(const Histogram& other) noexcept {
  if (other.count_ == 0) return;
  for (int i = 0; i < kBuckets; ++i) {
    buckets_[static_cast<std::size_t>(i)] +=
        other.buckets_[static_cast<std::size_t>(i)];
  }
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double Histogram::bucket_upper(int i) noexcept {
  if (i <= 0) return 1.0;
  if (i >= kBuckets - 1) return std::numeric_limits<double>::infinity();
  return std::ldexp(1.0, i);
}

double Histogram::quantile(double q) const noexcept {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count_)));
  std::uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += buckets_[static_cast<std::size_t>(i)];
    if (seen >= rank) return std::min(bucket_upper(i), max_);
  }
  return max_;
}

Counter& Registry::counter(const std::string& name, int pid) {
  return counters_[{name, pid}];
}

Gauge& Registry::gauge(const std::string& name, int pid) {
  return gauges_[{name, pid}];
}

Histogram& Registry::histogram(const std::string& name, int pid) {
  return histograms_[{name, pid}];
}

std::uint64_t Registry::counter_value(const std::string& name,
                                      int pid) const noexcept {
  auto it = counters_.find({name, pid});
  return it == counters_.end() ? 0 : it->second.value();
}

double Registry::gauge_value(const std::string& name, int pid) const noexcept {
  auto it = gauges_.find({name, pid});
  return it == gauges_.end() ? 0.0 : it->second.value();
}

const Histogram* Registry::find_histogram(const std::string& name,
                                          int pid) const noexcept {
  auto it = histograms_.find({name, pid});
  return it == histograms_.end() ? nullptr : &it->second;
}

std::uint64_t Registry::counter_total(const std::string& name) const noexcept {
  std::uint64_t total = 0;
  for (auto it = counters_.lower_bound({name, std::numeric_limits<int>::min()});
       it != counters_.end() && it->first.first == name; ++it) {
    total += it->second.value();
  }
  return total;
}

std::vector<Registry::Sample> Registry::snapshot() const {
  std::vector<Sample> out;
  out.reserve(size());
  for (const auto& [key, c] : counters_) {
    out.push_back({key.first, key.second, "counter",
                   static_cast<double>(c.value()), 0, 0.0});
  }
  for (const auto& [key, g] : gauges_) {
    out.push_back({key.first, key.second, "gauge", g.value(), 0, 0.0});
  }
  for (const auto& [key, h] : histograms_) {
    out.push_back({key.first, key.second, "histogram", h.mean(), h.count(),
                   h.max()});
  }
  return out;
}

std::string Registry::to_csv() const {
  std::ostringstream os;
  os << "name,pid,kind,value,count,max\n";
  for (const Sample& s : snapshot()) {
    os << s.name << ',' << s.pid << ',' << s.kind << ',' << s.value << ','
       << s.count << ',' << s.max << '\n';
  }
  return os.str();
}

std::string Registry::to_json() const {
  std::ostringstream os;
  os << "[\n";
  bool first = true;
  for (const Sample& s : snapshot()) {
    if (!first) os << ",\n";
    first = false;
    os << R"(  {"name":")" << s.name << R"(","pid":)" << s.pid
       << R"(,"kind":")" << s.kind << R"(","value":)" << s.value
       << R"(,"count":)" << s.count << R"(,"max":)" << s.max << '}';
  }
  os << "\n]\n";
  return os.str();
}

}  // namespace nscc::obs
