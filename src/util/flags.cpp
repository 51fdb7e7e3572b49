#include "util/flags.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <stdexcept>

namespace nscc::util {

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  for (;;) {
    const auto comma = csv.find(',', pos);
    out.push_back(csv.substr(pos, comma - pos));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

namespace {

std::string join(const std::vector<std::string>& parts, const char* sep) {
  std::string out;
  for (const auto& p : parts) {
    if (!out.empty()) out += sep;
    out += p;
  }
  return out;
}

/// A double bound as written on the command line ("0", "0.5").
std::string format_bound(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

/// A double flag's declared bound: "> 0", "in [0, 1]", or empty when it
/// has none (it is still finite).
std::string double_range(double lo, double hi, bool lo_open) {
  if (lo_open) return "> " + format_bound(lo);
  if (std::isinf(lo)) return "";
  return "in [" + format_bound(lo) + ", " + format_bound(hi) + "]";
}

/// An int flag's declared bound: ">= 1", "in [1, 8]", or empty when it
/// has none.
std::string int_range(std::int64_t lo, std::int64_t hi) {
  if (hi == INT64_MAX) {
    return lo == INT64_MIN ? "" : ">= " + std::to_string(lo);
  }
  return "in [" + std::to_string(lo) + ", " + std::to_string(hi) + "]";
}

}  // namespace

Flags& Flags::add(const std::string& name, Kind kind, std::string def,
                  const std::string& help, std::vector<std::string> allowed,
                  bool is_list) {
  auto [it, inserted] = entries_.emplace(
      name, Entry{kind, std::move(def), help, std::move(allowed), is_list});
  if (inserted) order_.push_back(name);
  return *this;
}

Flags& Flags::add_int(const std::string& name, std::int64_t def,
                      const std::string& help) {
  return add(name, Kind::kInt, std::to_string(def), help);
}

Flags& Flags::add_double(const std::string& name, double def,
                         const std::string& help) {
  // std::to_string truncates to 6 fixed decimals (1e-7 -> "0.000000");
  // round-trip via %g with full precision instead.
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", def);
  return add(name, Kind::kDouble, buf, help);
}

Flags& Flags::add_bool(const std::string& name, bool def,
                       const std::string& help) {
  return add(name, Kind::kBool, def ? "true" : "false", help);
}

Flags& Flags::add_string(const std::string& name, const std::string& def,
                         const std::string& help) {
  return add(name, Kind::kString, def, help);
}

Flags& Flags::add_enum(const std::string& name, const std::string& def,
                       std::vector<std::string> allowed,
                       const std::string& help) {
  return add(name, Kind::kString, def, help, std::move(allowed), false);
}

Flags& Flags::add_enum_list(const std::string& name, const std::string& def,
                            std::vector<std::string> allowed,
                            const std::string& help) {
  return add(name, Kind::kString, def, help, std::move(allowed), true);
}

Flags& Flags::add_int_list(const std::string& name, const std::string& def,
                           const std::string& help) {
  return add(name, Kind::kIntList, def, help);
}

Flags::Entry& Flags::bounded(const std::string& name, bool real) {
  const auto it = entries_.find(name);
  const bool fits = it != entries_.end() &&
                    (real ? it->second.kind == Kind::kDouble
                          : it->second.kind == Kind::kInt ||
                                it->second.kind == Kind::kIntList);
  if (!fits) throw std::logic_error("no flag --" + name + " to bound");
  return it->second;
}

Flags& Flags::checked(const std::string& name) {
  if (const std::string err = set(name, entries_.at(name).value);
      !err.empty()) {
    throw std::logic_error("default outside the declared range: " + err);
  }
  return *this;
}

Flags& Flags::range(const std::string& name, std::int64_t lo,
                    std::int64_t hi) {
  Entry& e = bounded(name, false);
  e.lo = lo;
  e.hi = hi;
  return checked(name);
}

Flags& Flags::within(const std::string& name, double lo, double hi) {
  Entry& e = bounded(name, true);
  e.dlo = lo;
  e.dhi = hi;
  e.lo_open = false;
  return checked(name);
}

Flags& Flags::above(const std::string& name, double lo) {
  Entry& e = bounded(name, true);
  e.dlo = lo;
  e.dhi = std::numeric_limits<double>::infinity();
  e.lo_open = true;
  return checked(name);
}

Flags& Flags::validate(const std::string& name, Validator reason) {
  const auto it = entries_.find(name);
  if (it == entries_.end() || it->second.kind != Kind::kString ||
      !it->second.allowed.empty()) {
    throw std::logic_error("no plain string flag --" + name + " to validate");
  }
  it->second.reason = std::move(reason);
  return checked(name);
}

namespace {

/// Empty return = `token` is an integer in [lo, hi]; otherwise the reason.
std::string check_int(const std::string& name, const std::string& token,
                      std::int64_t lo, std::int64_t hi) {
  std::int64_t v = 0;
  try {
    std::size_t used = 0;
    v = std::stoll(token, &used);
    if (used != token.size()) throw std::invalid_argument(token);
  } catch (const std::exception&) {
    return "--" + name + " expects an integer, got '" + token + "'";
  }
  if (v >= lo && v <= hi) return {};
  return "--" + name + " must be " + int_range(lo, hi) + ", got " + token;
}

}  // namespace

std::string Flags::set(const std::string& name, const std::string& value) {
  auto it = entries_.find(name);
  if (it == entries_.end()) return "unknown flag --" + name;
  const Entry& e = it->second;
  switch (e.kind) {
    case Kind::kInt:
    case Kind::kIntList:
      for (const auto& token : e.kind == Kind::kInt ? std::vector{value}
                                                     : split_csv(value)) {
        if (auto err = check_int(name, token, e.lo, e.hi); !err.empty()) {
          return err;
        }
      }
      break;
    case Kind::kDouble: {
      double v = 0.0;
      try {
        std::size_t used = 0;
        v = std::stod(value, &used);
        if (used != value.size()) throw std::invalid_argument(value);
      } catch (const std::exception&) {
        return "--" + name + " expects a number, got '" + value + "'";
      }
      const bool in_range = std::isfinite(v) &&
                            (e.lo_open ? v > e.dlo : v >= e.dlo) &&
                            v <= e.dhi;
      if (!in_range) {
        const std::string bound = double_range(e.dlo, e.dhi, e.lo_open);
        return "--" + name + " must be finite" +
               (bound.empty() ? "" : " and " + bound) + ", got " + value;
      }
      break;
    }
    case Kind::kBool:
      if (value != "true" && value != "false" && value != "1" && value != "0") {
        return "--" + name + " expects true/false, got '" + value + "'";
      }
      break;
    case Kind::kString:
      if (!e.allowed.empty()) {
        const auto ok = [&](const std::string& v) {
          return std::find(e.allowed.begin(), e.allowed.end(), v) !=
                 e.allowed.end();
        };
        if (e.is_list) {
          const auto parts = split_csv(value);
          std::vector<std::string> seen;
          for (const auto& part : parts) {
            if (part.empty() || !ok(part)) {
              return "--" + name + ": '" + part + "' is not one of " +
                     join(e.allowed, "|");
            }
            if (std::find(seen.begin(), seen.end(), part) != seen.end()) {
              return "--" + name + ": '" + part + "' given twice";
            }
            seen.push_back(part);
          }
          if (parts.empty()) return "--" + name + " needs at least one value";
        } else if (!ok(value)) {
          return "--" + name + " must be one of " + join(e.allowed, "|") +
                 ", got '" + value + "'";
        }
      }
      if (e.reason) {
        if (std::string err = e.reason(value); !err.empty()) return err;
      }
      break;
  }
  it->second.value = value;
  return {};
}

bool Flags::set_default(const std::string& name, const std::string& value) {
  const std::string err = set(name, value);
  if (!err.empty()) {
    std::cerr << "bad flag default: " << err << '\n';
    return false;
  }
  return true;
}

bool Flags::parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_usage(argv[0]);
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      std::cerr << "unexpected argument: " << arg << '\n';
      print_usage(argv[0]);
      return false;
    }
    arg = arg.substr(2);
    std::string name;
    std::string value;
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    } else {
      name = arg;
      auto it = entries_.find(name);
      if (it == entries_.end()) {
        std::cerr << "unknown flag --" << name << '\n';
        print_usage(argv[0]);
        return false;
      }
      if (it->second.kind == Kind::kBool) {
        value = "true";
      } else if (i + 1 < argc) {
        value = argv[++i];
      } else {
        std::cerr << "missing value for --" << name << '\n';
        return false;
      }
    }
    const std::string err = set(name, value);
    if (!err.empty()) {
      std::cerr << err << '\n';
      print_usage(argv[0]);
      return false;
    }
  }
  return true;
}

std::int64_t Flags::get_int(const std::string& name) const {
  return std::stoll(entries_.at(name).value);
}

double Flags::get_double(const std::string& name) const {
  return std::stod(entries_.at(name).value);
}

bool Flags::get_bool(const std::string& name) const {
  const std::string& v = entries_.at(name).value;
  return v == "true" || v == "1";
}

const std::string& Flags::get_string(const std::string& name) const {
  return entries_.at(name).value;
}

std::vector<std::string> Flags::get_list(const std::string& name) const {
  return split_csv(entries_.at(name).value);
}

std::vector<std::int64_t> Flags::get_int_list(const std::string& name) const {
  std::vector<std::int64_t> out;
  for (const auto& token : get_list(name)) out.push_back(std::stoll(token));
  return out;
}

void Flags::print_usage(const std::string& program) const {
  std::cerr << "usage: " << program << " [flags]\n";
  for (const auto& name : order_) {
    const Entry& e = entries_.at(name);
    std::cerr << "  --" << name << " (default: " << e.value;
    if (!e.allowed.empty()) {
      std::cerr << "; " << (e.is_list ? "subset of " : "one of ")
                << join(e.allowed, "|");
    }
    const bool real = e.kind == Kind::kDouble;
    const std::string bound = real ? double_range(e.dlo, e.dhi, e.lo_open)
                                   : int_range(e.lo, e.hi);
    if (!bound.empty()) std::cerr << (real ? "; finite, " : "; ") << bound;
    std::cerr << ")  " << e.help << '\n';
  }
}

}  // namespace nscc::util
