// Shared append-style JSON emission helpers for the results writers
// (harness/sweep.cpp, the benchmark's span report).  Writers stay
// hand-rolled — a document is built by appending to one std::string — so
// emitting results never allocates a value tree; these helpers only
// centralise the escaping and number-formatting rules so every writer
// round-trips identically through util::json::parse.
#pragma once

#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace nscc::util::jsonw {

inline void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

/// %.17g: doubles round-trip exactly through strtod, so a reader comparing
/// two emitted documents can default to exact equality.
inline void append_number(std::string& out, double v) {
  // JSON has no NaN/Inf; a diverged metric serialises as null.
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

inline void append_object(
    std::string& out,
    const std::vector<std::pair<std::string, double>>& fields) {
  out += '{';
  bool first = true;
  for (const auto& [name, value] : fields) {
    if (!first) out += ", ";
    first = false;
    append_escaped(out, name);
    out += ": ";
    append_number(out, value);
  }
  out += '}';
}

}  // namespace nscc::util::jsonw
