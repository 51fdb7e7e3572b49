#include "harness/sweep.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>

#include "util/flags.hpp"
#include "util/json_writer.hpp"

namespace nscc::harness {

using util::jsonw::append_escaped;
using util::jsonw::append_object;

void Sweep::add_flags(util::Flags& flags) {
  flags.add_string("json-out", "",
                   "write machine-readable results JSON here (see "
                   "bench/schema.md); empty disables");
}

void Sweep::configure(const util::Flags& flags) {
  path_ = flags.get_string("json-out");
}

std::string Sweep::to_json() const {
  std::string out = "{\n  \"schema\": \"nscc-bench-v5\",\n  \"bench\": ";
  append_escaped(out, bench_);
  out += ",\n  \"results\": [";
  bool first = true;
  for (const auto& r : records_) {
    if (!first) out += ',';
    first = false;
    out += "\n    {\"workload\": ";
    append_escaped(out, r.workload);
    out += ", \"variant\": ";
    append_escaped(out, r.variant);
    if (!r.label.empty()) {
      out += ", \"label\": ";
      append_escaped(out, r.label);
    }
    if (r.consistency != "nonstrict") {
      out += ", \"consistency\": ";
      append_escaped(out, r.consistency);
    }
    char buf[96];
    std::snprintf(buf, sizeof buf, ", \"age\": %ld, \"seed\": %llu, \"repeat\": %d",
                  r.age, static_cast<unsigned long long>(r.seed), r.repeat);
    out += buf;
    out += ", \"params\": ";
    append_object(out, r.params);
    out += ", \"stats\": ";
    append_object(out, r.stats);
    out += '}';
  }
  out += "\n  ]\n}\n";
  return out;
}

bool Sweep::write() const {
  if (path_.empty()) return true;
  std::ofstream file(path_);
  if (!file) {
    std::cerr << "cannot open " << path_ << " for writing\n";
    return false;
  }
  file << to_json();
  file.flush();
  if (!file) {
    std::cerr << "write to " << path_ << " failed\n";
    return false;
  }
  return true;
}

}  // namespace nscc::harness
