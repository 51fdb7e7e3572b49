// Minimal command-line flag parsing for the bench/example binaries.
//
// Flags may be given as --name=value or --name value; bools accept bare
// --name.  Each flag also honours an environment override NSCC_<NAME>
// (upper-cased, dashes become underscores) so the whole bench suite can be
// switched to the paper-scale protocol with a single env var.
//
// Unknown flags, ill-formed values, and enum values outside the allowed set
// are rejected: parse() prints a pointed error plus the usage text and
// returns false, and every driver turns that into a nonzero exit.  A typo
// never silently falls through to a default.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace nscc::util {

class Flags {
 public:
  Flags& add_int(const std::string& name, std::int64_t def,
                 const std::string& help);
  Flags& add_double(const std::string& name, double def,
                    const std::string& help);
  Flags& add_bool(const std::string& name, bool def, const std::string& help);
  Flags& add_string(const std::string& name, const std::string& def,
                    const std::string& help);
  /// String flag restricted to one of `allowed` (e.g. --network=ethernet|sp2).
  Flags& add_enum(const std::string& name, const std::string& def,
                  std::vector<std::string> allowed, const std::string& help);
  /// Comma-separated, duplicate-free, non-empty subset of `allowed`
  /// (e.g. --variants=sync,partial).
  Flags& add_enum_list(const std::string& name, const std::string& def,
                       std::vector<std::string> allowed,
                       const std::string& help);
  /// Comma-separated, non-empty list of integers (e.g. --procs=2,4,8).
  Flags& add_int_list(const std::string& name, const std::string& def,
                      const std::string& help);
  /// Restrict an int or int-list flag to [lo, hi]; values outside it are
  /// rejected like ill-formed ones.  Applies to values set after the call.
  Flags& range(const std::string& name, std::int64_t lo,
               std::int64_t hi = INT64_MAX);

  /// Parse argv; returns false (after printing usage) on --help or on an
  /// unknown flag or ill-formed value.  Callers must exit nonzero on false.
  bool parse(int argc, char** argv);

  /// Override a flag's default before parse() (per-driver defaults on a
  /// shared flag set).  Returns false when the flag is unknown or the value
  /// does not validate.
  bool set_default(const std::string& name, const std::string& value);

  [[nodiscard]] std::int64_t get_int(const std::string& name) const;
  [[nodiscard]] double get_double(const std::string& name) const;
  [[nodiscard]] bool get_bool(const std::string& name) const;
  [[nodiscard]] const std::string& get_string(const std::string& name) const;
  /// An enum-list flag's value split on commas.
  [[nodiscard]] std::vector<std::string> get_list(
      const std::string& name) const;
  [[nodiscard]] std::vector<std::int64_t> get_int_list(
      const std::string& name) const;

  void print_usage(const std::string& program) const;

 private:
  enum class Kind { kInt, kIntList, kDouble, kBool, kString };
  struct Entry {
    Kind kind;
    std::string value;
    std::string help;
    std::vector<std::string> allowed;  ///< Non-empty = validated enum.
    bool is_list = false;              ///< Comma-separated enum subset.
    std::int64_t lo = INT64_MIN;       ///< Int range (kInt, kIntList).
    std::int64_t hi = INT64_MAX;
  };

  Flags& add(const std::string& name, Kind kind, std::string def,
             const std::string& help, std::vector<std::string> allowed = {},
             bool is_list = false);
  /// Empty return = accepted; otherwise a human-readable reason.
  std::string set(const std::string& name, const std::string& value);
  void apply_env_overrides();

  std::map<std::string, Entry> entries_;
  std::vector<std::string> order_;
};

/// Split a comma-separated list into its (possibly empty) tokens.
[[nodiscard]] std::vector<std::string> split_csv(const std::string& csv);

}  // namespace nscc::util
