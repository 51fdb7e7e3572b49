// Minimal command-line flag parsing for the bench/example binaries.
//
// Flags may be given as --name=value or --name value; bools accept bare
// --name.  The command line is the only way a setting enters a run.
//
// Unknown flags, ill-formed values, and enum values outside the allowed set
// are rejected: parse() prints a pointed error plus the usage text and
// returns false, and every driver turns that into a nonzero exit.  A typo
// never silently falls through to a default.
//
// A double flag is always finite, and a numeric flag's range is part of
// its declaration (range(), within() or above() right after add_*()):
// values are checked against it and --help shows it.  A string flag with
// a format declares its check the same way (validate()).  A bound that
// does not fit its flag's kind, or excludes its default, throws
// logic_error.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
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
  /// rejected like ill-formed ones.  hi defaults to the largest int, so a
  /// value the caller stores in an int cannot wrap.
  Flags& range(const std::string& name, std::int64_t lo,
               std::int64_t hi = std::numeric_limits<int>::max());
  /// Restrict a double flag to the closed [lo, hi].
  Flags& within(const std::string& name, double lo, double hi);
  /// Restrict a double flag to values above `lo`.
  Flags& above(const std::string& name, double lo);
  /// Check a plain string flag's value with `reason`, which returns why
  /// the value is rejected (naming the flag), or nothing to accept it.
  using Validator = std::function<std::string(const std::string&)>;
  Flags& validate(const std::string& name, Validator reason);

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
    /// Double range (kDouble): [dlo, dhi], or above dlo when lo_open.
    double dlo = -std::numeric_limits<double>::infinity();
    double dhi = std::numeric_limits<double>::infinity();
    bool lo_open = false;
    Validator reason = nullptr;  ///< Format check of a plain string flag.
  };

  Flags& add(const std::string& name, Kind kind, std::string def,
             const std::string& help, std::vector<std::string> allowed = {},
             bool is_list = false);
  /// Empty return = accepted; otherwise a human-readable reason.
  std::string set(const std::string& name, const std::string& value);
  /// The entry a bound is declared on; throws std::logic_error unless it
  /// is a double flag (`real`) or an int / int-list flag (otherwise).
  Entry& bounded(const std::string& name, bool real);
  /// *this, or throws std::logic_error when the flag's current value (its
  /// default) lies outside the bound just declared.
  Flags& checked(const std::string& name);

  std::map<std::string, Entry> entries_;
  std::vector<std::string> order_;
};

/// Split a comma-separated list into its (possibly empty) tokens.
[[nodiscard]] std::vector<std::string> split_csv(const std::string& csv);

}  // namespace nscc::util
