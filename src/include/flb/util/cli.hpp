#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

/// \file cli.hpp
/// Minimal command-line option parsing for the bench and example binaries.
/// Supports `--name value` and `--name=value` forms plus bare positionals.

namespace flb {

/// Parsed command-line arguments with typed, defaulted accessors.
class CliArgs {
 public:
  /// Parse argv. Throws flb::Error on an option missing its value.
  CliArgs(int argc, const char* const* argv);

  /// True iff `--name` was given (with or without a value).
  [[nodiscard]] bool has(const std::string& name) const;

  /// String value of `--name`, or `fallback` when absent.
  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& fallback) const;

  /// Integer value of `--name`, or `fallback` when absent. Throws on a
  /// non-numeric value or one outside the 64-bit range.
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const;

  /// A count flag (`--procs`, `--tasks`, `--seeds`, `--threads`, ...) as
  /// the unsigned type T, or `fallback` when absent. Throws unless the
  /// value is at least 1 and fits T, naming the flag and the value, e.g.
  /// "--procs must be between 1 and 4294967295, got -1".
  template <typename T>
  [[nodiscard]] T get_count(const std::string& name, T fallback) const {
    if (!has(name)) return fallback;
    return checked_count<T>(name, get_int(name, 0));
  }

  /// An index flag (`--victim`, ...) as the unsigned type T, or `fallback`
  /// when absent. Throws unless 0 <= value < limit, naming the flag and
  /// the value, e.g. "--victim must be between 0 and 3, got 4294967297".
  template <typename T>
  [[nodiscard]] T get_index(const std::string& name, T fallback,
                            T limit) const {
    static_assert(std::is_unsigned_v<T>, "indices are unsigned");
    if (!has(name)) return fallback;
    const std::int64_t value = get_int(name, 0);
    require_index(name, value, limit);
    return static_cast<T>(value);
  }

  /// Double value of `--name`, or `fallback` when absent.
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;

  /// Comma-separated list of integers for `--name`, or `fallback` when
  /// absent (e.g. "--procs 2,4,8").
  [[nodiscard]] std::vector<std::int64_t> get_int_list(
      const std::string& name, std::vector<std::int64_t> fallback) const;

  /// As get_count, for every entry of a comma-separated list.
  template <typename T>
  [[nodiscard]] std::vector<T> get_count_list(
      const std::string& name, std::vector<T> fallback) const {
    if (!has(name)) return fallback;
    std::vector<T> out;
    for (std::int64_t v : get_int_list(name, {}))
      out.push_back(checked_count<T>(name, v));
    return out;
  }

  /// Comma-separated list of doubles for `--name`.
  [[nodiscard]] std::vector<double> get_double_list(
      const std::string& name, std::vector<double> fallback) const;

  /// Positional (non-option) arguments in order.
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

  /// Program name (argv[0]).
  [[nodiscard]] const std::string& program() const { return program_; }

 private:
  // Throws unless 1 <= value <= max; the error names `--name` and value.
  static void require_count(const std::string& name, std::int64_t value,
                            std::int64_t max);
  // Throws unless 0 <= value < limit; the error names `--name` and value.
  static void require_index(const std::string& name, std::int64_t value,
                            std::uint64_t limit);

  template <typename T>
  static T checked_count(const std::string& name, std::int64_t value) {
    static_assert(std::is_unsigned_v<T>, "counts are unsigned");
    constexpr std::uint64_t max = std::min<std::uint64_t>(
        std::numeric_limits<T>::max(),
        std::numeric_limits<std::int64_t>::max());
    require_count(name, value, static_cast<std::int64_t>(max));
    return static_cast<T>(value);
  }

  std::string program_;
  std::map<std::string, std::string> options_;
  std::vector<std::string> positional_;
};

}  // namespace flb
