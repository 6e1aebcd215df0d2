#include "flb/util/cli.hpp"

#include <cerrno>
#include <cstdlib>
#include <sstream>

#include "flb/util/error.hpp"

namespace flb {

namespace {

bool looks_like_option(const std::string& s) {
  return s.size() > 2 && s[0] == '-' && s[1] == '-';
}

// One base-10 integer of `--name`. strtoll saturates on overflow, so ERANGE
// is checked explicitly rather than letting the clamped value through.
std::int64_t parse_int(const std::string& name, const std::string& text,
                       const char* expects) {
  char* end = nullptr;
  errno = 0;
  const std::int64_t v = std::strtoll(text.c_str(), &end, 10);
  FLB_REQUIRE(end && *end == '\0' && !text.empty(),
              "--" + name + " expects " + expects + ", got '" + text + "'");
  FLB_REQUIRE(errno != ERANGE, "--" + name +
                                   " is outside the 64-bit integer range, "
                                   "got '" + text + "'");
  return v;
}

}  // namespace

CliArgs::CliArgs(int argc, const char* const* argv) {
  program_ = argc > 0 ? argv[0] : "";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!looks_like_option(arg)) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string body = arg.substr(2);
    auto eq = body.find('=');
    if (eq != std::string::npos) {
      options_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // `--flag value` if the next token is not itself an option; otherwise a
    // bare boolean flag.
    if (i + 1 < argc && !looks_like_option(argv[i + 1])) {
      options_[body] = argv[++i];
    } else {
      options_[body] = "";
    }
  }
}

bool CliArgs::has(const std::string& name) const {
  return options_.count(name) > 0;
}

std::string CliArgs::get(const std::string& name,
                         const std::string& fallback) const {
  auto it = options_.find(name);
  return it == options_.end() ? fallback : it->second;
}

std::int64_t CliArgs::get_int(const std::string& name,
                              std::int64_t fallback) const {
  auto it = options_.find(name);
  if (it == options_.end()) return fallback;
  return parse_int(name, it->second, "an integer");
}

void CliArgs::require_count(const std::string& name, std::int64_t value,
                            std::int64_t max) {
  FLB_REQUIRE(value >= 1 && value <= max,
              "--" + name + " must be between 1 and " + std::to_string(max) +
                  ", got " + std::to_string(value));
}

void CliArgs::require_index(const std::string& name, std::int64_t value,
                            std::uint64_t limit) {
  FLB_REQUIRE(limit > 0, "--" + name + " has no valid value, got " +
                             std::to_string(value));
  FLB_REQUIRE(value >= 0 && static_cast<std::uint64_t>(value) < limit,
              "--" + name + " must be between 0 and " +
                  std::to_string(limit - 1) + ", got " +
                  std::to_string(value));
}

double CliArgs::get_double(const std::string& name, double fallback) const {
  auto it = options_.find(name);
  if (it == options_.end()) return fallback;
  char* end = nullptr;
  double v = std::strtod(it->second.c_str(), &end);
  FLB_REQUIRE(end && *end == '\0' && !it->second.empty(),
              "--" + name + " expects a number, got '" + it->second + "'");
  return v;
}

std::vector<std::int64_t> CliArgs::get_int_list(
    const std::string& name, std::vector<std::int64_t> fallback) const {
  auto it = options_.find(name);
  if (it == options_.end()) return fallback;
  std::vector<std::int64_t> out;
  std::stringstream ss(it->second);
  std::string item;
  while (std::getline(ss, item, ','))
    out.push_back(parse_int(name, item, "integers"));
  FLB_REQUIRE(!out.empty(), "--" + name + " expects a non-empty list");
  return out;
}

std::vector<double> CliArgs::get_double_list(
    const std::string& name, std::vector<double> fallback) const {
  auto it = options_.find(name);
  if (it == options_.end()) return fallback;
  std::vector<double> out;
  std::stringstream ss(it->second);
  std::string item;
  while (std::getline(ss, item, ',')) {
    char* end = nullptr;
    double v = std::strtod(item.c_str(), &end);
    FLB_REQUIRE(end && *end == '\0' && !item.empty(),
                "--" + name + " expects numbers, got '" + item + "'");
    out.push_back(v);
  }
  FLB_REQUIRE(!out.empty(), "--" + name + " expects a non-empty list");
  return out;
}

}  // namespace flb
