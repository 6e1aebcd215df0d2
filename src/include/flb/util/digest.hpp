#pragma once

#include <bit>
#include <cstdint>
#include <string_view>

/// \file digest.hpp
/// The one FNV-1a 64-bit routine behind every determinism digest: schedule
/// digests (serve::schedule_digest and the golden tests), the runtime's
/// event, schedule and belief log digests, and digest chains. Header-only
/// so the per-request serving digest inlines into its caller.

namespace flb {

/// Streaming FNV-1a 64-bit hasher. Multi-byte values are fed least
/// significant byte first, so a digest depends only on the values, never
/// on the host's byte order.
class Fnv1a {
 public:
  /// The offset basis every pinned digest was captured with: the
  /// published 14695981039346656037 with its last digit missing. Changing
  /// it would change every golden digest, so it stays.
  static constexpr std::uint64_t kOffsetBasis = 1469598103934665603ull;
  static constexpr std::uint64_t kPrime = 1099511628211ull;

  /// Mix one byte.
  void byte(std::uint8_t b) {
    h_ ^= b;
    h_ *= kPrime;
  }

  /// Mix the eight bytes of `v`, little-endian.
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i)
      byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  /// Mix the IEEE-754 bit pattern of `d` (as u64).
  void f64(double d) { u64(std::bit_cast<std::uint64_t>(d)); }

  /// Mix every byte of `s` in order.
  void str(std::string_view s) {
    for (const char c : s) byte(static_cast<std::uint8_t>(c));
  }

  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = kOffsetBasis;
};

/// FNV-1a 64-bit digest of a string (schedule text, event or belief log).
[[nodiscard]] inline std::uint64_t fnv1a_digest(std::string_view text) {
  Fnv1a h;
  h.str(text);
  return h.value();
}

}  // namespace flb
