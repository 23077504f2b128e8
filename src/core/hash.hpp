// The one content hash, 64-bit FNV-1a: checkpoint records, incremental
// snapshots, FibCache keys, archive checksums, campaign and fuzz seeds all
// use it, so its values are part of the on-disk formats. Header-only, so
// any library can use it.
#pragma once

#include <cstdint>
#include <string_view>

namespace autonet::core {

/// FNV-1a 64 over a byte string from `basis` (the FNV offset basis by
/// default; pass one result as the next basis to chain).
[[nodiscard]] constexpr std::uint64_t fnv1a(std::string_view data,
                                            std::uint64_t basis = 0xcbf29ce484222325ULL) {
  std::uint64_t h = basis;
  for (char c : data) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace autonet::core
