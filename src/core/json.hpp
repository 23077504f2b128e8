// The one JSON string escaper (NIDB, telemetry exports, run reports, fuzz
// journal); header-only, so any library can use it.
#pragma once

#include <string>
#include <string_view>

namespace autonet::core {

/// Appends `s` to `out` escaped for the inside of a JSON string literal
/// (no quotes added): `"` and `\` are backslash-escaped, newline, carriage
/// return and tab become \n \r \t, other control bytes \u00XX.
inline void append_json_escaped(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += "\\u00";
          out += kHex[(c >> 4) & 0xf];
          out += kHex[c & 0xf];
        } else {
          out += c;
        }
    }
  }
}

/// Appends `s` as a quoted JSON string literal.
inline void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  append_json_escaped(out, s);
  out += '"';
}

/// `s` escaped as by append_json_escaped, for stream writers.
[[nodiscard]] inline std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  append_json_escaped(out, s);
  return out;
}

}  // namespace autonet::core
