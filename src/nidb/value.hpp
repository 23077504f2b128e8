// The value tree stored per device in the Resource Database (paper §4.1,
// Listing 5.4): a JSON-like recursive structure that the template engine
// traverses with dotted paths such as `node.zebra.hostname` or iterates
// (`% for interface in node.interfaces`).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "graph/attr.hpp"

namespace autonet::nidb {

class Value;
using Array = std::vector<Value>;
using Object = std::map<std::string, Value, std::less<>>;

class Value {
 public:
  using Storage =
      std::variant<std::nullptr_t, bool, std::int64_t, double, std::string,
                   std::shared_ptr<Array>, std::shared_ptr<Object>>;

  Value() : value_(nullptr) {}
  Value(std::nullptr_t) : value_(nullptr) {}              // NOLINT(google-explicit-constructor)
  Value(bool v) : value_(v) {}                            // NOLINT
  Value(std::int64_t v) : value_(v) {}                    // NOLINT
  Value(int v) : value_(static_cast<std::int64_t>(v)) {}  // NOLINT
  Value(std::size_t v) : value_(static_cast<std::int64_t>(v)) {}  // NOLINT
  Value(double v) : value_(v) {}                          // NOLINT
  Value(std::string v) : value_(std::move(v)) {}          // NOLINT
  Value(const char* v) : value_(std::string(v)) {}        // NOLINT
  Value(Array v) : value_(std::make_shared<Array>(std::move(v))) {}    // NOLINT
  Value(Object v) : value_(std::make_shared<Object>(std::move(v))) {}  // NOLINT

  /// Converts a graph attribute (lists become arrays).
  static Value from_attr(const graph::AttrValue& attr);

  [[nodiscard]] bool is_null() const { return std::holds_alternative<std::nullptr_t>(value_); }
  [[nodiscard]] bool is_bool() const { return std::holds_alternative<bool>(value_); }
  [[nodiscard]] bool is_int() const { return std::holds_alternative<std::int64_t>(value_); }
  [[nodiscard]] bool is_double() const { return std::holds_alternative<double>(value_); }
  [[nodiscard]] bool is_string() const { return std::holds_alternative<std::string>(value_); }
  [[nodiscard]] bool is_array() const {
    return std::holds_alternative<std::shared_ptr<Array>>(value_);
  }
  [[nodiscard]] bool is_object() const {
    return std::holds_alternative<std::shared_ptr<Object>>(value_);
  }

  [[nodiscard]] std::optional<bool> as_bool() const;
  [[nodiscard]] std::optional<std::int64_t> as_int() const;
  [[nodiscard]] std::optional<double> as_double() const;
  [[nodiscard]] const std::string* as_string() const;
  /// Mutable form, so a caller that owns the document can move the
  /// string out instead of copying it.
  [[nodiscard]] std::string* as_string();
  [[nodiscard]] const Array* as_array() const;
  [[nodiscard]] const Object* as_object() const;

  /// Python-style truthiness: null/false/0/""/[]/{} are falsy.
  [[nodiscard]] bool truthy() const;

  /// Mutable accessors create the container if this value is null, and
  /// throw std::logic_error on type mismatch otherwise.
  Array& array();
  Object& object();
  /// object()[key] shorthand; creates intermediate objects.
  Value& operator[](std::string_view key);

  /// Dotted-path lookup ("ospf.ospf_links"); nullptr when any component
  /// is missing or not an object.
  [[nodiscard]] const Value* find_path(std::string_view dotted) const;
  /// Single-key lookup; nullptr when missing or not an object.
  [[nodiscard]] const Value* find(std::string_view key) const;
  /// Dotted-path insertion, creating intermediate objects.
  void set_path(std::string_view dotted, Value v);

  /// Rendering for ${...} substitution: bare value, no quotes.
  [[nodiscard]] std::string to_display() const;
  /// Canonical JSON (sorted keys, 2-space indent when pretty).
  [[nodiscard]] std::string to_json(bool pretty = false) const;

  friend bool operator==(const Value& a, const Value& b);

 private:
  void json_to(std::string& out, bool pretty, int depth) const;
  Storage value_;
};

/// Parses JSON text (strict subset: no comments, no trailing commas).
/// Throws std::runtime_error on malformed input.
[[nodiscard]] Value parse_json(std::string_view text);

}  // namespace autonet::nidb
