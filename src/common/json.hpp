// Minimal JSON support: a streaming writer and a small DOM parser.
//
// The paper's measurement clients export their records periodically to JSON
// files; `measure::Dataset` uses the writer for the same purpose.  Writing
// is streaming (no DOM) so multi-day campaign exports stay O(1) in memory.
// Reading is DOM-based (`JsonValue::parse`): configuration inputs such as
// `scenario::ScenarioSpec` files are tiny, and a DOM makes validation
// errors precise ("period.duration_ms: expected a number").
#pragma once

#include <cstdint>
#include <expected>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace ipfs::common {

/// Streaming JSON writer with explicit begin/end nesting.
///
/// Usage:
///   JsonWriter w(stream);
///   w.begin_object();
///   w.key("peers"); w.begin_array();
///   ...
///   w.end_array();
///   w.end_object();
///
/// The writer validates nesting depth in debug builds via assertions; it is
/// the caller's responsibility to alternate key()/value in objects.
///
/// Output is rendered into an internal buffer and written to the stream
/// once the buffer passes 64 KiB and whenever the outermost value closes,
/// so bytes a caller writes to the same stream between documents land in
/// order.  `flush()` (also run by the destructor) writes whatever is left.
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& out, bool pretty = false)
      : out_(out), pretty_(pretty) {}
  ~JsonWriter() { flush(); }

  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  void begin_object();
  void end_object();
  void begin_array();
  void end_array();

  void key(std::string_view name);

  void value(std::string_view text);
  void value(const char* text) { value(std::string_view(text)); }
  void value(bool b);
  void value(std::int64_t n);
  void value(std::uint64_t n);
  void value(int n) { value(static_cast<std::int64_t>(n)); }
  void value(double d);
  void null();

  /// Convenience: key + scalar value in one call.
  template <typename T>
  void field(std::string_view name, T&& v) {
    key(name);
    value(std::forward<T>(v));
  }

  /// Write the buffered output to the stream.
  void flush();

  /// Escape a string per RFC 8259 (quotes not included).
  [[nodiscard]] static std::string escape(std::string_view text);

 private:
  enum class Scope : std::uint8_t { kObject, kArray };

  static constexpr std::size_t kFlushBytes = std::size_t{64} << 10;

  void separator();
  void newline_indent();
  void quoted(std::string_view text);
  /// Bookkeeping after every complete value: flushes on the buffer limit
  /// and when the outermost value closes.
  void end_value();

  std::ostream& out_;
  std::string buffer_;
  bool pretty_ = false;
  bool need_comma_ = false;
  bool after_key_ = false;
  std::vector<Scope> scopes_;
};

/// A parsed JSON document (RFC 8259 subset: no duplicate-key policy beyond
/// first-wins, no \uXXXX surrogate pairs outside the BMP).
///
/// Numbers remember whether their lexical form was integral so that 64-bit
/// seeds survive a parse → write round trip without drifting through a
/// double.  Object member order is preserved (needed for byte-exact
/// re-serialisation of scenario files).
class JsonValue {
 public:
  using Array = std::vector<JsonValue>;
  using Member = std::pair<std::string, JsonValue>;
  using Object = std::vector<Member>;

  enum class Type : std::uint8_t {
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject,
  };

  JsonValue() = default;  // null

  /// Parse a complete document.  Errors carry a 1-based line:column prefix,
  /// e.g. "3:17: expected ':' after object key".
  [[nodiscard]] static std::expected<JsonValue, std::string> parse(
      std::string_view text);

  [[nodiscard]] Type type() const noexcept;
  [[nodiscard]] std::string_view type_name() const noexcept;

  [[nodiscard]] bool is_null() const noexcept { return type() == Type::kNull; }
  [[nodiscard]] bool is_bool() const noexcept { return type() == Type::kBool; }
  [[nodiscard]] bool is_number() const noexcept { return type() == Type::kNumber; }
  [[nodiscard]] bool is_string() const noexcept { return type() == Type::kString; }
  [[nodiscard]] bool is_array() const noexcept { return type() == Type::kArray; }
  [[nodiscard]] bool is_object() const noexcept { return type() == Type::kObject; }

  // Typed accessors; callers check the type first (asserted in debug).
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_double() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] const Object& as_object() const;

  /// Integral view of a number: engaged only when the lexical form was an
  /// integer that fits the destination type exactly.
  [[nodiscard]] std::optional<std::int64_t> as_int64() const;
  [[nodiscard]] std::optional<std::uint64_t> as_uint64() const;
  /// True when the number was written without '.' or exponent.
  [[nodiscard]] bool is_integer() const noexcept;

  /// Object member lookup (first match), nullptr when absent or not an
  /// object.
  [[nodiscard]] const JsonValue* find(std::string_view key) const noexcept;

  // Construction helpers (tests and programmatic building).
  static JsonValue make_null() { return JsonValue(); }
  static JsonValue make_bool(bool b);
  static JsonValue make_number(double d);
  static JsonValue make_integer(std::int64_t n);
  static JsonValue make_unsigned(std::uint64_t n);
  static JsonValue make_string(std::string s);
  static JsonValue make_array(Array a);
  static JsonValue make_object(Object o);

 private:
  struct Number {
    double value = 0.0;
    bool integral = false;        ///< lexical form had no '.'/exponent
    bool negative = false;        ///< lexical form began with '-'
    std::uint64_t magnitude = 0;  ///< |value| when integral and in range
  };

  std::variant<std::monostate, bool, Number, std::string, Array, Object> node_;
};

}  // namespace ipfs::common
