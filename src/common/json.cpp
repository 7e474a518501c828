#include "common/json.hpp"

#include <cassert>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

namespace ipfs::common {

namespace {

/// Append `text` escaped per RFC 8259: runs of plain characters go in one
/// append, and control characters become \u00XX.
void append_escaped(std::string& out, std::string_view text) {
  std::size_t run = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const auto c = static_cast<unsigned char>(text[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(text.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        static constexpr char kHex[] = "0123456789abcdef";
        const char code[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xf]};
        out.append(code, sizeof code);
      }
    }
  }
  out.append(text.data() + run, text.size() - run);
}

template <typename Integer>
void append_integer(std::string& out, Integer n) {
  char digits[24];  // 20 digits and a sign cover every 64-bit value
  out.append(digits, std::to_chars(digits, digits + sizeof digits, n).ptr);
}

}  // namespace

void JsonWriter::flush() {
  if (buffer_.empty()) return;
  out_.write(buffer_.data(), static_cast<std::streamsize>(buffer_.size()));
  buffer_.clear();
}

void JsonWriter::end_value() {
  need_comma_ = true;
  if (scopes_.empty() || buffer_.size() >= kFlushBytes) flush();
}

void JsonWriter::begin_object() {
  separator();
  buffer_ += '{';
  scopes_.push_back(Scope::kObject);
  need_comma_ = false;
}

void JsonWriter::end_object() {
  assert(!scopes_.empty() && scopes_.back() == Scope::kObject);
  scopes_.pop_back();
  if (pretty_) newline_indent();
  buffer_ += '}';
  end_value();
}

void JsonWriter::begin_array() {
  separator();
  buffer_ += '[';
  scopes_.push_back(Scope::kArray);
  need_comma_ = false;
}

void JsonWriter::end_array() {
  assert(!scopes_.empty() && scopes_.back() == Scope::kArray);
  scopes_.pop_back();
  if (pretty_) newline_indent();
  buffer_ += ']';
  end_value();
}

void JsonWriter::key(std::string_view name) {
  assert(!scopes_.empty() && scopes_.back() == Scope::kObject);
  if (need_comma_) buffer_ += ',';
  if (pretty_) newline_indent();
  quoted(name);
  buffer_.append(pretty_ ? ": " : ":");
  need_comma_ = false;
  after_key_ = true;
}

void JsonWriter::separator() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (need_comma_) buffer_ += ',';
  if (pretty_ && !scopes_.empty() && scopes_.back() == Scope::kArray) newline_indent();
}

void JsonWriter::newline_indent() {
  buffer_ += '\n';
  buffer_.append(2 * scopes_.size(), ' ');
}

void JsonWriter::quoted(std::string_view text) {
  buffer_ += '"';
  append_escaped(buffer_, text);
  buffer_ += '"';
}

void JsonWriter::value(std::string_view text) {
  separator();
  quoted(text);
  end_value();
}

void JsonWriter::value(bool b) {
  separator();
  buffer_.append(b ? "true" : "false");
  end_value();
}

void JsonWriter::value(std::int64_t n) {
  separator();
  append_integer(buffer_, n);
  end_value();
}

void JsonWriter::value(std::uint64_t n) {
  separator();
  append_integer(buffer_, n);
  end_value();
}

void JsonWriter::value(double d) {
  separator();
  if (std::isfinite(d)) {
    // Shortest decimal form that parses back to exactly `d`, so that
    // write → parse → write is the identity (scenario files depend on it).
    char buffer[32];
    for (int precision = 6; precision <= 17; ++precision) {
      std::snprintf(buffer, sizeof(buffer), "%.*g", precision, d);
      if (std::strtod(buffer, nullptr) == d) break;
    }
    buffer_.append(buffer);
  } else {
    buffer_.append("null");  // JSON has no NaN/Inf
  }
  end_value();
}

void JsonWriter::null() {
  separator();
  buffer_.append("null");
  end_value();
}

// ---- JsonValue --------------------------------------------------------------

namespace {

/// Recursive-descent parser over a string_view with line:column tracking.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  /// The first value in the text; with `whole`, nothing may follow it.
  std::expected<JsonValue, std::string> run(bool whole) {
    skip_whitespace();
    auto value = parse_value();
    if (!value || !whole) return value;
    skip_whitespace();
    if (pos_ != text_.size()) return fail("trailing content after document");
    return value;
  }

 private:
  static constexpr int kMaxDepth = 128;

  [[nodiscard]] std::unexpected<std::string> fail(std::string message) const {
    std::size_t line = 1;
    std::size_t column = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        column = 1;
      } else {
        ++column;
      }
    }
    return std::unexpected(std::to_string(line) + ":" + std::to_string(column) +
                           ": " + std::move(message));
  }

  [[nodiscard]] bool at_end() const noexcept { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const noexcept { return text_[pos_]; }

  void skip_whitespace() {
    while (!at_end()) {
      const char c = peek();
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  std::expected<JsonValue, std::string> parse_value() {
    if (at_end()) return fail("unexpected end of input");
    if (depth_ > kMaxDepth) return fail("nesting deeper than 128 levels");
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': {
        auto text = parse_string();
        if (!text) return std::unexpected(std::move(text).error());
        return JsonValue::make_string(std::move(*text));
      }
      case 't':
        if (consume_literal("true")) return JsonValue::make_bool(true);
        return fail("invalid literal (expected 'true')");
      case 'f':
        if (consume_literal("false")) return JsonValue::make_bool(false);
        return fail("invalid literal (expected 'false')");
      case 'n':
        if (consume_literal("null")) return JsonValue::make_null();
        return fail("invalid literal (expected 'null')");
      default: return parse_number();
    }
  }

  std::expected<JsonValue, std::string> parse_object() {
    ++pos_;  // '{'
    ++depth_;
    JsonValue::Object members;
    skip_whitespace();
    if (!at_end() && peek() == '}') {
      ++pos_;
      --depth_;
      return JsonValue::make_object(std::move(members));
    }
    while (true) {
      skip_whitespace();
      if (at_end() || peek() != '"') return fail("expected '\"' to start object key");
      auto key = parse_string();
      if (!key) return std::unexpected(std::move(key).error());
      skip_whitespace();
      if (at_end() || peek() != ':') return fail("expected ':' after object key");
      ++pos_;
      skip_whitespace();
      auto value = parse_value();
      if (!value) return value;
      members.emplace_back(std::move(*key), std::move(*value));
      skip_whitespace();
      if (at_end()) return fail("unterminated object");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        --depth_;
        return JsonValue::make_object(std::move(members));
      }
      return fail("expected ',' or '}' in object");
    }
  }

  std::expected<JsonValue, std::string> parse_array() {
    ++pos_;  // '['
    ++depth_;
    JsonValue::Array elements;
    skip_whitespace();
    if (!at_end() && peek() == ']') {
      ++pos_;
      --depth_;
      return JsonValue::make_array(std::move(elements));
    }
    while (true) {
      skip_whitespace();
      auto value = parse_value();
      if (!value) return value;
      elements.push_back(std::move(*value));
      skip_whitespace();
      if (at_end()) return fail("unterminated array");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        --depth_;
        return JsonValue::make_array(std::move(elements));
      }
      return fail("expected ',' or ']' in array");
    }
  }

  std::expected<std::string, std::string> parse_string() {
    ++pos_;  // opening quote
    std::string out;
    while (true) {
      if (at_end()) return fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        --pos_;
        return fail("unescaped control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (at_end()) return fail("unterminated escape sequence");
      const char escape = text_[pos_++];
      switch (escape) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return fail("invalid hex digit in \\u escape");
            }
          }
          // UTF-8 encode the BMP code point (surrogate pairs unsupported —
          // scenario files are ASCII in practice).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xc0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
          } else {
            out.push_back(static_cast<char>(0xe0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
          }
          break;
        }
        default: return fail("invalid escape character");
      }
    }
  }

  std::expected<JsonValue, std::string> parse_number() {
    const std::size_t start = pos_;
    bool integral = true;
    if (!at_end() && peek() == '-') ++pos_;
    if (at_end() || !std::isdigit(static_cast<unsigned char>(peek()))) {
      pos_ = start;
      return fail("invalid value");
    }
    const std::size_t int_part = pos_;
    while (!at_end() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    if (text_[int_part] == '0' && pos_ - int_part > 1) {
      return fail("leading zeros are not allowed");  // RFC 8259
    }
    if (!at_end() && peek() == '.') {
      integral = false;
      ++pos_;
      if (at_end() || !std::isdigit(static_cast<unsigned char>(peek()))) {
        return fail("digit expected after decimal point");
      }
      while (!at_end() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (!at_end() && (peek() == 'e' || peek() == 'E')) {
      integral = false;
      ++pos_;
      if (!at_end() && (peek() == '+' || peek() == '-')) ++pos_;
      if (at_end() || !std::isdigit(static_cast<unsigned char>(peek()))) {
        return fail("digit expected in exponent");
      }
      while (!at_end() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    const std::string lexeme(text_.substr(start, pos_ - start));
    if (integral) {
      const bool negative = lexeme[0] == '-';
      errno = 0;
      char* end = nullptr;
      const std::uint64_t magnitude =
          std::strtoull(negative ? lexeme.c_str() + 1 : lexeme.c_str(), &end, 10);
      const auto int64_min_magnitude =
          static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max()) + 1;
      if (errno == 0 && end != nullptr && *end == '\0') {
        if (!negative) return JsonValue::make_unsigned(magnitude);
        if (magnitude <= int64_min_magnitude) {
          return JsonValue::make_integer(
              magnitude == int64_min_magnitude
                  ? std::numeric_limits<std::int64_t>::min()
                  : -static_cast<std::int64_t>(magnitude));
        }
      }
      // Out-of-range integers fall back to double semantics.
    }
    const double parsed = std::strtod(lexeme.c_str(), nullptr);
    return JsonValue::make_number(parsed);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

JsonValue::Type JsonValue::type() const noexcept {
  switch (node_.index()) {
    case 0: return Type::kNull;
    case 1: return Type::kBool;
    case 2: return Type::kNumber;
    case 3: return Type::kString;
    case 4: return Type::kArray;
    default: return Type::kObject;
  }
}

std::string_view JsonValue::type_name() const noexcept {
  switch (type()) {
    case Type::kNull: return "null";
    case Type::kBool: return "bool";
    case Type::kNumber: return "number";
    case Type::kString: return "string";
    case Type::kArray: return "array";
    case Type::kObject: return "object";
  }
  return "?";
}

bool JsonValue::as_bool() const {
  assert(is_bool());
  return std::get<bool>(node_);
}

double JsonValue::as_double() const {
  assert(is_number());
  return std::get<Number>(node_).value;
}

const std::string& JsonValue::as_string() const {
  assert(is_string());
  return std::get<std::string>(node_);
}

const JsonValue::Array& JsonValue::as_array() const {
  assert(is_array());
  return std::get<Array>(node_);
}

const JsonValue::Object& JsonValue::as_object() const {
  assert(is_object());
  return std::get<Object>(node_);
}

bool JsonValue::is_integer() const noexcept {
  return is_number() && std::get<Number>(node_).integral;
}

std::optional<std::int64_t> JsonValue::as_int64() const {
  if (!is_integer()) return std::nullopt;
  const Number& number = std::get<Number>(node_);
  if (number.negative) {
    const auto limit = static_cast<std::uint64_t>(
                           std::numeric_limits<std::int64_t>::max()) +
                       1;
    if (number.magnitude > limit) return std::nullopt;
    if (number.magnitude == limit) return std::numeric_limits<std::int64_t>::min();
    return -static_cast<std::int64_t>(number.magnitude);
  }
  if (number.magnitude >
      static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max())) {
    return std::nullopt;
  }
  return static_cast<std::int64_t>(number.magnitude);
}

std::optional<std::uint64_t> JsonValue::as_uint64() const {
  if (!is_integer()) return std::nullopt;
  const Number& number = std::get<Number>(node_);
  if (number.negative && number.magnitude != 0) return std::nullopt;
  return number.magnitude;
}

const JsonValue* JsonValue::find(std::string_view key) const noexcept {
  if (!is_object()) return nullptr;
  for (const Member& member : std::get<Object>(node_)) {
    if (member.first == key) return &member.second;
  }
  return nullptr;
}

JsonValue JsonValue::make_bool(bool b) {
  JsonValue value;
  value.node_ = b;
  return value;
}

JsonValue JsonValue::make_number(double d) {
  JsonValue value;
  Number number;
  number.value = d;
  value.node_ = number;
  return value;
}

JsonValue JsonValue::make_integer(std::int64_t n) {
  JsonValue value;
  Number number;
  number.value = static_cast<double>(n);
  number.integral = true;
  number.negative = n < 0;
  number.magnitude = n < 0 ? ~static_cast<std::uint64_t>(n) + 1
                           : static_cast<std::uint64_t>(n);
  value.node_ = number;
  return value;
}

JsonValue JsonValue::make_unsigned(std::uint64_t n) {
  JsonValue value;
  Number number;
  number.value = static_cast<double>(n);
  number.integral = true;
  number.negative = false;
  number.magnitude = n;
  value.node_ = number;
  return value;
}

JsonValue JsonValue::make_string(std::string s) {
  JsonValue value;
  value.node_ = std::move(s);
  return value;
}

JsonValue JsonValue::make_array(Array a) {
  JsonValue value;
  value.node_ = std::move(a);
  return value;
}

JsonValue JsonValue::make_object(Object o) {
  JsonValue value;
  value.node_ = std::move(o);
  return value;
}

std::expected<JsonValue, std::string> JsonValue::parse(std::string_view text) {
  return Parser(text).run(/*whole=*/true);
}

std::expected<JsonValue, std::string> JsonValue::parse_first(std::string_view text) {
  return Parser(text).run(/*whole=*/false);
}

}  // namespace ipfs::common
