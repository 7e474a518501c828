// Strict JSON records from field lists (DESIGN.md §8).
//
// Each record's schema is written once, as a list of (key, member) pairs in
// schema order.  That one list drives the strict key check (unknown and
// repeated keys are errors), parsing, required-field checks and writing, so
// the four cannot drift apart.  Every error carries the field path
// ("network.disturbances[2].zones[0]: expected a string").
//
// The program's two documents are read and written this way: scenario
// files (`scenario::ScenarioSpec`) and the peer-record dataset document
// (`measure::Dataset::export_json` writes it, `measure::read_dataset` reads
// it back, and `analysis::calibrate` reads measured traces through it).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "common/json.hpp"
#include "common/sim_time.hpp"

namespace ipfs::common::json_schema {

/// Parse-stage error: nullopt means the extraction succeeded.
using ParseError = std::optional<std::string>;

inline std::string join(const std::string& path, std::string_view key) {
  return path.empty() ? std::string(key) : path + "." + std::string(key);
}

inline ParseError expect_object(const JsonValue& value, const std::string& path) {
  if (value.is_object()) return std::nullopt;
  return path + ": expected an object, got " + std::string(value.type_name());
}

// ---- scalar fields ----------------------------------------------------------
// One reader per member type, so a field list dispatches on the type of the
// member it names.  `SimDuration` members are integer milliseconds (the
// library's SimTime unit), so specs round-trip without floating-point drift.

inline ParseError read(const JsonValue& value, const std::string& path, bool& out) {
  if (!value.is_bool()) return path + ": expected true or false";
  out = value.as_bool();
  return std::nullopt;
}

inline ParseError read(const JsonValue& value, const std::string& path, double& out) {
  if (!value.is_number()) return path + ": expected a number";
  out = value.as_double();
  return std::nullopt;
}

inline ParseError read(const JsonValue& value, const std::string& path,
                       std::string& out) {
  if (!value.is_string()) return path + ": expected a string";
  out = value.as_string();
  return std::nullopt;
}

/// A view into the parsed document: valid while the document lives.
inline ParseError read(const JsonValue& value, const std::string& path,
                       std::string_view& out) {
  if (!value.is_string()) return path + ": expected a string";
  out = value.as_string();
  return std::nullopt;
}

inline ParseError read(const JsonValue& value, const std::string& path,
                       std::uint64_t& out) {
  const auto parsed = value.as_uint64();
  if (!parsed) return path + ": expected a non-negative integer";
  out = *parsed;
  return std::nullopt;
}

inline ParseError read(const JsonValue& value, const std::string& path,
                       std::uint32_t& out) {
  const auto parsed = value.as_uint64();
  if (!parsed || *parsed > 0xffffffffULL) {
    return path + ": expected an integer in [0, 2^32)";
  }
  out = static_cast<std::uint32_t>(*parsed);
  return std::nullopt;
}

inline ParseError read(const JsonValue& value, const std::string& path, int& out) {
  const auto parsed = value.as_int64();
  if (!parsed || *parsed < std::numeric_limits<int>::min() ||
      *parsed > std::numeric_limits<int>::max()) {
    return path + ": expected an integer";
  }
  out = static_cast<int>(*parsed);
  return std::nullopt;
}

inline ParseError read(const JsonValue& value, const std::string& path,
                       SimDuration& out) {
  const auto parsed = value.as_int64();
  if (!parsed) return path + ": expected an integer number of milliseconds";
  out = *parsed;
  return std::nullopt;
}

template <class V>
void write(JsonWriter& writer, const V& value) {
  if constexpr (std::is_same_v<V, std::uint32_t>) {
    writer.value(static_cast<std::uint64_t>(value));
  } else {
    writer.value(value);
  }
}

// ---- field lists ------------------------------------------------------------

/// A field with its own reader and writer: enums with bespoke messages,
/// sub-objects, arrays and per-category maps.
template <class T>
struct Custom {
  ParseError (*read)(const JsonValue& value, const std::string& path, T& out);
  /// Writes the key and value, or nothing for a field left unset.
  void (*write)(JsonWriter& writer, std::string_view key, const T& in);
};

/// The third entry of a field that must be present:
/// `{"pid", &PeerDoc::pid, kRequired}`.
inline constexpr bool kRequired = true;

template <class T>
struct Field {
  using Owner = T;
  std::string_view key;
  std::variant<bool T::*, int T::*, std::uint32_t T::*, std::uint64_t T::*,
               double T::*, std::string T::*, std::string_view T::*,
               SimDuration T::*, Custom<T>>
      member;
  /// Absent is an error ("<path>: missing required field"), not a default.
  bool required = false;
};

template <class T>
using Fields = std::span<const Field<T>>;

/// A record read and written by hand: one whose field list depends on a
/// discriminator ("kind", "mode"), or that checks rules across fields.
template <class T>
struct Codec {
  ParseError (*read)(const JsonValue& value, const std::string& path, T& out);
  void (*write)(JsonWriter& writer, const T& in);
};

/// Strict schemas: a member not in `fields`, or one given twice, is an
/// error — typos fail instead of being ignored, and a repeated key cannot
/// silently shadow the other.
template <class T>
ParseError check_fields(const JsonValue& value, const std::string& path,
                        std::type_identity_t<Fields<T>> fields) {
  const JsonValue::Object& members = value.as_object();
  for (auto member = members.begin(); member != members.end(); ++member) {
    const std::string& name = member->first;
    if (std::ranges::none_of(
            fields, [&](const Field<T>& field) { return field.key == name; })) {
      return path + ": unknown field '" + name + "'";
    }
    if (std::any_of(members.begin(), member, [&](const JsonValue::Member& earlier) {
          return earlier.first == name;
        })) {
      return path + ": duplicate field '" + name + "'";
    }
  }
  return std::nullopt;
}

/// Reads the present `fields` of an already-checked object, in list order.
template <class T>
ParseError read_fields(const JsonValue& value, const std::string& path,
                       std::type_identity_t<Fields<T>> fields, T& out) {
  for (const Field<T>& field : fields) {
    const JsonValue* member = value.find(field.key);
    if (member == nullptr) {
      if (field.required) return join(path, field.key) + ": missing required field";
      continue;
    }
    const std::string field_path = join(path, field.key);
    ParseError error = std::visit(
        [&]<class M>(const M& m) -> ParseError {
          if constexpr (std::is_same_v<M, Custom<T>>) {
            return m.read(*member, field_path, out);
          } else {
            return read(*member, field_path, out.*m);
          }
        },
        field.member);
    if (error) return error;
  }
  return std::nullopt;
}

template <class T>
ParseError read_record(const JsonValue& value, const std::string& path,
                       std::type_identity_t<Fields<T>> fields, T& out) {
  if (auto error = expect_object(value, path)) return error;
  if (auto error = check_fields<T>(value, path, fields)) return error;
  return read_fields<T>(value, path, fields, out);
}

/// A whole document: the root's own errors name it (`name`), and its
/// fields are top-level paths.
template <class T>
ParseError read_document(const JsonValue& value, const std::string& name,
                         std::type_identity_t<Fields<T>> fields, T& out) {
  if (auto error = expect_object(value, name)) return error;
  if (auto error = check_fields<T>(value, name, fields)) return error;
  return read_fields<T>(value, "", fields, out);
}

template <class T>
void write_record(JsonWriter& writer, std::type_identity_t<Fields<T>> fields,
                  const T& in) {
  writer.begin_object();
  for (const Field<T>& field : fields) {
    std::visit(
        [&]<class M>(const M& m) {
          if constexpr (std::is_same_v<M, Custom<T>>) {
            m.write(writer, field.key, in);
          } else {
            writer.key(field.key);
            write(writer, in.*m);
          }
        },
        field.member);
  }
  writer.end_object();
}

/// Concatenates field lists, for variant records whose kinds share fields.
template <class T, std::size_t... N>
constexpr std::array<Field<T>, (N + ...)> concat(const Field<T> (&... lists)[N]) {
  std::array<Field<T>, (N + ...)> all{};
  auto next = all.begin();
  ((next = std::ranges::copy(lists, next).out), ...);
  return all;
}

// A schema is a field list or a Codec.
template <const auto& kSchema, class T>
ParseError read_schema(const JsonValue& value, const std::string& path, T& out) {
  if constexpr (requires { kSchema.read; }) {
    return kSchema.read(value, path, out);
  } else {
    return read_record<T>(value, path, kSchema, out);
  }
}

template <const auto& kSchema, class T>
void write_schema(JsonWriter& writer, const T& in) {
  if constexpr (requires { kSchema.write; }) {
    kSchema.write(writer, in);
  } else {
    write_record<T>(writer, kSchema, in);
  }
}

/// `[{...}, ...]`, each element read by `kSchema`, appended to `out`.
template <const auto& kSchema, class Element>
ParseError read_array(const JsonValue& value, const std::string& path,
                      std::vector<Element>& out) {
  if (!value.is_array()) return path + ": expected an array";
  for (std::size_t i = 0; i < value.as_array().size(); ++i) {
    Element element;
    if (auto error = read_schema<kSchema>(
            value.as_array()[i], path + "[" + std::to_string(i) + "]", element)) {
      return error;
    }
    out.push_back(std::move(element));
  }
  return std::nullopt;
}

template <const auto& kSchema, class Element>
void write_array(JsonWriter& writer, const std::vector<Element>& in) {
  writer.begin_array();
  for (const Element& element : in) write_schema<kSchema>(writer, element);
  writer.end_array();
}

template <class M>
struct MemberOf;
template <class C, class V>
struct MemberOf<V C::*> {
  using Owner = C;
  using Value = V;
};

/// `"key": {...}` stored in the member `kMember`.
template <auto kMember, const auto& kSchema>
constexpr auto sub_object() {
  using Owner = typename MemberOf<decltype(kMember)>::Owner;
  return Custom<Owner>{
      [](const JsonValue& value, const std::string& path, Owner& out) {
        return read_schema<kSchema>(value, path, out.*kMember);
      },
      [](JsonWriter& writer, std::string_view key, const Owner& in) {
        writer.key(key);
        write_schema<kSchema>(writer, in.*kMember);
      }};
}

/// An optional section: present engages it, and an unengaged one is not
/// written, so files without it round-trip byte-identically.
template <auto kMember, const auto& kSchema>
constexpr auto optional_sub_object() {
  using Owner = typename MemberOf<decltype(kMember)>::Owner;
  return Custom<Owner>{
      [](const JsonValue& value, const std::string& path, Owner& out) {
        return read_schema<kSchema>(value, path, (out.*kMember).emplace());
      },
      [](JsonWriter& writer, std::string_view key, const Owner& in) {
        if (!(in.*kMember)) return;
        writer.key(key);
        write_schema<kSchema>(writer, *(in.*kMember));
      }};
}

/// `"key": [{...}, ...]` stored in the vector member `kMember`.
template <auto kMember, const auto& kSchema>
constexpr auto object_array() {
  using Owner = typename MemberOf<decltype(kMember)>::Owner;
  return Custom<Owner>{
      [](const JsonValue& value, const std::string& path, Owner& out) {
        return read_array<kSchema>(value, path, out.*kMember);
      },
      [](JsonWriter& writer, std::string_view key, const Owner& in) {
        writer.key(key);
        write_array<kSchema>(writer, in.*kMember);
      }};
}

/// `"key": ["...", ...]` stored in the vector member `kMember`, each
/// element read and written as its scalar type (`std::string` for names).
template <auto kMember>
constexpr auto scalar_array() {
  using Owner = typename MemberOf<decltype(kMember)>::Owner;
  using Element = typename MemberOf<decltype(kMember)>::Value::value_type;
  return Custom<Owner>{
      [](const JsonValue& value, const std::string& path, Owner& out) -> ParseError {
        if (!value.is_array()) return path + ": expected an array";
        for (std::size_t i = 0; i < value.as_array().size(); ++i) {
          Element element;
          if (auto error = read(value.as_array()[i],
                                path + "[" + std::to_string(i) + "]", element)) {
            return error;
          }
          (out.*kMember).push_back(std::move(element));
        }
        return std::nullopt;
      },
      [](JsonWriter& writer, std::string_view key, const Owner& in) {
        writer.key(key);
        writer.begin_array();
        for (const Element& element : in.*kMember) write(writer, element);
        writer.end_array();
      }};
}

/// A sub-object whose fields are members of the enclosing record itself
/// (period.go_ipfs, campaign.crawler).
template <const auto& kFields>
constexpr auto nested() {
  using Owner = typename std::remove_cvref_t<decltype(kFields[0])>::Owner;
  return Custom<Owner>{
      [](const JsonValue& value, const std::string& path, Owner& out) {
        return read_record<Owner>(value, path, kFields, out);
      },
      [](JsonWriter& writer, std::string_view key, const Owner& in) {
        writer.key(key);
        write_record<Owner>(writer, kFields, in);
      }};
}

/// A string that may be left empty, and then is not written.
template <auto kMember>
constexpr auto optional_string() {
  using Owner = typename MemberOf<decltype(kMember)>::Owner;
  return Custom<Owner>{
      [](const JsonValue& value, const std::string& path, Owner& out) {
        return read(value, path, out.*kMember);
      },
      [](JsonWriter& writer, std::string_view key, const Owner& in) {
        if (!(in.*kMember).empty()) writer.field(key, in.*kMember);
      }};
}

/// The discriminator entry of a variant record: its reader picked the
/// field list, so only the writer has work left.  The member's enum needs
/// a `to_string` its namespace provides.
template <auto kMember>
constexpr auto discriminator() {
  using Owner = typename MemberOf<decltype(kMember)>::Owner;
  return Custom<Owner>{
      [](const JsonValue&, const std::string&, Owner&) -> ParseError {
        return std::nullopt;
      },
      [](JsonWriter& writer, std::string_view key, const Owner& in) {
        writer.field(key, to_string(in.*kMember));
      }};
}

/// The discriminator's name: "" when absent, so the unknown-name message
/// covers it too.
inline ParseError read_discriminator(const JsonValue& value, std::string_view key,
                                     const std::string& path, std::string& out) {
  const JsonValue* member = value.find(key);
  return member == nullptr ? std::nullopt : read(*member, join(path, key), out);
}

}  // namespace ipfs::common::json_schema
