#include "scenario/scenario_spec.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <span>
#include <sstream>
#include <type_traits>
#include <utility>
#include <variant>

namespace ipfs::scenario {

/// The checked-in scenarios/*.json files as (file name, contents) pairs in
/// file-name order.  The build generates the definition from the files
/// themselves (cmake/embed_scenarios.cmake).
std::span<const std::pair<std::string_view, std::string_view>>
embedded_scenario_files();

using common::JsonValue;
using common::JsonWriter;
using common::SimDuration;

namespace {

/// Parse-stage error: nullopt means the extraction succeeded.
using ParseError = std::optional<std::string>;

std::string join(const std::string& path, std::string_view key) {
  return path.empty() ? std::string(key) : path + "." + std::string(key);
}

ParseError expect_object(const JsonValue& value, const std::string& path) {
  if (value.is_object()) return std::nullopt;
  return path + ": expected an object, got " + std::string(value.type_name());
}

// ---- scalar fields ----------------------------------------------------------
// One reader per member type, so a field list dispatches on the type of the
// member it names.  `SimDuration` members are integer milliseconds (the
// library's SimTime unit), so specs round-trip without floating-point drift.

ParseError read(const JsonValue& value, const std::string& path, bool& out) {
  if (!value.is_bool()) return path + ": expected true or false";
  out = value.as_bool();
  return std::nullopt;
}

ParseError read(const JsonValue& value, const std::string& path, double& out) {
  if (!value.is_number()) return path + ": expected a number";
  out = value.as_double();
  return std::nullopt;
}

ParseError read(const JsonValue& value, const std::string& path, std::string& out) {
  if (!value.is_string()) return path + ": expected a string";
  out = value.as_string();
  return std::nullopt;
}

ParseError read(const JsonValue& value, const std::string& path,
                std::uint64_t& out) {
  const auto parsed = value.as_uint64();
  if (!parsed) return path + ": expected a non-negative integer";
  out = *parsed;
  return std::nullopt;
}

ParseError read(const JsonValue& value, const std::string& path,
                std::uint32_t& out) {
  const auto parsed = value.as_uint64();
  if (!parsed || *parsed > 0xffffffffULL) {
    return path + ": expected an integer in [0, 2^32)";
  }
  out = static_cast<std::uint32_t>(*parsed);
  return std::nullopt;
}

ParseError read(const JsonValue& value, const std::string& path, int& out) {
  const auto parsed = value.as_int64();
  if (!parsed || *parsed < std::numeric_limits<int>::min() ||
      *parsed > std::numeric_limits<int>::max()) {
    return path + ": expected an integer";
  }
  out = static_cast<int>(*parsed);
  return std::nullopt;
}

ParseError read(const JsonValue& value, const std::string& path,
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
// Each record's schema is written once, as a list of (key, member) pairs in
// schema order.  That one list drives the strict key check, parsing and
// `to_json`, so the three cannot drift apart.

/// A field with its own reader and writer: enums with bespoke messages,
/// sub-objects, arrays and per-category maps.
template <class T>
struct Custom {
  ParseError (*read)(const JsonValue& value, const std::string& path, T& out);
  /// Writes the key and value, or nothing for a field left unset.
  void (*write)(JsonWriter& writer, std::string_view key, const T& in);
};

template <class T>
struct Field {
  using Owner = T;
  std::string_view key;
  std::variant<bool T::*, int T::*, std::uint32_t T::*, std::uint64_t T::*,
               double T::*, std::string T::*, SimDuration T::*, Custom<T>>
      member;
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
/// error — typos fail `ipfs_sim validate` instead of being ignored, and a
/// repeated key cannot silently shadow the other.
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
    if (member == nullptr) continue;
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
  using Element = typename MemberOf<decltype(kMember)>::Value::value_type;
  return Custom<Owner>{
      [](const JsonValue& value, const std::string& path, Owner& out) -> ParseError {
        if (!value.is_array()) return path + ": expected an array";
        for (std::size_t i = 0; i < value.as_array().size(); ++i) {
          Element element;
          if (auto error = read_schema<kSchema>(
                  value.as_array()[i], path + "[" + std::to_string(i) + "]",
                  element)) {
            return error;
          }
          (out.*kMember).push_back(std::move(element));
        }
        return std::nullopt;
      },
      [](JsonWriter& writer, std::string_view key, const Owner& in) {
        writer.key(key);
        writer.begin_array();
        for (const Element& element : in.*kMember) {
          write_schema<kSchema>(writer, element);
        }
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

/// Reads a `{"<category name>": entry, ...}` map, handing each entry to
/// `read_entry(entry, entry_path, category)`.
template <class ReadEntry>
ParseError read_categories(const JsonValue& value, const std::string& path,
                           ReadEntry read_entry) {
  if (auto error = expect_object(value, path)) return error;
  for (const JsonValue::Member& member : value.as_object()) {
    const auto category = category_from_string(member.first);
    if (!category) {
      return path + ": unknown category name '" + member.first + "'";
    }
    if (auto error = read_entry(member.second, join(path, member.first), *category)) {
      return error;
    }
  }
  return std::nullopt;
}

/// Writes per-category entries as a `{"<category name>": {...}, ...}` map.
template <class Entry>
void write_categories(JsonWriter& writer, std::string_view key,
                      const std::vector<Entry>& entries,
                      std::type_identity_t<Fields<Entry>> fields) {
  writer.key(key);
  writer.begin_object();
  for (const Entry& entry : entries) {
    writer.key(to_string(entry.category));
    write_record<Entry>(writer, fields, entry);
  }
  writer.end_object();
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
/// field list, so only the writer has work left.
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
ParseError read_discriminator(const JsonValue& value, std::string_view key,
                              const std::string& path, std::string& out) {
  const JsonValue* member = value.find(key);
  return member == nullptr ? std::nullopt : read(*member, join(path, key), out);
}

// ---- "period" (PeriodSpec) --------------------------------------------------

constexpr Custom<PeriodSpec> kGoIpfsMode{
    [](const JsonValue& value, const std::string& path,
       PeriodSpec& out) -> ParseError {
      std::string mode;
      if (auto error = read(value, path, mode)) return error;
      if (mode == "server") {
        out.go_ipfs_mode = dht::Mode::kServer;
      } else if (mode == "client") {
        out.go_ipfs_mode = dht::Mode::kClient;
      } else if (!mode.empty()) {
        return path + ": expected \"server\" or \"client\"";
      }
      return std::nullopt;
    },
    [](JsonWriter& writer, std::string_view key, const PeriodSpec& in) {
      writer.field(key, in.go_ipfs_mode == dht::Mode::kServer ? "server" : "client");
    }};

constexpr Field<PeriodSpec> kGoIpfsFields[] = {
    {"present", &PeriodSpec::go_ipfs_present},
    {"mode", kGoIpfsMode},
    {"low_water", &PeriodSpec::go_low_water},
    {"high_water", &PeriodSpec::go_high_water},
};

constexpr Field<PeriodSpec> kHydraFields[] = {
    {"heads", &PeriodSpec::hydra_heads},
    {"low_water", &PeriodSpec::hydra_low_water},
    {"high_water", &PeriodSpec::hydra_high_water},
};

constexpr Field<PeriodSpec> kPeriodFields[] = {
    {"name", &PeriodSpec::name},
    {"dates", &PeriodSpec::dates},
    {"duration_ms", &PeriodSpec::duration},
    {"go_ipfs", nested<kGoIpfsFields>()},
    {"hydra", nested<kHydraFields>()},
};

// ---- "population" (PopulationSpec) ------------------------------------------

constexpr Field<PopulationCounts> kCountsFields[] = {
    {"hydra_heads", &PopulationCounts::hydra_heads},
    {"core_servers", &PopulationCounts::core_servers},
    {"core_clients", &PopulationCounts::core_clients},
    {"normal_users", &PopulationCounts::normal_users},
    {"light_servers", &PopulationCounts::light_servers},
    {"disguised_storm", &PopulationCounts::disguised_storm},
    {"light_clients", &PopulationCounts::light_clients},
    {"crawlers", &PopulationCounts::crawlers},
    {"one_time_per_day", &PopulationCounts::one_time_per_day},
    {"ephemeral_per_day", &PopulationCounts::ephemeral_per_day},
    {"rotating_pids_per_day", &PopulationCounts::rotating_pids_per_day},
    {"ethereum_nodes", &PopulationCounts::ethereum_nodes},
    {"nat_groups", &PopulationCounts::nat_groups},
    {"nat_group_min", &PopulationCounts::nat_group_min},
    {"nat_group_max", &PopulationCounts::nat_group_max},
};

constexpr Custom<CategoryParams> kSessionKind{
    [](const JsonValue& value, const std::string& path,
       CategoryParams& out) -> ParseError {
      std::string session;
      if (auto error = read(value, path, session)) return error;
      if (session.empty()) return std::nullopt;
      const auto kind = session_kind_from_string(session);
      if (!kind) {
        return path + ": expected \"always-on\", \"recurring\" or \"one-shot\"";
      }
      out.session = *kind;
      return std::nullopt;
    },
    [](JsonWriter& writer, std::string_view key, const CategoryParams& in) {
      writer.field(key, to_string(in.session));
    }};

constexpr Field<CategoryParams> kCategoryFields[] = {
    {"session", kSessionKind},
    {"mean_session_ms", &CategoryParams::mean_session},
    {"mean_gap_ms", &CategoryParams::mean_gap},
    {"dht_server", &CategoryParams::dht_server},
    {"maintain_probability", &CategoryParams::maintain_probability},
    {"retention_mean_ms", &CategoryParams::retention_mean},
    {"queries_per_hour", &CategoryParams::queries_per_hour},
    {"query_duration_median_ms", &CategoryParams::query_duration_median},
    {"reconnect_after_trim", &CategoryParams::reconnect_after_trim},
    {"reconnect_backoff_mean_ms", &CategoryParams::reconnect_backoff_mean},
    {"crawl_visibility", &CategoryParams::crawl_visibility},
};

constexpr Custom<PopulationSpec> kCategoryOverrides{
    [](const JsonValue& value, const std::string& path, PopulationSpec& out) {
      return read_categories(
          value, path,
          [&](const JsonValue& entry, const std::string& entry_path,
              Category category) -> ParseError {
            if (out.overrides[static_cast<std::size_t>(category)]) {
              return entry_path + ": duplicate category override";
            }
            // Absent fields keep the calibrated value.
            CategoryParams params = default_params(category);
            if (auto error = read_record<CategoryParams>(entry, entry_path,
                                                         kCategoryFields, params)) {
              return error;
            }
            params.category = category;
            out.set_override(category, params);
            return std::nullopt;
          });
    },
    [](JsonWriter& writer, std::string_view key, const PopulationSpec& in) {
      writer.key(key);
      writer.begin_object();
      for (std::size_t i = 0; i < kCategoryCount; ++i) {
        if (!in.overrides[i]) continue;
        writer.key(to_string(static_cast<Category>(i)));
        write_record<CategoryParams>(writer, kCategoryFields, *in.overrides[i]);
      }
      writer.end_object();
    }};

constexpr Field<PopulationSpec> kPopulationFields[] = {
    {"scale", &PopulationSpec::scale},
    {"counts", sub_object<&PopulationSpec::counts, kCountsFields>()},
    {"categories", kCategoryOverrides},
};

// ---- "network" (net::ConditionSpec) -----------------------------------------

using net::DisturbanceSpec;

constexpr Field<net::LatencyModel> kLatencyFields[] = {
    {"flat_min_ms", &net::LatencyModel::min_one_way},
    {"flat_max_ms", &net::LatencyModel::max_one_way},
    {"jitter_fraction", &net::LatencyModel::jitter_fraction},
};

constexpr Field<net::ZoneSpec> kZoneFields[] = {
    {"name", &net::ZoneSpec::name},
    {"weight", &net::ZoneSpec::weight},
    {"intra_min_ms", &net::ZoneSpec::intra_min},
    {"intra_max_ms", &net::ZoneSpec::intra_max},
};

constexpr Field<net::DefaultLinkSpec> kDefaultLinkFields[] = {
    {"min_ms", &net::DefaultLinkSpec::min_one_way},
    {"max_ms", &net::DefaultLinkSpec::max_one_way},
};

constexpr Field<net::ZoneLinkSpec> kLinkFields[] = {
    {"from", &net::ZoneLinkSpec::from},
    {"to", &net::ZoneLinkSpec::to},
    {"min_ms", &net::ZoneLinkSpec::min_one_way},
    {"max_ms", &net::ZoneLinkSpec::max_one_way},
};

constexpr Field<net::LossSpec> kLossFields[] = {
    {"dial_failure", &net::LossSpec::dial_failure},
    {"message_loss", &net::LossSpec::message_loss},
};

constexpr Field<net::NatClassSpec> kNatClassFields[] = {
    {"name", &net::NatClassSpec::name},
    {"weight", &net::NatClassSpec::weight},
    {"accepts_inbound", &net::NatClassSpec::accepts_inbound},
};

/// `{"<category name>": "<class name>", ...}`.
constexpr Custom<net::NatSpec> kNatCategories{
    [](const JsonValue& value, const std::string& path, net::NatSpec& out) {
      return read_categories(
          value, path,
          [&](const JsonValue& entry, const std::string& entry_path,
              Category category) -> ParseError {
            if (!entry.is_string()) return entry_path + ": expected a class name";
            out.categories.emplace_back(to_string(category), entry.as_string());
            return std::nullopt;
          });
    },
    [](JsonWriter& writer, std::string_view key, const net::NatSpec& in) {
      writer.key(key);
      writer.begin_object();
      for (const auto& [category, class_name] : in.categories) {
        writer.field(category, class_name);
      }
      writer.end_object();
    }};

constexpr Field<net::NatSpec> kNatFields[] = {
    {"classes", object_array<&net::NatSpec::classes, kNatClassFields>()},
    {"categories", kNatCategories},
};

constexpr Custom<DisturbanceSpec> kPartitionZones{
    [](const JsonValue& value, const std::string& path,
       DisturbanceSpec& out) -> ParseError {
      if (!value.is_array()) return path + ": expected an array of zone names";
      for (const JsonValue& zone : value.as_array()) {
        if (!zone.is_string()) return path + ": expected an array of zone names";
        out.zones.push_back(zone.as_string());
      }
      return std::nullopt;
    },
    [](JsonWriter& writer, std::string_view key, const DisturbanceSpec& in) {
      writer.key(key);
      writer.begin_array();
      for (const std::string& zone : in.zones) writer.value(zone);
      writer.end_array();
    }};

constexpr Field<DisturbanceSpec> kDisturbanceKind[] = {
    {"kind", discriminator<&DisturbanceSpec::kind>()}};
constexpr Field<DisturbanceSpec> kOutageTarget[] = {{"zone", &DisturbanceSpec::zone}};
constexpr Field<DisturbanceSpec> kPartitionTarget[] = {{"zones", kPartitionZones}};
// A degrade's zone is optional ("" = global).
constexpr Field<DisturbanceSpec> kDegradeTarget[] = {
    {"zone", optional_string<&DisturbanceSpec::zone>()}};
constexpr Field<DisturbanceSpec> kWindowFields[] = {
    {"from_ms", &DisturbanceSpec::from},
    {"until_ms", &DisturbanceSpec::until},
    {"period_ms", &DisturbanceSpec::period},
};
constexpr Field<DisturbanceSpec> kDegradeEffect[] = {
    {"latency_factor", &DisturbanceSpec::latency_factor},
    {"extra_loss", &DisturbanceSpec::extra_loss},
};
constexpr auto kOutageFields = concat(kDisturbanceKind, kOutageTarget, kWindowFields);
constexpr auto kPartitionFields =
    concat(kDisturbanceKind, kPartitionTarget, kWindowFields);
constexpr auto kDegradeFields =
    concat(kDisturbanceKind, kDegradeTarget, kWindowFields, kDegradeEffect);

ParseError read_disturbance(const JsonValue& value, const std::string& path,
                            DisturbanceSpec& out) {
  if (auto error = expect_object(value, path)) return error;
  std::string kind;
  if (auto error = read_discriminator(value, "kind", path, kind)) return error;
  const auto parsed_kind = net::disturbance_kind_from_string(kind);
  if (!parsed_kind) {
    return join(path, "kind") + ": expected \"outage\", \"partition\" or \"degrade\"";
  }
  out.kind = *parsed_kind;
  // Key sets are per kind, so e.g. a latency_factor on an outage is a typo
  // caught at validate time, not silently ignored.
  switch (out.kind) {
    case DisturbanceSpec::Kind::kOutage:
      return read_record<DisturbanceSpec>(value, path, kOutageFields, out);
    case DisturbanceSpec::Kind::kPartition:
      return read_record<DisturbanceSpec>(value, path, kPartitionFields, out);
    case DisturbanceSpec::Kind::kDegrade:
      break;
  }
  return read_record<DisturbanceSpec>(value, path, kDegradeFields, out);
}

void write_disturbance(JsonWriter& writer, const DisturbanceSpec& in) {
  switch (in.kind) {
    case DisturbanceSpec::Kind::kOutage:
      return write_record<DisturbanceSpec>(writer, kOutageFields, in);
    case DisturbanceSpec::Kind::kPartition:
      return write_record<DisturbanceSpec>(writer, kPartitionFields, in);
    case DisturbanceSpec::Kind::kDegrade:
      break;
  }
  write_record<DisturbanceSpec>(writer, kDegradeFields, in);
}

constexpr Codec<DisturbanceSpec> kDisturbance{read_disturbance, write_disturbance};

constexpr Field<net::ConditionSpec> kNetworkFields[] = {
    {"latency", sub_object<&net::ConditionSpec::latency, kLatencyFields>()},
    {"symmetric", &net::ConditionSpec::symmetric},
    {"zones", object_array<&net::ConditionSpec::zones, kZoneFields>()},
    {"default_link",
     sub_object<&net::ConditionSpec::default_link, kDefaultLinkFields>()},
    {"links", object_array<&net::ConditionSpec::links, kLinkFields>()},
    {"loss", sub_object<&net::ConditionSpec::loss, kLossFields>()},
    {"nat", sub_object<&net::ConditionSpec::nat, kNatFields>()},
    {"disturbances",
     object_array<&net::ConditionSpec::disturbances, kDisturbance>()},
};

// ---- "churn" (ChurnSpec) ----------------------------------------------------

constexpr Field<SessionDistribution> kDistributionKind[] = {
    {"kind", discriminator<&SessionDistribution::kind>()}};
constexpr Field<SessionDistribution> kExponentialParams[] = {
    {"mean_ms", &SessionDistribution::mean_ms}};
constexpr Field<SessionDistribution> kWeibullParams[] = {
    {"shape", &SessionDistribution::shape},
    {"scale_ms", &SessionDistribution::scale_ms},
};
constexpr Field<SessionDistribution> kLognormalParams[] = {
    {"median_ms", &SessionDistribution::median_ms},
    {"sigma", &SessionDistribution::sigma},
};
constexpr auto kExponentialFields = concat(kDistributionKind, kExponentialParams);
constexpr auto kWeibullFields = concat(kDistributionKind, kWeibullParams);
constexpr auto kLognormalFields = concat(kDistributionKind, kLognormalParams);

Fields<SessionDistribution> distribution_fields(SessionDistribution::Kind kind) {
  switch (kind) {
    case SessionDistribution::Kind::kExponential:
      return kExponentialFields;
    case SessionDistribution::Kind::kWeibull:
      return kWeibullFields;
    case SessionDistribution::Kind::kLognormal:
      break;
  }
  return kLognormalFields;
}

ParseError read_distribution(const JsonValue& value, const std::string& path,
                             SessionDistribution& out) {
  if (auto error = expect_object(value, path)) return error;
  std::string kind;
  if (auto error = read_discriminator(value, "kind", path, kind)) return error;
  const auto parsed_kind = distribution_kind_from_string(kind);
  if (!parsed_kind) {
    return join(path, "kind") +
           ": expected \"exponential\", \"weibull\" or \"lognormal\"";
  }
  // Key sets are per kind, so e.g. a weibull `shape` on an exponential is
  // a typo caught at validate time, not silently ignored.  A parsed
  // distribution replaces `out` whole: no parameter leaks across kinds.
  SessionDistribution parsed;
  parsed.kind = *parsed_kind;
  if (auto error = read_record<SessionDistribution>(
          value, path, distribution_fields(parsed.kind), parsed)) {
    return error;
  }
  out = parsed;
  return std::nullopt;
}

void write_distribution(JsonWriter& writer, const SessionDistribution& in) {
  write_record<SessionDistribution>(writer, distribution_fields(in.kind), in);
}

constexpr Codec<SessionDistribution> kDistribution{read_distribution,
                                                   write_distribution};

constexpr Field<DiurnalSpec> kDiurnalFields[] = {
    {"amplitude", &DiurnalSpec::amplitude},
    {"period_ms", &DiurnalSpec::period},
    {"phase_ms", &DiurnalSpec::phase},
};

constexpr Field<ChurnCategorySpec> kChurnCategoryFields[] = {
    {"session", sub_object<&ChurnCategorySpec::session, kDistribution>()},
    {"gap", sub_object<&ChurnCategorySpec::gap, kDistribution>()},
};

constexpr Custom<ChurnSpec> kChurnCategories{
    [](const JsonValue& value, const std::string& path, ChurnSpec& out) {
      return read_categories(
          value, path,
          [&](const JsonValue& entry, const std::string& entry_path,
              Category category) -> ParseError {
            // Absent fields inherit the spec's top-level distributions.
            ChurnCategorySpec parsed{category, out.session, out.gap};
            if (auto error = read_record<ChurnCategorySpec>(
                    entry, entry_path, kChurnCategoryFields, parsed)) {
              return error;
            }
            out.categories.push_back(std::move(parsed));
            return std::nullopt;
          });
    },
    [](JsonWriter& writer, std::string_view key, const ChurnSpec& in) {
      write_categories<ChurnCategorySpec>(writer, key, in.categories,
                                          kChurnCategoryFields);
    }};

// The top-level distributions precede "categories", which inherits them.
constexpr Field<ChurnSpec> kChurnFields[] = {
    {"session", sub_object<&ChurnSpec::session, kDistribution>()},
    {"gap", sub_object<&ChurnSpec::gap, kDistribution>()},
    {"initial_online", &ChurnSpec::initial_online},
    {"sample_interval_ms", &ChurnSpec::sample_interval},
    {"diurnal", optional_sub_object<&ChurnSpec::diurnal, kDiurnalFields>()},
    {"categories", kChurnCategories},
};

// ---- "content" (ContentSpec) ------------------------------------------------

constexpr Field<ContentCategorySpec> kContentCategoryFields[] = {
    {"publishes_per_peer", &ContentCategorySpec::publishes_per_peer},
    {"fetches_per_hour", &ContentCategorySpec::fetches_per_hour},
};

constexpr Custom<ContentSpec> kContentCategories{
    [](const JsonValue& value, const std::string& path, ContentSpec& out) {
      return read_categories(
          value, path,
          [&](const JsonValue& entry, const std::string& entry_path,
              Category category) -> ParseError {
            // Absent fields inherit the spec's top-level rates.
            ContentCategorySpec parsed{category, out.publishes_per_peer,
                                       out.fetches_per_hour};
            if (auto error = read_record<ContentCategorySpec>(
                    entry, entry_path, kContentCategoryFields, parsed)) {
              return error;
            }
            out.categories.push_back(std::move(parsed));
            return std::nullopt;
          });
    },
    [](JsonWriter& writer, std::string_view key, const ContentSpec& in) {
      write_categories<ContentCategorySpec>(writer, key, in.categories,
                                            kContentCategoryFields);
    }};

// The top-level rates precede "categories", which inherits them.
constexpr Field<ContentSpec> kContentFields[] = {
    {"keys", &ContentSpec::keys},
    {"publishes_per_peer", &ContentSpec::publishes_per_peer},
    {"fetches_per_hour", &ContentSpec::fetches_per_hour},
    {"provider_ttl_ms", &ContentSpec::provider_ttl},
    {"republish_interval_ms", &ContentSpec::republish_interval},
    {"publish_spread_ms", &ContentSpec::publish_spread},
    {"bucket_refresh_interval_ms", &ContentSpec::bucket_refresh_interval},
    {"replacement_cache_size", &ContentSpec::replacement_cache_size},
    {"sample_interval_ms", &ContentSpec::sample_interval},
    {"fetch_success", &ContentSpec::fetch_success},
    {"categories", kContentCategories},
};

// ---- "phases" (PhaseProgramSpec) --------------------------------------------

constexpr Field<PhaseSpec> kPhaseFields[] = {
    {"name", optional_string<&PhaseSpec::name>()},  // "" = unnamed
    {"mode", discriminator<&PhaseSpec::mode>()},
    {"hold_ms", &PhaseSpec::hold},
    {"churn_rate", &PhaseSpec::churn_rate},
    {"fetch_rate", &PhaseSpec::fetch_rate},
    {"publish_rate", &PhaseSpec::publish_rate},
    {"crawl_rate", &PhaseSpec::crawl_rate},
    {"population", &PhaseSpec::population},
};
constexpr Field<PhaseSpec> kBurstParams[] = {
    {"switch_ms", &PhaseSpec::switch_interval}};
constexpr Field<PhaseSpec> kFlashCrowdParams[] = {
    {"hot_key", &PhaseSpec::hot_key},
    {"spike", &PhaseSpec::spike},
    {"hot_fraction", &PhaseSpec::hot_fraction},
};
constexpr auto kBurstFields = concat(kPhaseFields, kBurstParams);
constexpr auto kFlashCrowdFields = concat(kPhaseFields, kFlashCrowdParams);

/// Mode-specific key sets, like the network disturbance kinds: a burst
/// field on a hold phase is a schema error, not dead configuration.
Fields<PhaseSpec> phase_fields(PhaseMode mode) {
  switch (mode) {
    case PhaseMode::kBurst:
      return kBurstFields;
    case PhaseMode::kFlashCrowd:
      return kFlashCrowdFields;
    case PhaseMode::kHold:
    case PhaseMode::kRamp:
      break;
  }
  return kPhaseFields;
}

ParseError read_phase(const JsonValue& value, const std::string& path,
                      PhaseSpec& out) {
  if (auto error = expect_object(value, path)) return error;
  const JsonValue* mode = value.find("mode");
  if (mode == nullptr) return path + ": mode is required";
  if (!mode->is_string()) return join(path, "mode") + ": expected a string";
  const auto parsed_mode = phase_mode_from_string(mode->as_string());
  if (!parsed_mode) {
    return join(path, "mode") +
           ": expected \"hold\", \"ramp\", \"burst\" or \"flash_crowd\"";
  }
  out.mode = *parsed_mode;
  if (auto error = read_record<PhaseSpec>(value, path, phase_fields(out.mode), out)) {
    return error;
  }
  if (out.hold <= 0) return path + ": hold_ms must be > 0";
  if (out.mode == PhaseMode::kBurst && out.switch_interval <= 0) {
    return path + ": switch_ms must be > 0";
  }
  return std::nullopt;
}

void write_phase(JsonWriter& writer, const PhaseSpec& in) {
  write_record<PhaseSpec>(writer, phase_fields(in.mode), in);
}

constexpr Codec<PhaseSpec> kPhase{read_phase, write_phase};

/// Only `"absolute"` is accepted, and written only when acknowledged.
constexpr Custom<PhaseProgramSpec> kDiurnalClock{
    [](const JsonValue& value, const std::string& path,
       PhaseProgramSpec& out) -> ParseError {
      if (!value.is_string() || value.as_string() != "absolute") {
        return path + ": expected \"absolute\"";
      }
      out.diurnal_clock_absolute = true;
      return std::nullopt;
    },
    [](JsonWriter& writer, std::string_view key, const PhaseProgramSpec& in) {
      if (in.diurnal_clock_absolute) writer.field(key, "absolute");
    }};

constexpr Field<PhaseProgramSpec> kPhasesFields[] = {
    {"diurnal_clock", kDiurnalClock},
    {"program", object_array<&PhaseProgramSpec::program, kPhase>()},
};

ParseError read_phases(const JsonValue& value, const std::string& path,
                       PhaseProgramSpec& out) {
  if (auto error = read_record<PhaseProgramSpec>(value, path, kPhasesFields, out)) {
    return error;
  }
  if (value.find("program") == nullptr) return join(path, "program") + ": required";
  // Value-range rules (positivity, population in (0, 1], flash bounds):
  // one source of truth for files and programmatic specs alike.
  return PhaseProgramSpec::validate(out);
}

void write_phases(JsonWriter& writer, const PhaseProgramSpec& in) {
  write_record<PhaseProgramSpec>(writer, kPhasesFields, in);
}

constexpr Codec<PhaseProgramSpec> kPhases{read_phases, write_phases};

// ---- "campaign" and "output" ------------------------------------------------

constexpr Field<CampaignSettings> kCrawlerFields[] = {
    {"enabled", &CampaignSettings::enable_crawler},
    {"interval_ms", &CampaignSettings::crawl_interval},
};

constexpr Field<CampaignSettings> kCampaignFields[] = {
    {"seed", &CampaignSettings::seed},
    {"trials", &CampaignSettings::trials},
    {"workers", &CampaignSettings::workers},
    {"vantage_visibility", &CampaignSettings::vantage_visibility},
    {"crawler", nested<kCrawlerFields>()},
    {"metadata_dynamics", &CampaignSettings::enable_metadata_dynamics},
    {"client_dials_per_hour", &CampaignSettings::client_dials_per_hour},
};

constexpr Custom<OutputSettings> kRoleFilter{
    [](const JsonValue& value, const std::string& path,
       OutputSettings& out) -> ParseError {
      if (value.is_null()) {
        out.role_filter = std::nullopt;
        return std::nullopt;
      }
      if (!value.is_string()) return path + ": expected a string or null";
      const auto role = measure::role_from_string(value.as_string());
      if (!role) {
        return path + ": unknown dataset role '" + value.as_string() + "'";
      }
      out.role_filter = role;
      return std::nullopt;
    },
    [](JsonWriter& writer, std::string_view key, const OutputSettings& in) {
      writer.key(key);
      if (in.role_filter) {
        writer.value(measure::to_string(*in.role_filter));
      } else {
        writer.null();
      }
    }};

constexpr Field<OutputSettings> kOutputFields[] = {
    {"pretty", &OutputSettings::pretty},
    {"include_connections", &OutputSettings::include_connections},
    {"role_filter", kRoleFilter},
};

// ---- the document -----------------------------------------------------------

constexpr Field<ScenarioSpec> kDocumentFields[] = {
    {"name", &ScenarioSpec::name},
    {"description", &ScenarioSpec::description},
    {"period", sub_object<&ScenarioSpec::period, kPeriodFields>()},
    {"population", sub_object<&ScenarioSpec::population, kPopulationFields>()},
    {"network", optional_sub_object<&ScenarioSpec::network, kNetworkFields>()},
    {"churn", optional_sub_object<&ScenarioSpec::churn, kChurnFields>()},
    {"content", optional_sub_object<&ScenarioSpec::content, kContentFields>()},
    {"phases", optional_sub_object<&ScenarioSpec::phases, kPhases>()},
    {"campaign", sub_object<&ScenarioSpec::campaign, kCampaignFields>()},
    {"output", sub_object<&ScenarioSpec::output, kOutputFields>()},
};

/// `from_json` without the validation pass.
std::expected<ScenarioSpec, std::string> parse_document(std::string_view text) {
  auto document = JsonValue::parse(text);
  if (!document) return std::unexpected(std::move(document).error());
  // The root's own errors say "document"; its fields are top-level paths.
  ScenarioSpec spec;
  ParseError error = expect_object(*document, "document");
  if (!error) {
    error = check_fields<ScenarioSpec>(*document, "document", kDocumentFields);
  }
  if (!error) error = read_fields<ScenarioSpec>(*document, "", kDocumentFields, spec);
  if (error) return std::unexpected(std::move(*error));
  return spec;
}

// ---- validation helpers -----------------------------------------------------

std::optional<std::string> validate_category(const CategoryParams& params,
                                             Category category) {
  const std::string prefix =
      "population.categories." + std::string(to_string(category)) + ": ";
  if (params.mean_session < 0) return prefix + "mean_session_ms must be >= 0";
  if (params.mean_gap < 0) return prefix + "mean_gap_ms must be >= 0";
  if (params.retention_mean < 0) return prefix + "retention_mean_ms must be >= 0";
  if (params.query_duration_median < 0) {
    return prefix + "query_duration_median_ms must be >= 0";
  }
  if (params.reconnect_backoff_mean < 0) {
    return prefix + "reconnect_backoff_mean_ms must be >= 0";
  }
  if (params.maintain_probability < 0.0 || params.maintain_probability > 1.0) {
    return prefix + "maintain_probability must be in [0, 1]";
  }
  if (params.crawl_visibility < 0.0 || params.crawl_visibility > 1.0) {
    return prefix + "crawl_visibility must be in [0, 1]";
  }
  if (params.queries_per_hour < 0.0) return prefix + "queries_per_hour must be >= 0";
  if (params.session == SessionKind::kRecurring && params.mean_session <= 0) {
    return prefix + "recurring sessions need mean_session_ms > 0";
  }
  return std::nullopt;
}


}  // namespace

// ---- (de)serialisation ------------------------------------------------------

std::expected<ScenarioSpec, std::string> ScenarioSpec::from_json(
    std::string_view text) {
  auto spec = parse_document(text);
  if (!spec) return spec;
  if (auto error = validate(*spec)) return std::unexpected(std::move(*error));
  return spec;
}

std::expected<ScenarioSpec, std::string> ScenarioSpec::from_file(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::unexpected(path + ": cannot open file");
  std::ostringstream contents;
  contents << in.rdbuf();
  auto spec = from_json(contents.str());
  if (!spec) return std::unexpected(path + ": " + std::move(spec).error());
  return spec;
}

void ScenarioSpec::to_json(JsonWriter& writer) const {
  write_record<ScenarioSpec>(writer, kDocumentFields, *this);
}

std::string ScenarioSpec::to_json_string() const {
  std::ostringstream out;
  JsonWriter writer(out, /*pretty=*/true);
  to_json(writer);
  out << "\n";
  return out.str();
}

// ---- validation -------------------------------------------------------------

std::optional<std::string> ScenarioSpec::validate(const ScenarioSpec& spec) {
  if (spec.name.empty()) return "name must be non-empty";
  if (spec.campaign.trials == 0) return "campaign.trials must be >= 1";
  const PopulationCounts& counts = spec.population.counts;
  if (counts.nat_group_min < 1) {
    return "population.counts.nat_group_min must be >= 1";
  }
  if (counts.nat_group_max < counts.nat_group_min) {
    return "population.counts: nat_group_max must be >= nat_group_min";
  }
  if (counts.disguised_storm > counts.light_servers) {
    return "population.counts: disguised_storm cannot exceed light_servers";
  }
  for (std::size_t i = 0; i < kCategoryCount; ++i) {
    const auto& overridden = spec.population.overrides[i];
    if (!overridden) continue;
    if (overridden->category != static_cast<Category>(i)) {
      return "population.categories." +
             std::string(to_string(static_cast<Category>(i))) +
             ": override stored under the wrong category slot";
    }
    if (auto error = validate_category(*overridden, static_cast<Category>(i))) {
      return error;
    }
  }
  if (spec.network) {
    // `ConditionSpec::validate` (run by the engine check below) treats NAT
    // category keys as opaque; only the scenario layer knows the alphabet.
    for (const auto& [category, class_name] : spec.network->nat.categories) {
      if (!category_from_string(category)) {
        return "network.nat.categories: unknown category name '" + category + "'";
      }
    }
  }
  // Everything the engine itself would refuse (duration, watermarks,
  // visibility, crawl interval, dial rate, scale, network conditions,
  // phase programs) — checked before the horizon rules below so a
  // structurally broken section reports its own error first.
  if (auto error = CampaignEngine::validate(spec.to_campaign_config())) {
    return error;
  }
  // Schedule-fits-horizon rules: a cadence or window that cannot fire
  // within `period.duration` is a broken schedule, not a quiet no-op.
  // This is what `ipfs_sim run --duration` re-validates after shortening
  // the horizon, so truncated schedules fail loudly with the field that
  // no longer fits.
  if (spec.churn && spec.churn->sample_interval > spec.period.duration) {
    return "churn.sample_interval_ms: exceeds period.duration_ms — no "
           "population sample would ever fire";
  }
  if (spec.content) {
    if (spec.content->sample_interval > spec.period.duration) {
      return "content.sample_interval_ms: exceeds period.duration_ms — no "
             "content sample would ever fire";
    }
    if (spec.content->republish_interval > spec.period.duration) {
      return "content.republish_interval_ms: exceeds period.duration_ms — no "
             "republish cycle would ever fire";
    }
  }
  if (spec.network) {
    for (std::size_t i = 0; i < spec.network->disturbances.size(); ++i) {
      if (spec.network->disturbances[i].from >= spec.period.duration) {
        return "network.disturbances[" + std::to_string(i) +
               "].from_ms: begins at or after period.duration_ms — the "
               "window would never open";
      }
    }
  }
  return std::nullopt;
}

// ---- execution --------------------------------------------------------------

CampaignConfig ScenarioSpec::to_campaign_config() const {
  CampaignConfig config;
  config.period = period;
  config.population = population;
  config.seed = campaign.seed;
  config.vantage_visibility = campaign.vantage_visibility;
  config.enable_crawler = campaign.enable_crawler;
  config.crawl_interval = campaign.crawl_interval;
  config.enable_metadata_dynamics = campaign.enable_metadata_dynamics;
  config.client_dials_per_hour = campaign.client_dials_per_hour;
  config.conditions = network;
  config.churn = churn;
  config.content = content;
  config.phases = phases;
  return config;
}

std::vector<std::uint64_t> ScenarioSpec::trial_seeds() const {
  std::vector<std::uint64_t> seeds;
  seeds.reserve(campaign.trials);
  for (std::uint32_t i = 0; i < campaign.trials; ++i) {
    seeds.push_back(campaign.seed + i);
  }
  return seeds;
}

// ---- builtins ---------------------------------------------------------------

const std::vector<ScenarioSpec>& ScenarioSpec::builtins() {
  static const std::vector<ScenarioSpec> kBuiltins = [] {
    std::vector<ScenarioSpec> all;
    for (const auto& [file_name, text] : embedded_scenario_files()) {
      // Parsed, not validated: validation builds a CampaignConfig, whose
      // default period is a builtin.  The tests validate every builtin.
      auto spec = parse_document(text);
      if (!spec) {
        std::fprintf(stderr, "builtin scenario scenarios/%.*s: %s\n",
                     static_cast<int>(file_name.size()), file_name.data(),
                     spec.error().c_str());
        std::abort();
      }
      all.push_back(std::move(*spec));
    }
    return all;
  }();
  return kBuiltins;
}

std::optional<ScenarioSpec> ScenarioSpec::builtin(std::string_view name) {
  for (const ScenarioSpec& spec : builtins()) {
    if (spec.name == name) return spec;
  }
  return std::nullopt;
}

}  // namespace ipfs::scenario
