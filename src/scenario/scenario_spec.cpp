#include "scenario/scenario_spec.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <sstream>
#include <type_traits>
#include <variant>

#include "scenario/builtin_files.hpp"

namespace ipfs::scenario {

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

// The one enum spelled here rather than beside its type: dht::Mode has no
// other text form.
std::string_view to_string(dht::Mode mode) {
  return mode == dht::Mode::kServer ? "server" : "client";
}

// ---- the field-table codec --------------------------------------------------
//
// Each section of a scenario document is one table of `Field`s: the JSON
// key, the member it lives in, and its kind.  Walking a table checks the
// keys (unknown and duplicate), parses, and emits, so the parser and the
// writer cannot disagree and a new field is one table line.  Value ranges
// are not the codec's business: they stay in the `validate` functions,
// which programmatic specs go through too.

/// An enum member whose values 0..count-1 are spelled by `name`.  Every
/// value must match a spelling exactly, so "" is an error, not a default.
template <typename S>
struct Enum {
  std::size_t count;
  std::string_view (*name)(std::size_t value);
  std::size_t (*get)(const S& in);
  void (*set)(S& out, std::size_t value);
};

/// Any other shape (nested objects, arrays, category maps) as a parse/emit
/// pair.  `emit` writes the key itself, so it can leave a member out.
template <typename S>
struct Custom {
  ParseError (*parse)(const JsonValue& value, const std::string& path, S& out);
  void (*emit)(JsonWriter& writer, std::string_view key, const S& in);
};

/// One JSON member of a section.  The variant alternative is the kind:
/// bool, number, 32- or 64-bit unsigned, int, integer milliseconds,
/// string, enum or custom.
template <typename S>
struct Field {
  std::string_view key;
  std::variant<bool S::*, double S::*, std::uint32_t S::*, std::uint64_t S::*,
               int S::*, SimDuration S::*, std::string S::*, Enum<S>, Custom<S>>
      member;
  bool omit_empty = false;  ///< strings: write no member for ""
};

/// The fields one object may carry: bit i stands for `fields[i]`.
using KeySet = std::uint32_t;
constexpr KeySet kAllKeys = ~KeySet{0};

/// A table whose objects come in kinds.  `fields[selector]` is an enum
/// that is parsed first and picks the key set `kinds[value]`, so a field
/// of another kind (a weibull `shape` on an exponential) is unknown.
template <typename S>
struct Schema {
  using Struct = S;
  std::span<const Field<S>> fields;
  std::span<const KeySet> kinds = {};
  std::size_t selector = 0;
};

template <typename S, std::size_t N>
constexpr Schema<S> schema_of(const Field<S> (&fields)[N]) {
  static_assert(N <= 32, "a KeySet has one bit per field");
  return {fields};
}
template <typename S>
constexpr const Schema<S>& schema_of(const Schema<S>& schema) {
  return schema;
}

template <typename... Fs>
struct Overloaded : Fs... {
  using Fs::operator()...;
};

template <typename S>
ParseError parse_member(const Field<S>& field, const JsonValue& value,
                        const std::string& path, S& out) {
  return std::visit(
      Overloaded{
          [&](bool S::*member) -> ParseError {
            if (!value.is_bool()) return path + ": expected true or false";
            out.*member = value.as_bool();
            return std::nullopt;
          },
          [&](double S::*member) -> ParseError {
            if (!value.is_number()) return path + ": expected a number";
            out.*member = value.as_double();
            return std::nullopt;
          },
          [&](std::uint32_t S::*member) -> ParseError {
            const auto parsed = value.as_uint64();
            if (!parsed || *parsed > std::numeric_limits<std::uint32_t>::max()) {
              return path + ": expected an integer in [0, 2^32)";
            }
            out.*member = static_cast<std::uint32_t>(*parsed);
            return std::nullopt;
          },
          [&](std::uint64_t S::*member) -> ParseError {
            const auto parsed = value.as_uint64();
            if (!parsed) return path + ": expected a non-negative integer";
            out.*member = *parsed;
            return std::nullopt;
          },
          [&](int S::*member) -> ParseError {
            const auto parsed = value.as_int64();
            if (!parsed || *parsed < std::numeric_limits<int>::min() ||
                *parsed > std::numeric_limits<int>::max()) {
              return path + ": expected an integer";
            }
            out.*member = static_cast<int>(*parsed);
            return std::nullopt;
          },
          // Durations are integer milliseconds (the library's SimTime
          // unit), so specs round-trip without floating-point drift.
          [&](SimDuration S::*member) -> ParseError {
            const auto parsed = value.as_int64();
            if (!parsed) return path + ": expected an integer number of milliseconds";
            out.*member = *parsed;
            return std::nullopt;
          },
          [&](std::string S::*member) -> ParseError {
            if (!value.is_string()) return path + ": expected a string";
            out.*member = value.as_string();
            return std::nullopt;
          },
          [&](const Enum<S>& member) -> ParseError {
            if (!value.is_string()) return path + ": expected a string";
            std::string spellings;
            for (std::size_t v = 0; v < member.count; ++v) {
              if (member.name(v) == value.as_string()) {
                member.set(out, v);
                return std::nullopt;
              }
              if (v > 0) spellings += v + 1 == member.count ? " or " : ", ";
              spellings.append(1, '"').append(member.name(v)).append(1, '"');
            }
            return path + ": expected " + spellings;
          },
          [&](const Custom<S>& member) { return member.parse(value, path, out); },
      },
      field.member);
}

template <typename S>
void emit_member(JsonWriter& writer, const Field<S>& field, const S& in) {
  std::visit(Overloaded{
                 [&](std::uint32_t S::*member) {
                   writer.field(field.key, static_cast<std::uint64_t>(in.*member));
                 },
                 [&](std::string S::*member) {
                   if (!field.omit_empty || !(in.*member).empty()) {
                     writer.field(field.key, in.*member);
                   }
                 },
                 [&](const Enum<S>& member) {
                   writer.field(field.key, member.name(member.get(in)));
                 },
                 [&](const Custom<S>& member) { member.emit(writer, field.key, in); },
                 [&](auto member) { writer.field(field.key, in.*member); },
             },
             field.member);
}

/// Strict schemas: a member outside `keys`, or one repeated, is an error,
/// so typos fail `ipfs_sim validate` instead of being silently ignored.
template <typename S>
ParseError check_members(const JsonValue& value, const std::string& path,
                         std::span<const Field<S>> fields, KeySet keys) {
  const JsonValue::Object& members = value.as_object();
  for (std::size_t i = 0; i < members.size(); ++i) {
    const std::string& key = members[i].first;
    bool known = false;
    for (std::size_t f = 0; f < fields.size(); ++f) {
      known = known || ((keys >> f & 1) != 0 && fields[f].key == key);
    }
    if (!known) return path + ": unknown field '" + key + "'";
    for (std::size_t j = 0; j < i; ++j) {
      if (members[j].first == key) return path + ": duplicate field '" + key + "'";
    }
  }
  return std::nullopt;
}

/// Parse `value` into `out` through `schema`; absent fields keep what
/// `out` holds.  `keys` narrows a table to a subset of its fields.
template <typename S>
ParseError parse_object(const JsonValue& value, const std::string& path,
                        const Schema<S>& schema, S& out, KeySet keys = kAllKeys) {
  // The document root has the empty path; its own errors say "document".
  const std::string where = path.empty() ? "document" : path;
  if (auto error = expect_object(value, where)) return error;
  if (!schema.kinds.empty()) {
    const Field<S>& selector = schema.fields[schema.selector];
    const JsonValue* kind = value.find(selector.key);
    if (kind == nullptr) return where + ": " + std::string(selector.key) + " is required";
    if (auto error = parse_member(selector, *kind, join(path, selector.key), out)) {
      return error;
    }
    keys = schema.kinds[std::get<Enum<S>>(selector.member).get(out)];
  }
  if (auto error = check_members(value, where, schema.fields, keys)) return error;
  for (std::size_t i = 0; i < schema.fields.size(); ++i) {
    const Field<S>& field = schema.fields[i];
    if ((keys >> i & 1) == 0) continue;
    if (const JsonValue* member = value.find(field.key)) {
      if (auto error = parse_member(field, *member, join(path, field.key), out)) {
        return error;
      }
    }
  }
  return std::nullopt;
}

template <typename S>
void emit_object(JsonWriter& writer, const Schema<S>& schema, const S& in,
                 KeySet keys = kAllKeys) {
  if (!schema.kinds.empty()) {
    keys = schema.kinds[std::get<Enum<S>>(schema.fields[schema.selector].member).get(in)];
  }
  writer.begin_object();
  for (std::size_t i = 0; i < schema.fields.size(); ++i) {
    if ((keys >> i & 1) != 0) emit_member(writer, schema.fields[i], in);
  }
  writer.end_object();
}

// ---- field factories ----------------------------------------------------------

template <typename>
struct MemberPointer;
template <typename S, typename T>
struct MemberPointer<T S::*> {
  using Owner = S;
  using Type = T;
};
template <auto M>
using OwnerOf = typename MemberPointer<decltype(M)>::Owner;
template <auto M>
using TypeOf = typename MemberPointer<decltype(M)>::Type;

/// The enum member `M`, whose `N` values `to_string` spells.
template <auto M, std::size_t N>
constexpr Enum<OwnerOf<M>> enumerated() {
  using E = TypeOf<M>;
  return {N, [](std::size_t value) { return to_string(static_cast<E>(value)); },
          [](const OwnerOf<M>& in) { return static_cast<std::size_t>(in.*M); },
          [](OwnerOf<M>& out, std::size_t value) { out.*M = static_cast<E>(value); }};
}

/// A nested JSON object whose fields live in the enclosing struct
/// (`period.go_ipfs.mode` is `PeriodSpec::go_ipfs_mode`).
template <const auto& Table>
constexpr auto group() {
  using S = typename std::remove_cvref_t<decltype(schema_of(Table))>::Struct;
  return Custom<S>{
      [](const JsonValue& value, const std::string& path, S& out) {
        return parse_object(value, path, schema_of(Table), out);
      },
      [](JsonWriter& writer, std::string_view key, const S& in) {
        writer.key(key);
        emit_object(writer, schema_of(Table), in);
      }};
}

/// A nested object held in member `M`.  A present object replaces the
/// member, so the fields it leaves out take the type's defaults.
template <auto M, const auto& Table>
constexpr Custom<OwnerOf<M>> object() {
  return {[](const JsonValue& value, const std::string& path, OwnerOf<M>& out) {
            out.*M = {};
            return parse_object(value, path, schema_of(Table), out.*M);
          },
          [](JsonWriter& writer, std::string_view key, const OwnerOf<M>& in) {
            writer.key(key);
            emit_object(writer, schema_of(Table), in.*M);
          }};
}

/// An optional section held in `std::optional` member `M`: written only
/// when engaged, so files that predate the section export byte-identically.
template <auto M, const auto& Table>
constexpr Custom<OwnerOf<M>> optional_object() {
  return {[](const JsonValue& value, const std::string& path, OwnerOf<M>& out) {
            return parse_object(value, path, schema_of(Table), (out.*M).emplace());
          },
          [](JsonWriter& writer, std::string_view key, const OwnerOf<M>& in) {
            if (!(in.*M)) return;
            writer.key(key);
            emit_object(writer, schema_of(Table), *(in.*M));
          }};
}

/// A JSON array of objects held in vector member `M`.
template <auto M, const auto& Table>
constexpr Custom<OwnerOf<M>> array() {
  return {[](const JsonValue& value, const std::string& path,
             OwnerOf<M>& out) -> ParseError {
            if (!value.is_array()) return path + ": expected an array";
            const JsonValue::Array& items = value.as_array();
            for (std::size_t i = 0; i < items.size(); ++i) {
              if (auto error = parse_object(items[i], path + "[" + std::to_string(i) + "]",
                                            schema_of(Table), (out.*M).emplace_back())) {
                return error;
              }
            }
            return std::nullopt;
          },
          [](JsonWriter& writer, std::string_view key, const OwnerOf<M>& in) {
            writer.key(key);
            writer.begin_array();
            for (const auto& item : in.*M) emit_object(writer, schema_of(Table), item);
            writer.end_array();
          }};
}

/// Run `parse_entry(category, entry, entry_path)` over a map keyed by
/// category name (the "categories" members).
template <typename ParseEntry>
ParseError parse_category_map(const JsonValue& value, const std::string& path,
                              ParseEntry parse_entry) {
  if (auto error = expect_object(value, path)) return error;
  for (const JsonValue::Member& member : value.as_object()) {
    const auto category = category_from_string(member.first);
    if (!category) return path + ": unknown category name '" + member.first + "'";
    if (auto error = parse_entry(*category, member.second, join(path, member.first))) {
      return error;
    }
  }
  return std::nullopt;
}

// ---- "period" ---------------------------------------------------------------

constexpr Field<PeriodSpec> kGoIpfsFields[] = {
    {"present", &PeriodSpec::go_ipfs_present},
    {"mode", enumerated<&PeriodSpec::go_ipfs_mode, 2>()},
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
    {"go_ipfs", group<kGoIpfsFields>()},
    {"hydra", group<kHydraFields>()},
};

// ---- "population" -----------------------------------------------------------

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

constexpr Field<CategoryParams> kCategoryParamsFields[] = {
    {"session", enumerated<&CategoryParams::session, 3>()},
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

ParseError parse_overrides(const JsonValue& value, const std::string& path,
                           PopulationSpec& out) {
  return parse_category_map(
      value, path,
      [&](Category category, const JsonValue& entry,
          const std::string& entry_path) -> ParseError {
        std::optional<CategoryParams>& slot =
            out.overrides[static_cast<std::size_t>(category)];
        // One slot per category: a repeated key would replace the first.
        if (slot) {
          return path + ": duplicate field '" + std::string(to_string(category)) + "'";
        }
        // Absent fields keep the calibrated value.
        CategoryParams params = default_params(category);
        if (auto error =
                parse_object(entry, entry_path, schema_of(kCategoryParamsFields), params)) {
          return error;
        }
        params.category = category;
        slot = params;
        return std::nullopt;
      });
}

void emit_overrides(JsonWriter& writer, std::string_view key, const PopulationSpec& in) {
  writer.key(key);
  writer.begin_object();
  for (std::size_t i = 0; i < kCategoryCount; ++i) {
    if (!in.overrides[i]) continue;
    writer.key(to_string(static_cast<Category>(i)));
    emit_object(writer, schema_of(kCategoryParamsFields), *in.overrides[i]);
  }
  writer.end_object();
}

constexpr Field<PopulationSpec> kPopulationFields[] = {
    {"scale", &PopulationSpec::scale},
    {"counts", object<&PopulationSpec::counts, kCountsFields>()},
    {"categories", Custom<PopulationSpec>{parse_overrides, emit_overrides}},
};

// ---- "network" (net::ConditionSpec) -----------------------------------------

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

ParseError parse_nat_categories(const JsonValue& value, const std::string& path,
                                net::NatSpec& out) {
  return parse_category_map(
      value, path,
      [&](Category category, const JsonValue& entry,
          const std::string& entry_path) -> ParseError {
        if (!entry.is_string()) return entry_path + ": expected a class name";
        out.categories.emplace_back(to_string(category), entry.as_string());
        return std::nullopt;
      });
}

void emit_nat_categories(JsonWriter& writer, std::string_view key,
                         const net::NatSpec& in) {
  writer.key(key);
  writer.begin_object();
  for (const auto& [category, class_name] : in.categories) {
    writer.field(category, class_name);
  }
  writer.end_object();
}

constexpr Field<net::NatSpec> kNatFields[] = {
    {"classes", array<&net::NatSpec::classes, kNatClassFields>()},
    {"categories", Custom<net::NatSpec>{parse_nat_categories, emit_nat_categories}},
};

ParseError parse_zone_names(const JsonValue& value, const std::string& path,
                            net::DisturbanceSpec& out) {
  if (!value.is_array()) return path + ": expected an array of zone names";
  for (const JsonValue& zone : value.as_array()) {
    if (!zone.is_string()) return path + ": expected an array of zone names";
    out.zones.push_back(zone.as_string());
  }
  return std::nullopt;
}

void emit_zone_names(JsonWriter& writer, std::string_view key,
                     const net::DisturbanceSpec& in) {
  writer.key(key);
  writer.begin_array();
  for (const std::string& zone : in.zones) writer.value(zone);
  writer.end_array();
}

constexpr Field<net::DisturbanceSpec> kDisturbanceFields[] = {
    {"kind", enumerated<&net::DisturbanceSpec::kind, 3>()},
    {"zone", &net::DisturbanceSpec::zone, /*omit_empty=*/true},
    {"zones", Custom<net::DisturbanceSpec>{parse_zone_names, emit_zone_names}},
    {"from_ms", &net::DisturbanceSpec::from},
    {"until_ms", &net::DisturbanceSpec::until},
    {"period_ms", &net::DisturbanceSpec::period},
    {"latency_factor", &net::DisturbanceSpec::latency_factor},
    {"extra_loss", &net::DisturbanceSpec::extra_loss},
};

constexpr KeySet kDisturbanceKinds[] = {
    0b0011'1011,  // outage: kind, zone, from_ms, until_ms, period_ms
    0b0011'1101,  // partition: kind, zones, from_ms, until_ms, period_ms
    0b1111'1011,  // degrade: outage's fields + latency_factor, extra_loss
};

constexpr Schema<net::DisturbanceSpec> kDisturbance{kDisturbanceFields,
                                                    kDisturbanceKinds};

constexpr Field<net::ConditionSpec> kNetworkFields[] = {
    {"latency", object<&net::ConditionSpec::latency, kLatencyFields>()},
    {"symmetric", &net::ConditionSpec::symmetric},
    {"zones", array<&net::ConditionSpec::zones, kZoneFields>()},
    {"default_link", object<&net::ConditionSpec::default_link, kDefaultLinkFields>()},
    {"links", array<&net::ConditionSpec::links, kLinkFields>()},
    {"loss", object<&net::ConditionSpec::loss, kLossFields>()},
    {"nat", object<&net::ConditionSpec::nat, kNatFields>()},
    {"disturbances", array<&net::ConditionSpec::disturbances, kDisturbance>()},
};

// ---- "churn" (scenario::ChurnSpec) ------------------------------------------

constexpr Field<SessionDistribution> kDistributionFields[] = {
    {"kind", enumerated<&SessionDistribution::kind, 3>()},
    {"mean_ms", &SessionDistribution::mean_ms},
    {"shape", &SessionDistribution::shape},
    {"scale_ms", &SessionDistribution::scale_ms},
    {"median_ms", &SessionDistribution::median_ms},
    {"sigma", &SessionDistribution::sigma},
};

constexpr KeySet kDistributionKinds[] = {
    0b00'0011,  // exponential: kind, mean_ms
    0b00'1101,  // weibull: kind, shape, scale_ms
    0b11'0001,  // lognormal: kind, median_ms, sigma
};

constexpr Schema<SessionDistribution> kDistribution{kDistributionFields,
                                                    kDistributionKinds};

constexpr Field<DiurnalSpec> kDiurnalFields[] = {
    {"amplitude", &DiurnalSpec::amplitude},
    {"period_ms", &DiurnalSpec::period},
    {"phase_ms", &DiurnalSpec::phase},
};

ParseError parse_churn_categories(const JsonValue& value, const std::string& path,
                                  ChurnSpec& out);
void emit_churn_categories(JsonWriter& writer, std::string_view key, const ChurnSpec& in);

constexpr Field<ChurnSpec> kChurnFields[] = {
    {"session", object<&ChurnSpec::session, kDistribution>()},
    {"gap", object<&ChurnSpec::gap, kDistribution>()},
    {"initial_online", &ChurnSpec::initial_online},
    {"sample_interval_ms", &ChurnSpec::sample_interval},
    {"diurnal", optional_object<&ChurnSpec::diurnal, kDiurnalFields>()},
    {"categories", Custom<ChurnSpec>{parse_churn_categories, emit_churn_categories}},
};

// A category entry is the top-level session/gap pair, overridden: it goes
// through those two `kChurnFields` entries, starting from the top level.
constexpr KeySet kChurnCategoryKeys = 0b11;

ParseError parse_churn_categories(const JsonValue& value, const std::string& path,
                                  ChurnSpec& out) {
  return parse_category_map(
      value, path,
      [&](Category category, const JsonValue& entry,
          const std::string& entry_path) -> ParseError {
        ChurnSpec scoped;
        scoped.session = out.session;
        scoped.gap = out.gap;
        if (auto error = parse_object(entry, entry_path, schema_of(kChurnFields), scoped,
                                      kChurnCategoryKeys)) {
          return error;
        }
        out.categories.push_back({category, scoped.session, scoped.gap});
        return std::nullopt;
      });
}

void emit_churn_categories(JsonWriter& writer, std::string_view key, const ChurnSpec& in) {
  writer.key(key);
  writer.begin_object();
  for (const ChurnCategorySpec& entry : in.categories) {
    ChurnSpec scoped;
    scoped.session = entry.session;
    scoped.gap = entry.gap;
    writer.key(to_string(entry.category));
    emit_object(writer, schema_of(kChurnFields), scoped, kChurnCategoryKeys);
  }
  writer.end_object();
}

// ---- "content" (scenario::ContentSpec) --------------------------------------

ParseError parse_content_categories(const JsonValue& value, const std::string& path,
                                    ContentSpec& out);
void emit_content_categories(JsonWriter& writer, std::string_view key,
                             const ContentSpec& in);

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
    {"categories", Custom<ContentSpec>{parse_content_categories, emit_content_categories}},
};

// As for churn: a category entry overrides the top-level rates through
// their `kContentFields` entries.
constexpr KeySet kContentCategoryKeys = 0b110;

ParseError parse_content_categories(const JsonValue& value, const std::string& path,
                                    ContentSpec& out) {
  return parse_category_map(
      value, path,
      [&](Category category, const JsonValue& entry,
          const std::string& entry_path) -> ParseError {
        ContentSpec scoped;
        scoped.publishes_per_peer = out.publishes_per_peer;
        scoped.fetches_per_hour = out.fetches_per_hour;
        if (auto error = parse_object(entry, entry_path, schema_of(kContentFields),
                                      scoped, kContentCategoryKeys)) {
          return error;
        }
        out.categories.push_back(
            {category, scoped.publishes_per_peer, scoped.fetches_per_hour});
        return std::nullopt;
      });
}

void emit_content_categories(JsonWriter& writer, std::string_view key,
                             const ContentSpec& in) {
  writer.key(key);
  writer.begin_object();
  for (const ContentCategorySpec& entry : in.categories) {
    ContentSpec scoped;
    scoped.publishes_per_peer = entry.publishes_per_peer;
    scoped.fetches_per_hour = entry.fetches_per_hour;
    writer.key(to_string(entry.category));
    emit_object(writer, schema_of(kContentFields), scoped, kContentCategoryKeys);
  }
  writer.end_object();
}

// ---- "phases" (scenario::PhaseProgramSpec) ----------------------------------

constexpr Field<PhaseSpec> kPhaseFields[] = {
    {"name", &PhaseSpec::name, /*omit_empty=*/true},
    {"mode", enumerated<&PhaseSpec::mode, 4>()},
    {"hold_ms", &PhaseSpec::hold},
    {"churn_rate", &PhaseSpec::churn_rate},
    {"fetch_rate", &PhaseSpec::fetch_rate},
    {"publish_rate", &PhaseSpec::publish_rate},
    {"crawl_rate", &PhaseSpec::crawl_rate},
    {"population", &PhaseSpec::population},
    {"switch_ms", &PhaseSpec::switch_interval},
    {"hot_key", &PhaseSpec::hot_key},
    {"spike", &PhaseSpec::spike},
    {"hot_fraction", &PhaseSpec::hot_fraction},
};

constexpr KeySet kPhaseModes[] = {
    0b0000'1111'1111,  // hold: name .. population
    0b0000'1111'1111,  // ramp: the same
    0b0001'1111'1111,  // burst: + switch_ms
    0b1110'1111'1111,  // flash_crowd: + hot_key, spike, hot_fraction
};

constexpr Schema<PhaseSpec> kPhase{kPhaseFields, kPhaseModes, /*selector=*/1};

// "diurnal_clock" has one spelling; absent means phase-relative.
constexpr std::string_view kAbsoluteClock = "absolute";

ParseError parse_diurnal_clock(const JsonValue& value, const std::string& path,
                               PhaseProgramSpec& out) {
  if (!value.is_string() || value.as_string() != kAbsoluteClock) {
    return path + ": expected \"absolute\"";
  }
  out.diurnal_clock_absolute = true;
  return std::nullopt;
}

void emit_diurnal_clock(JsonWriter& writer, std::string_view key,
                        const PhaseProgramSpec& in) {
  if (in.diurnal_clock_absolute) writer.field(key, kAbsoluteClock);
}

constexpr Field<PhaseProgramSpec> kPhaseProgramFields[] = {
    {"diurnal_clock", Custom<PhaseProgramSpec>{parse_diurnal_clock, emit_diurnal_clock}},
    {"program", array<&PhaseProgramSpec::program, kPhase>()},
};

/// The optional "phases" section, plus its required program and the
/// program-level rules, checked as soon as the section is read.
ParseError parse_phases(const JsonValue& value, const std::string& path,
                        ScenarioSpec& out) {
  PhaseProgramSpec& phases = out.phases.emplace();
  if (auto error = parse_object(value, path, schema_of(kPhaseProgramFields), phases)) {
    return error;
  }
  const std::string_view program = kPhaseProgramFields[1].key;
  if (value.find(program) == nullptr) return join(path, program) + ": required";
  return PhaseProgramSpec::validate(phases);
}

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
    {"crawler", group<kCrawlerFields>()},
    {"metadata_dynamics", &CampaignSettings::enable_metadata_dynamics},
    {"client_dials_per_hour", &CampaignSettings::client_dials_per_hour},
};

ParseError parse_role_filter(const JsonValue& value, const std::string& path,
                             OutputSettings& out) {
  if (value.is_null()) return std::nullopt;  // the default: no filter
  if (!value.is_string()) return path + ": expected a string or null";
  out.role_filter = measure::role_from_string(value.as_string());
  if (!out.role_filter) {
    return path + ": unknown dataset role '" + value.as_string() + "'";
  }
  return std::nullopt;
}

void emit_role_filter(JsonWriter& writer, std::string_view key, const OutputSettings& in) {
  writer.key(key);
  if (in.role_filter) {
    writer.value(measure::to_string(*in.role_filter));
  } else {
    writer.null();
  }
}

constexpr Field<OutputSettings> kOutputFields[] = {
    {"pretty", &OutputSettings::pretty},
    {"include_connections", &OutputSettings::include_connections},
    {"role_filter", Custom<OutputSettings>{parse_role_filter, emit_role_filter}},
};

// ---- the document -----------------------------------------------------------

constexpr Field<ScenarioSpec> kScenarioFields[] = {
    {"name", &ScenarioSpec::name},
    {"description", &ScenarioSpec::description},
    {"period", object<&ScenarioSpec::period, kPeriodFields>()},
    {"population", object<&ScenarioSpec::population, kPopulationFields>()},
    {"network", optional_object<&ScenarioSpec::network, kNetworkFields>()},
    {"churn", optional_object<&ScenarioSpec::churn, kChurnFields>()},
    {"content", optional_object<&ScenarioSpec::content, kContentFields>()},
    {"phases",
     Custom<ScenarioSpec>{
         parse_phases,
         optional_object<&ScenarioSpec::phases, kPhaseProgramFields>().emit}},
    {"campaign", object<&ScenarioSpec::campaign, kCampaignFields>()},
    {"output", object<&ScenarioSpec::output, kOutputFields>()},
};

/// Parse a document without `validate`: the builtin loader runs under
/// `PeriodSpec::P4()`, which `validate` reaches again through
/// `to_campaign_config`.
std::expected<ScenarioSpec, std::string> decode(std::string_view text) {
  auto document = JsonValue::parse(text);
  if (!document) return std::unexpected(std::move(document).error());
  ScenarioSpec spec;
  if (auto error = parse_object(*document, "", schema_of(kScenarioFields), spec)) {
    return std::unexpected(std::move(*error));
  }
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

void to_json(JsonWriter& writer, const SessionDistribution& distribution) {
  emit_object(writer, kDistribution, distribution);
}

std::expected<ScenarioSpec, std::string> ScenarioSpec::from_json(
    std::string_view text) {
  auto spec = decode(text);
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
  emit_object(writer, schema_of(kScenarioFields), *this);
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
  // Population rounds count x scale into 32 bits; past that the count
  // would wrap (or, for a huge scale, the build would exhaust memory).
  std::uint32_t largest = 0;
  for (const Field<PopulationCounts>& field : kCountsFields) {
    largest = std::max(largest, counts.*std::get<std::uint32_t PopulationCounts::*>(
                                           field.member));
  }
  if (static_cast<double>(largest) * spec.population.scale >= 4294967295.5) {
    return "population.scale: scales the largest count (" + std::to_string(largest) +
           ") past 2^32 - 1";
  }
  // The *_per_day streams are rounded the same way after a further
  // multiplication by the period's length in days.
  const double days = static_cast<double>(spec.period.duration) /
                      static_cast<double>(common::kDay);
  for (const Field<PopulationCounts>& field : kCountsFields) {
    if (!field.key.ends_with("_per_day")) continue;
    const std::uint32_t base =
        counts.*std::get<std::uint32_t PopulationCounts::*>(field.member);
    const double per_day = std::max(
        std::round(static_cast<double>(base) * spec.population.scale), base > 0 ? 1.0 : 0.0);
    if (per_day * days >= 4294967295.5) {
      return "period.duration_ms: population.counts." + std::string(field.key) +
             " over this many days reaches past 2^32 - 1 peers";
    }
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

namespace {

/// Embedded file `index`, decoded on first use.  One file at a time:
/// `PeriodSpec::P4()` runs in every `CampaignConfig` constructor, so it
/// must not pay for the whole catalogue.
const ScenarioSpec& decoded_builtin(std::size_t index) {
  static std::mutex mutex;
  static std::vector<std::unique_ptr<const ScenarioSpec>> decoded(
      builtin_files().size());
  const std::lock_guard lock(mutex);
  std::unique_ptr<const ScenarioSpec>& slot = decoded[index];
  if (!slot) {
    slot = std::make_unique<const ScenarioSpec>(
        decode(builtin_files()[index].json).value());
  }
  return *slot;
}

}  // namespace

const std::vector<ScenarioSpec>& ScenarioSpec::builtins() {
  static const std::vector<ScenarioSpec> kBuiltins = [] {
    std::vector<ScenarioSpec> all;
    for (std::size_t i = 0; i < builtin_files().size(); ++i) {
      all.push_back(decoded_builtin(i));
    }
    return all;
  }();
  return kBuiltins;
}

std::optional<ScenarioSpec> ScenarioSpec::builtin(std::string_view name) {
  const std::span<const BuiltinFile> files = builtin_files();
  for (std::size_t i = 0; i < files.size(); ++i) {
    if (files[i].name == name) return decoded_builtin(i);
  }
  return std::nullopt;
}

}  // namespace ipfs::scenario
