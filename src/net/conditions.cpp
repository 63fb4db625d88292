#include "net/conditions.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace ipfs::net {

namespace {

// Fixed salts decorrelate the model's hash families from each other and
// from every other RNG-tree branch (DESIGN.md §5).
constexpr std::uint64_t kZoneSalt = 0x9e0a11;
constexpr std::uint64_t kNatSalt = 0x0a47ab;
constexpr std::uint64_t kDialSalt = 0xd1a1f4;
constexpr std::uint64_t kLossSalt = 0x105505;

/// Deterministic Bernoulli: hash as a uniform in [0, 1) against `p`.
bool hash_bernoulli(std::uint64_t hash, double p) noexcept {
  return static_cast<double>(hash) <
         p * static_cast<double>(std::numeric_limits<std::uint64_t>::max());
}

std::string at(std::string_view section, std::size_t index) {
  return "network." + std::string(section) + "[" + std::to_string(index) + "]";
}

bool valid_probability(double p) noexcept {
  return std::isfinite(p) && p >= 0.0 && p <= 1.0;
}

/// Intersection of two arcs [a, a+wa) and [b, b+wb) on a ring of size p.
bool ring_overlap(common::SimTime a, common::SimDuration wa, common::SimTime b,
                  common::SimDuration wb, common::SimDuration p) noexcept {
  const common::SimTime forward = ((b - a) % p + p) % p;   // a -> b distance
  const common::SimTime backward = ((a - b) % p + p) % p;  // b -> a distance
  return forward < wa || backward < wb;
}

/// Do any occurrences of two disturbance windows coincide?  One-shots are
/// compared as intervals, equal-period recurrences by phase, and a
/// one-shot against a recurrence by its post-start remainder.  Two
/// recurrences with *different* periods are treated as non-overlapping:
/// their coincidences are intentional composition (degrade factors
/// multiply, extra losses add), not a configuration mistake this check
/// could attribute to either window.
bool windows_overlap(const DisturbanceSpec& x, const DisturbanceSpec& y) noexcept {
  if (x.period <= 0 && y.period <= 0) {
    return x.from < y.until && y.from < x.until;
  }
  if (x.period > 0 && y.period > 0) {
    if (x.period != y.period) return false;
    return ring_overlap(x.from % x.period, x.until - x.from, y.from % x.period,
                        y.until - y.from, x.period);
  }
  const DisturbanceSpec& recurring = x.period > 0 ? x : y;
  const DisturbanceSpec& one_shot = x.period > 0 ? y : x;
  if (one_shot.until <= recurring.from) return false;  // over before it begins
  const common::SimTime start = std::max(one_shot.from, recurring.from);
  const common::SimDuration width = one_shot.until - start;
  if (width >= recurring.period) return true;  // spans a whole cycle
  return ring_overlap(start % recurring.period, width,
                      recurring.from % recurring.period,
                      recurring.until - recurring.from, recurring.period);
}

}  // namespace

common::SimDuration LatencyModel::one_way(const p2p::PeerId& a, const p2p::PeerId& b,
                                          common::Rng& jitter_rng) const {
  // Deterministic per-pair base latency: hash the unordered pair.
  const std::uint64_t pair_hash =
      common::mix64(a.prefix64() ^ b.prefix64(), a.prefix64() + b.prefix64());
  const auto span = static_cast<std::uint64_t>(max_one_way - min_one_way + 1);
  const auto base = min_one_way + static_cast<common::SimDuration>(pair_hash % span);
  const double jitter = 1.0 + jitter_fraction * (2.0 * jitter_rng.uniform() - 1.0);
  const auto with_jitter =
      static_cast<common::SimDuration>(static_cast<double>(base) * jitter);
  return std::max<common::SimDuration>(with_jitter, 1);
}

bool DisturbanceSpec::active_at(common::SimTime now) const noexcept {
  if (now < from) return false;
  if (period <= 0) return now < until;
  return (now - from) % period < until - from;
}

std::string_view to_string(DisturbanceSpec::Kind kind) noexcept {
  switch (kind) {
    case DisturbanceSpec::Kind::kOutage: return "outage";
    case DisturbanceSpec::Kind::kPartition: return "partition";
    case DisturbanceSpec::Kind::kDegrade: return "degrade";
  }
  return "degrade";
}

// ---- validation -------------------------------------------------------------

std::optional<std::string> ConditionSpec::validate(const ConditionSpec& spec) {
  const auto valid_range = [](common::SimDuration min, common::SimDuration max) {
    return min > 0 && max >= min;
  };
  if (!valid_range(spec.latency.min_one_way, spec.latency.max_one_way)) {
    return "network.latency: 0 < flat_min_ms <= flat_max_ms required";
  }
  if (!valid_probability(spec.latency.jitter_fraction)) {
    return "network.latency: jitter_fraction must be in [0, 1]";
  }

  const auto zone_index = [&spec](std::string_view name) -> std::size_t {
    for (std::size_t i = 0; i < spec.zones.size(); ++i) {
      if (spec.zones[i].name == name) return i;
    }
    return ConditionModel::kNoZone;
  };
  for (std::size_t i = 0; i < spec.zones.size(); ++i) {
    const ZoneSpec& zone = spec.zones[i];
    if (zone.name.empty()) return at("zones", i) + ": name must be non-empty";
    if (zone_index(zone.name) != i) {
      return at("zones", i) + ": duplicate zone name '" + zone.name + "'";
    }
    if (!(zone.weight > 0.0) || !std::isfinite(zone.weight)) {
      return at("zones", i) + ": weight must be > 0";
    }
    if (!valid_range(zone.intra_min, zone.intra_max)) {
      return at("zones", i) + ": 0 < intra_min_ms <= intra_max_ms required";
    }
  }

  if (!valid_range(spec.default_link.min_one_way, spec.default_link.max_one_way)) {
    return "network.default_link: 0 < min_ms <= max_ms required";
  }
  for (std::size_t i = 0; i < spec.links.size(); ++i) {
    const ZoneLinkSpec& link = spec.links[i];
    if (spec.zones.empty()) return at("links", i) + ": links require zones";
    if (zone_index(link.from) == ConditionModel::kNoZone) {
      return at("links", i) + ": unknown zone '" + link.from + "'";
    }
    if (zone_index(link.to) == ConditionModel::kNoZone) {
      return at("links", i) + ": unknown zone '" + link.to + "'";
    }
    if (link.from == link.to) {
      return at("links", i) + ": intra-zone latency belongs on the zone, not a link";
    }
    if (!valid_range(link.min_one_way, link.max_one_way)) {
      return at("links", i) + ": 0 < min_ms <= max_ms required";
    }
    for (std::size_t j = 0; j < i; ++j) {
      const bool same = spec.links[j].from == link.from && spec.links[j].to == link.to;
      const bool mirrored =
          spec.links[j].from == link.to && spec.links[j].to == link.from;
      if (same || (spec.symmetric && mirrored)) {
        return at("links", i) + ": duplicate link " + link.from + " <-> " + link.to;
      }
    }
  }

  if (!valid_probability(spec.loss.dial_failure)) {
    return "network.loss: dial_failure must be in [0, 1]";
  }
  if (!valid_probability(spec.loss.message_loss)) {
    return "network.loss: message_loss must be in [0, 1]";
  }

  const auto class_known = [&spec](std::string_view name) {
    return std::any_of(spec.nat.classes.begin(), spec.nat.classes.end(),
                       [&](const NatClassSpec& c) { return c.name == name; });
  };
  for (std::size_t i = 0; i < spec.nat.classes.size(); ++i) {
    const NatClassSpec& nat_class = spec.nat.classes[i];
    if (nat_class.name.empty()) {
      return at("nat.classes", i) + ": name must be non-empty";
    }
    for (std::size_t j = 0; j < i; ++j) {
      if (spec.nat.classes[j].name == nat_class.name) {
        return at("nat.classes", i) + ": duplicate class name '" + nat_class.name +
               "'";
      }
    }
    if (!(nat_class.weight > 0.0) || !std::isfinite(nat_class.weight)) {
      return at("nat.classes", i) + ": weight must be > 0";
    }
  }
  for (std::size_t i = 0; i < spec.nat.categories.size(); ++i) {
    const auto& [category, class_name] = spec.nat.categories[i];
    if (spec.nat.classes.empty()) {
      return "network.nat.categories: mappings require nat.classes";
    }
    if (!class_known(class_name)) {
      return "network.nat.categories." + category + ": unknown class '" +
             class_name + "'";
    }
    for (std::size_t j = 0; j < i; ++j) {
      if (spec.nat.categories[j].first == category) {
        return "network.nat.categories: duplicate category '" + category + "'";
      }
    }
  }

  for (std::size_t i = 0; i < spec.disturbances.size(); ++i) {
    const DisturbanceSpec& d = spec.disturbances[i];
    const std::string path = at("disturbances", i);
    if (d.from < 0) return path + ": from_ms must be >= 0";
    if (d.until <= d.from) return path + ": until_ms must be > from_ms";
    if (d.period < 0) return path + ": period_ms must be >= 0";
    if (d.period > 0 && d.until - d.from > d.period) {
      return path + ": window longer than period_ms";
    }
    switch (d.kind) {
      case DisturbanceSpec::Kind::kOutage:
        if (zone_index(d.zone) == ConditionModel::kNoZone) {
          return path + ": unknown zone '" + d.zone + "'";
        }
        break;
      case DisturbanceSpec::Kind::kPartition:
        if (d.zones.empty()) return path + ": partition needs at least one zone";
        for (const std::string& zone : d.zones) {
          if (zone_index(zone) == ConditionModel::kNoZone) {
            return path + ": unknown zone '" + zone + "'";
          }
        }
        for (std::size_t a = 0; a < d.zones.size(); ++a) {
          for (std::size_t b = 0; b < a; ++b) {
            if (d.zones[a] == d.zones[b]) {
              return path + ": duplicate zone '" + d.zones[a] + "'";
            }
          }
        }
        if (d.zones.size() >= spec.zones.size()) {
          return path + ": partition must leave at least one zone outside";
        }
        break;
      case DisturbanceSpec::Kind::kDegrade:
        if (!d.zone.empty() && zone_index(d.zone) == ConditionModel::kNoZone) {
          return path + ": unknown zone '" + d.zone + "'";
        }
        if (!(d.latency_factor >= 1.0) || !std::isfinite(d.latency_factor)) {
          return path + ": latency_factor must be >= 1";
        }
        if (!valid_probability(d.extra_loss)) {
          return path + ": extra_loss must be in [0, 1]";
        }
        break;
    }
    // Overlap rule: two windows of the same kind on the same target must
    // never fire simultaneously (see `windows_overlap` for how
    // recurrences are compared), or the schedule is ambiguous about which
    // one "owns" the window.
    for (std::size_t j = 0; j < i; ++j) {
      const DisturbanceSpec& other = spec.disturbances[j];
      if (other.kind != d.kind) continue;
      const bool shares_target = [&] {
        if (d.kind == DisturbanceSpec::Kind::kPartition) {
          return std::any_of(d.zones.begin(), d.zones.end(), [&](const auto& z) {
            return std::find(other.zones.begin(), other.zones.end(), z) !=
                   other.zones.end();
          });
        }
        return other.zone == d.zone;
      }();
      if (!shares_target) continue;
      if (windows_overlap(d, other)) {
        return path + ": window overlaps disturbances[" + std::to_string(j) +
               "] (same " + std::string(to_string(d.kind)) + " target)";
      }
    }
  }
  return std::nullopt;
}

// ---- ConditionModel ---------------------------------------------------------

ConditionModel::ConditionModel(ConditionSpec spec, std::uint64_t seed)
    : spec_(std::move(spec)), seed_(seed) {
  double running = 0.0;
  for (const ZoneSpec& zone : spec_.zones) {
    running += zone.weight;
    zone_cumulative_.push_back(running);
  }
  running = 0.0;
  for (const NatClassSpec& nat_class : spec_.nat.classes) {
    running += nat_class.weight;
    nat_cumulative_.push_back(running);
  }

  const std::size_t n = spec_.zones.size();
  link_matrix_.assign(n * n, Range{});
  const auto zone_index = [this](std::string_view name) -> std::size_t {
    for (std::size_t i = 0; i < spec_.zones.size(); ++i) {
      if (spec_.zones[i].name == name) return i;
    }
    return kNoZone;
  };
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      link_matrix_[i * n + j] =
          i == j ? Range{spec_.zones[i].intra_min, spec_.zones[i].intra_max}
                 : Range{spec_.default_link.min_one_way,
                         spec_.default_link.max_one_way};
    }
  }
  for (const ZoneLinkSpec& link : spec_.links) {
    const std::size_t from = zone_index(link.from);
    const std::size_t to = zone_index(link.to);
    if (from == kNoZone || to == kNoZone) continue;  // validate() rejects these
    link_matrix_[from * n + to] = Range{link.min_one_way, link.max_one_way};
    if (spec_.symmetric) {
      link_matrix_[to * n + from] = Range{link.min_one_way, link.max_one_way};
    }
  }

  for (const DisturbanceSpec& d : spec_.disturbances) {
    CompiledDisturbance compiled;
    compiled.members.assign(n, false);
    if (d.kind == DisturbanceSpec::Kind::kPartition) {
      for (const std::string& zone : d.zones) {
        const std::size_t index = zone_index(zone);
        if (index != kNoZone) compiled.members[index] = true;
      }
    } else if (!d.zone.empty()) {
      compiled.zone = zone_index(d.zone);
    }
    if (d.kind != DisturbanceSpec::Kind::kDegrade) has_blocking_ = true;
    if (d.kind == DisturbanceSpec::Kind::kOutage) has_outage_ = true;
    if (d.kind == DisturbanceSpec::Kind::kPartition) has_partition_ = true;
    compiled_.push_back(std::move(compiled));
  }
}

std::size_t ConditionModel::weighted_pick(
    std::uint64_t hash, const std::vector<double>& cumulative) const noexcept {
  // Map the hash to [0, total) and walk the prefix sums; the last slot
  // absorbs floating-point slack.
  const double u = static_cast<double>(hash >> 11) * 0x1.0p-53;
  const double x = u * cumulative.back();
  for (std::size_t i = 0; i < cumulative.size(); ++i) {
    if (x < cumulative[i]) return i;
  }
  return cumulative.size() - 1;
}

std::size_t ConditionModel::zone_of(const p2p::PeerId& id) const noexcept {
  if (zone_cumulative_.empty()) return kNoZone;
  return weighted_pick(common::mix64(id.prefix64(), seed_ ^ kZoneSalt),
                       zone_cumulative_);
}

std::size_t ConditionModel::nat_class_of(const p2p::PeerId& id,
                                         std::string_view category) const noexcept {
  if (nat_cumulative_.empty()) return kNoClass;
  if (!category.empty()) {
    for (std::size_t i = 0; i < spec_.nat.categories.size(); ++i) {
      if (spec_.nat.categories[i].first != category) continue;
      for (std::size_t c = 0; c < spec_.nat.classes.size(); ++c) {
        if (spec_.nat.classes[c].name == spec_.nat.categories[i].second) return c;
      }
    }
  }
  return weighted_pick(common::mix64(id.prefix64(), seed_ ^ kNatSalt),
                       nat_cumulative_);
}

bool ConditionModel::accepts_inbound(const p2p::PeerId& id,
                                     std::string_view category) const noexcept {
  const std::size_t nat_class = nat_class_of(id, category);
  return nat_class == kNoClass || spec_.nat.classes[nat_class].accepts_inbound;
}

bool ConditionModel::path_open(const p2p::PeerId& a, const p2p::PeerId& b,
                               common::SimTime now) const noexcept {
  if (!has_blocking_) return true;
  const std::size_t zone_a = zone_of(a);
  const std::size_t zone_b = zone_of(b);
  for (std::size_t i = 0; i < spec_.disturbances.size(); ++i) {
    const DisturbanceSpec& d = spec_.disturbances[i];
    switch (d.kind) {
      case DisturbanceSpec::Kind::kOutage:
        if ((compiled_[i].zone == zone_a || compiled_[i].zone == zone_b) &&
            d.active_at(now)) {
          return false;
        }
        break;
      case DisturbanceSpec::Kind::kPartition:
        if (zone_a != kNoZone && zone_b != kNoZone &&
            compiled_[i].members[zone_a] != compiled_[i].members[zone_b] &&
            d.active_at(now)) {
          return false;
        }
        break;
      case DisturbanceSpec::Kind::kDegrade:
        break;
    }
  }
  return true;
}

bool ConditionModel::zone_down(const p2p::PeerId& id,
                               common::SimTime now) const noexcept {
  if (!has_outage_) return false;
  const std::size_t zone = zone_of(id);
  if (zone == kNoZone) return false;
  for (std::size_t i = 0; i < spec_.disturbances.size(); ++i) {
    if (spec_.disturbances[i].kind == DisturbanceSpec::Kind::kOutage &&
        compiled_[i].zone == zone && spec_.disturbances[i].active_at(now)) {
      return true;
    }
  }
  return false;
}

bool ConditionModel::zone_partitioned(const p2p::PeerId& id,
                                      common::SimTime now) const noexcept {
  if (!has_partition_) return false;
  const std::size_t zone = zone_of(id);
  if (zone == kNoZone) return false;
  for (std::size_t i = 0; i < spec_.disturbances.size(); ++i) {
    if (spec_.disturbances[i].kind == DisturbanceSpec::Kind::kPartition &&
        compiled_[i].members[zone] && spec_.disturbances[i].active_at(now)) {
      return true;
    }
  }
  return false;
}

double ConditionModel::degrade_factor(std::size_t zone_a, std::size_t zone_b,
                                      common::SimTime now) const noexcept {
  double factor = 1.0;
  for (std::size_t i = 0; i < spec_.disturbances.size(); ++i) {
    const DisturbanceSpec& d = spec_.disturbances[i];
    if (d.kind != DisturbanceSpec::Kind::kDegrade) continue;
    const std::size_t target = compiled_[i].zone;
    if (target != kNoZone && target != zone_a && target != zone_b) continue;
    if (d.active_at(now)) factor *= d.latency_factor;
  }
  return factor;
}

double ConditionModel::extra_loss(const p2p::PeerId& a, const p2p::PeerId& b,
                                  common::SimTime now) const noexcept {
  if (compiled_.empty()) return 0.0;
  double loss = 0.0;
  std::size_t zone_a = kNoZone;
  std::size_t zone_b = kNoZone;
  bool zones_resolved = false;
  for (std::size_t i = 0; i < spec_.disturbances.size(); ++i) {
    const DisturbanceSpec& d = spec_.disturbances[i];
    if (d.kind != DisturbanceSpec::Kind::kDegrade || d.extra_loss <= 0.0) continue;
    const std::size_t target = compiled_[i].zone;
    if (target != kNoZone) {
      if (!zones_resolved) {
        zone_a = zone_of(a);
        zone_b = zone_of(b);
        zones_resolved = true;
      }
      if (target != zone_a && target != zone_b) continue;
    }
    if (d.active_at(now)) loss += d.extra_loss;
  }
  return loss;
}

bool ConditionModel::dial_failure(const p2p::PeerId& from, const p2p::PeerId& to,
                                  common::SimTime now) const noexcept {
  const double p = spec_.loss.dial_failure + extra_loss(from, to, now);
  if (p <= 0.0) return false;
  const std::uint64_t hash =
      common::mix64(common::mix64(from.prefix64(), to.prefix64()),
                    common::mix64(seed_ ^ kDialSalt, static_cast<std::uint64_t>(now)));
  return hash_bernoulli(hash, std::min(p, 1.0));
}

bool ConditionModel::message_lost(const p2p::PeerId& from, const p2p::PeerId& to,
                                  common::SimTime now) const noexcept {
  const double p = spec_.loss.message_loss + extra_loss(from, to, now);
  if (p <= 0.0) return false;
  const std::uint64_t hash =
      common::mix64(common::mix64(from.prefix64(), to.prefix64()),
                    common::mix64(seed_ ^ kLossSalt, static_cast<std::uint64_t>(now)));
  return hash_bernoulli(hash, std::min(p, 1.0));
}

common::SimDuration ConditionModel::one_way(const p2p::PeerId& a, const p2p::PeerId& b,
                                            common::SimTime now,
                                            common::Rng& jitter_rng) const {
  if (spec_.zones.empty()) {
    // Flat fallback: the legacy fabric, bit-for-bit (no degrade lookup —
    // a zoneless degrade is necessarily global and still applies below).
    if (spec_.disturbances.empty()) {
      return spec_.latency.one_way(a, b, jitter_rng);
    }
    const common::SimDuration flat = spec_.latency.one_way(a, b, jitter_rng);
    const double factor = degrade_factor(kNoZone, kNoZone, now);
    return std::max<common::SimDuration>(
        static_cast<common::SimDuration>(static_cast<double>(flat) * factor), 1);
  }

  const std::size_t zone_a = zone_of(a);
  const std::size_t zone_b = zone_of(b);
  const Range& range = link_matrix_[zone_a * spec_.zones.size() + zone_b];
  const std::uint64_t pair_hash =
      spec_.symmetric
          ? common::mix64(a.prefix64() ^ b.prefix64(), a.prefix64() + b.prefix64())
          : common::mix64(a.prefix64(), b.prefix64());
  const auto span = static_cast<std::uint64_t>(range.max - range.min + 1);
  const auto base = range.min + static_cast<common::SimDuration>(pair_hash % span);
  const double factor = degrade_factor(zone_a, zone_b, now);
  const double jitter =
      1.0 + spec_.latency.jitter_fraction * (2.0 * jitter_rng.uniform() - 1.0);
  return std::max<common::SimDuration>(
      static_cast<common::SimDuration>(static_cast<double>(base) * factor * jitter),
      1);
}

}  // namespace ipfs::net
