#include "scenario/churn.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace ipfs::scenario {

using common::SimDuration;
using common::SimTime;

// ---- SessionDistribution ----------------------------------------------------

double SessionDistribution::sample(common::Rng& rng) const noexcept {
  switch (kind) {
    case Kind::kExponential:
      return rng.exponential(mean_ms);
    case Kind::kWeibull: {
      // Inverse CDF: lambda * (-ln(1-u))^(1/k); u in [0, 1) keeps the log
      // argument in (0, 1].
      const double u = rng.uniform();
      return scale_ms * std::pow(-std::log1p(-u), 1.0 / shape);
    }
    case Kind::kLognormal:
      return median_ms * std::exp(sigma * rng.normal());
  }
  return 0.0;
}

double SessionDistribution::analytic_mean() const noexcept {
  switch (kind) {
    case Kind::kExponential:
      return mean_ms;
    case Kind::kWeibull:
      return scale_ms * std::tgamma(1.0 + 1.0 / shape);
    case Kind::kLognormal:
      return median_ms * std::exp(0.5 * sigma * sigma);
  }
  return 0.0;
}

double SessionDistribution::analytic_median() const noexcept {
  constexpr double kLn2 = 0.6931471805599453;
  switch (kind) {
    case Kind::kExponential:
      return mean_ms * kLn2;
    case Kind::kWeibull:
      return scale_ms * std::pow(kLn2, 1.0 / shape);
    case Kind::kLognormal:
      return median_ms;
  }
  return 0.0;
}

std::string_view to_string(SessionDistribution::Kind kind) noexcept {
  switch (kind) {
    case SessionDistribution::Kind::kExponential: return "exponential";
    case SessionDistribution::Kind::kWeibull: return "weibull";
    case SessionDistribution::Kind::kLognormal: break;
  }
  return "lognormal";
}

// ---- ChurnSpec::validate ----------------------------------------------------

namespace {

std::optional<std::string> validate_distribution(const SessionDistribution& d,
                                                 const std::string& path) {
  switch (d.kind) {
    case SessionDistribution::Kind::kExponential:
      if (!(d.mean_ms > 0.0)) return path + ": mean_ms must be > 0";
      break;
    case SessionDistribution::Kind::kWeibull:
      if (!(d.shape > 0.0)) return path + ": shape must be > 0";
      if (!(d.scale_ms > 0.0)) return path + ": scale_ms must be > 0";
      break;
    case SessionDistribution::Kind::kLognormal:
      if (!(d.median_ms > 0.0)) return path + ": median_ms must be > 0";
      if (d.sigma < 0.0) return path + ": sigma must be >= 0";
      break;
  }
  return std::nullopt;
}

}  // namespace

std::optional<std::string> ChurnSpec::validate(const ChurnSpec& spec) {
  if (auto error = validate_distribution(spec.session, "churn.session")) {
    return error;
  }
  if (auto error = validate_distribution(spec.gap, "churn.gap")) return error;
  if (spec.initial_online < 0.0 || spec.initial_online > 1.0) {
    return "churn: initial_online must be in [0, 1]";
  }
  if (spec.sample_interval <= 0) {
    return "churn: sample_interval_ms must be > 0";
  }
  if (spec.diurnal) {
    const DiurnalSpec& diurnal = *spec.diurnal;
    if (diurnal.amplitude < 0.0 || diurnal.amplitude >= 1.0) {
      return "churn.diurnal: amplitude must be in [0, 1)";
    }
    if (diurnal.period <= 0) return "churn.diurnal: period_ms must be > 0";
    if (diurnal.phase < 0 || diurnal.phase >= diurnal.period) {
      return "churn.diurnal: phase_ms must be in [0, period_ms)";
    }
  }
  std::array<bool, kCategoryCount> seen{};
  for (std::size_t i = 0; i < spec.categories.size(); ++i) {
    const ChurnCategorySpec& entry = spec.categories[i];
    const std::string prefix =
        "churn.categories." + std::string(to_string(entry.category));
    const auto slot = static_cast<std::size_t>(entry.category);
    if (slot >= kCategoryCount) return prefix + ": unknown category";
    if (seen[slot]) return prefix + ": duplicate category override";
    seen[slot] = true;
    if (auto error = validate_distribution(entry.session, prefix + ".session")) {
      return error;
    }
    if (auto error = validate_distribution(entry.gap, prefix + ".gap")) {
      return error;
    }
  }
  return std::nullopt;
}

// ---- ChurnModel -------------------------------------------------------------

ChurnModel::ChurnModel(ChurnSpec spec, std::uint64_t seed)
    : spec_(std::move(spec)), seed_(seed) {
  override_slot_.fill(-1);
  for (std::size_t i = 0; i < spec_.categories.size(); ++i) {
    override_slot_[static_cast<std::size_t>(spec_.categories[i].category)] =
        static_cast<std::int32_t>(i);
  }
}

const SessionDistribution& ChurnModel::session_for(Category category) const {
  const std::int32_t slot = override_slot_[static_cast<std::size_t>(category)];
  return slot < 0 ? spec_.session
                  : spec_.categories[static_cast<std::size_t>(slot)].session;
}

const SessionDistribution& ChurnModel::gap_for(Category category) const {
  const std::int32_t slot = override_slot_[static_cast<std::size_t>(category)];
  return slot < 0 ? spec_.gap
                  : spec_.categories[static_cast<std::size_t>(slot)].gap;
}

common::Rng ChurnModel::draw_rng(std::uint64_t salt, std::uint32_t node,
                                 std::uint32_t session) const noexcept {
  // A fresh generator per draw keeps every sample a pure function of
  // (node, session, seed) — independent of call order (DESIGN.md §5).
  const std::uint64_t key =
      (static_cast<std::uint64_t>(node) << 32) | static_cast<std::uint64_t>(session);
  return common::Rng(common::mix64(common::mix64(seed_, salt), key));
}

common::SimDuration ChurnModel::session_length(std::uint32_t node,
                                               std::uint32_t session) const {
  common::Rng rng = draw_rng(0x5e55, node, session);
  return static_cast<SimDuration>(spec_.session.sample(rng));
}

common::SimDuration ChurnModel::session_length(std::uint32_t node,
                                               std::uint32_t session,
                                               Category category) const {
  common::Rng rng = draw_rng(0x5e55, node, session);
  return static_cast<SimDuration>(session_for(category).sample(rng));
}

common::SimDuration ChurnModel::gap_length(std::uint32_t node,
                                           std::uint32_t session,
                                           common::SimTime at) const {
  common::Rng rng = draw_rng(0x6a90, node, session);
  return static_cast<SimDuration>(spec_.gap.sample(rng) / rate_multiplier(at));
}

common::SimDuration ChurnModel::gap_length(std::uint32_t node,
                                           std::uint32_t session,
                                           common::SimTime at,
                                           Category category) const {
  common::Rng rng = draw_rng(0x6a90, node, session);
  return static_cast<SimDuration>(gap_for(category).sample(rng) /
                                  rate_multiplier(at));
}

bool ChurnModel::initially_online(std::uint32_t node) const noexcept {
  const std::uint64_t h = common::mix64(common::mix64(seed_, 0x071e), node);
  return static_cast<double>(h) <
         spec_.initial_online *
             static_cast<double>(std::numeric_limits<std::uint64_t>::max());
}

bool ChurnModel::redraw_address(std::uint32_t node,
                                std::uint32_t session) const noexcept {
  if (session == 0) return false;  // the first session uses the built address
  const std::uint64_t key =
      (static_cast<std::uint64_t>(node) << 32) | static_cast<std::uint64_t>(session);
  const std::uint64_t h = common::mix64(common::mix64(seed_, 0xadd2), key);
  return static_cast<double>(h) <
         kDualHomeAlternateProbability *
             static_cast<double>(std::numeric_limits<std::uint64_t>::max());
}

// Clock contract (DESIGN.md §14): `at` is the ABSOLUTE simulation time —
// `phase_ms` offsets the wave from t = 0 and is never rebased by a
// `"phases"` program.  When a churn-modulating phase program runs next to
// a diurnal spec, both multipliers read this same absolute clock and the
// engine multiplies them (gap / (diurnal * phase_churn)); the scenario
// must carry `"diurnal_clock": "absolute"` to acknowledge that — every
// other composition is rejected by `CampaignEngine::validate`.
double ChurnModel::rate_multiplier(common::SimTime at) const noexcept {
  if (!spec_.diurnal) return 1.0;
  const DiurnalSpec& diurnal = *spec_.diurnal;
  constexpr double kTwoPi = 6.283185307179586;
  const double angle = kTwoPi *
                       static_cast<double>(at - diurnal.phase) /
                       static_cast<double>(diurnal.period);
  return 1.0 + diurnal.amplitude * std::cos(angle);
}

}  // namespace ipfs::scenario
