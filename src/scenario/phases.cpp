#include "scenario/phases.hpp"

#include <cmath>
#include <limits>

namespace ipfs::scenario {

using common::SimDuration;
using common::SimTime;

std::string_view to_string(PhaseMode mode) noexcept {
  switch (mode) {
    case PhaseMode::kHold:
      return "hold";
    case PhaseMode::kRamp:
      return "ramp";
    case PhaseMode::kBurst:
      return "burst";
    case PhaseMode::kFlashCrowd:
      return "flash_crowd";
  }
  return "hold";
}

SimDuration PhaseProgramSpec::total_duration() const noexcept {
  SimDuration total = 0;
  for (const PhaseSpec& phase : program) total += phase.hold;
  return total;
}

bool PhaseProgramSpec::modulates_churn() const noexcept {
  for (const PhaseSpec& phase : program) {
    if (phase.churn_rate != 1.0 || phase.population != 1.0) return true;
  }
  return false;
}

bool PhaseProgramSpec::modulates_content() const noexcept {
  for (const PhaseSpec& phase : program) {
    if (phase.fetch_rate != 1.0 || phase.publish_rate != 1.0) return true;
    if (phase.mode == PhaseMode::kFlashCrowd) return true;
  }
  return false;
}

bool PhaseProgramSpec::modulates_crawl() const noexcept {
  for (const PhaseSpec& phase : program) {
    if (phase.crawl_rate != 1.0) return true;
  }
  return false;
}

namespace {

bool positive_finite(double v) noexcept {
  return std::isfinite(v) && v > 0.0;
}

}  // namespace

std::optional<std::string> PhaseProgramSpec::validate(
    const PhaseProgramSpec& spec) {
  if (spec.program.empty()) {
    return "phases.program: must contain at least one phase";
  }
  for (std::size_t i = 0; i < spec.program.size(); ++i) {
    const PhaseSpec& phase = spec.program[i];
    const std::string at = "phases.program[" + std::to_string(i) + "]";
    if (phase.hold <= 0) return at + ": hold_ms must be > 0";
    if (!positive_finite(phase.churn_rate)) {
      return at + ": churn_rate must be > 0 and finite";
    }
    if (!positive_finite(phase.fetch_rate)) {
      return at + ": fetch_rate must be > 0 and finite";
    }
    if (!positive_finite(phase.publish_rate)) {
      return at + ": publish_rate must be > 0 and finite";
    }
    if (!positive_finite(phase.crawl_rate)) {
      return at + ": crawl_rate must be > 0 and finite";
    }
    if (!(phase.population > 0.0) || phase.population > 1.0) {
      return at + ": population must be in (0, 1]";
    }
    if (phase.mode == PhaseMode::kBurst) {
      if (phase.switch_interval <= 0) {
        return at + ": switch_ms must be > 0";
      }
    } else if (phase.switch_interval != 0) {
      return at + ": switch_ms applies to \"burst\" phases only";
    }
    if (phase.mode == PhaseMode::kFlashCrowd) {
      if (!positive_finite(phase.spike)) {
        return at + ": spike must be > 0 and finite";
      }
      if (!(phase.hot_fraction >= 0.0) || phase.hot_fraction > 1.0) {
        return at + ": hot_fraction must be in [0, 1]";
      }
    } else if (phase.spike != 1.0 || phase.hot_fraction != 1.0 ||
               phase.hot_key != 0) {
      return at + ": hot_key/spike/hot_fraction apply to \"flash_crowd\" "
                  "phases only";
    }
  }
  return std::nullopt;
}

PhaseProgram::PhaseProgram(PhaseProgramSpec spec) : spec_(std::move(spec)) {
  starts_.reserve(spec_.program.size());
  SimTime at = 0;
  for (const PhaseSpec& phase : spec_.program) {
    starts_.push_back(at);
    at += phase.hold;
  }
  total_ = at;
}

SimTime PhaseProgram::phase_start(std::size_t index) const noexcept {
  return starts_[index];
}

std::size_t PhaseProgram::phase_index_at(SimTime at) const noexcept {
  // Programs are a handful of phases; a linear scan beats a binary search
  // at these sizes and keeps the lookup branch-predictable.
  std::size_t index = 0;
  while (index + 1 < starts_.size() && at >= starts_[index + 1]) ++index;
  return index;
}

namespace {

/// The plain multiplier tuple a phase settles at — a flash crowd's spike
/// and redirect stay local to the phase (file comment in phases.hpp).
PhaseRates endpoint_of(const PhaseSpec& phase) noexcept {
  PhaseRates rates;
  rates.churn = phase.churn_rate;
  rates.fetch = phase.fetch_rate;
  rates.publish = phase.publish_rate;
  rates.crawl = phase.crawl_rate;
  rates.population = phase.population;
  return rates;
}

}  // namespace

PhaseRates PhaseProgram::rates_at(SimTime at) const noexcept {
  const std::size_t index = phase_index_at(at);
  const PhaseSpec& phase = spec_.program[index];
  const PhaseRates from =
      index == 0 ? PhaseRates{} : endpoint_of(spec_.program[index - 1]);
  const PhaseRates to = endpoint_of(phase);
  if (at >= total_) return to;  // tail: hold at the last endpoint

  switch (phase.mode) {
    case PhaseMode::kHold:
      return to;
    case PhaseMode::kRamp: {
      const double f = static_cast<double>(at - starts_[index]) /
                       static_cast<double>(phase.hold);
      PhaseRates rates;
      rates.churn = from.churn + (to.churn - from.churn) * f;
      rates.fetch = from.fetch + (to.fetch - from.fetch) * f;
      rates.publish = from.publish + (to.publish - from.publish) * f;
      rates.crawl = from.crawl + (to.crawl - from.crawl) * f;
      rates.population = from.population + (to.population - from.population) * f;
      return rates;
    }
    case PhaseMode::kBurst: {
      // Left-closed half-cycles starting hi: [start, start+switch) is hi,
      // the next window lo, and so on — edges land exactly on multiples of
      // `switch_interval` past the phase start.
      const auto cycle = static_cast<std::uint64_t>(
          (at - starts_[index]) / phase.switch_interval);
      return (cycle % 2 == 0) ? to : from;
    }
    case PhaseMode::kFlashCrowd: {
      PhaseRates rates = to;
      rates.fetch *= phase.spike;
      rates.flash = true;
      rates.hot_key = phase.hot_key;
      rates.hot_fraction = phase.hot_fraction;
      return rates;
    }
  }
  return to;
}

}  // namespace ipfs::scenario
