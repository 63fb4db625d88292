// Session-level churn models (DESIGN.md §10).
//
// `ChurnSpec` is the declarative description of a peer lifecycle process:
// per-category session-length and intersession-gap distributions
// (exponential, Weibull, lognormal — the shapes reported for P2P churn)
// plus optional diurnal rate modulation.  `ChurnModel` is the compiled
// runtime form: it answers "how long is node n's session number s?" and
// "how long does n stay away after it?" for the consumers that animate
// lifecycles on the simulation clock — `scenario::CampaignEngine` when a
// scenario file carries a `"churn"` section (docs/SCENARIOS.md), and
// `runtime::Testbed` for protocol-fidelity nodes registered through
// `TestbedBuilder::churn`.
//
// Determinism contract (DESIGN.md §5): every draw is a *pure function* of
// (node, session-index, model seed) — a fresh generator is derived per
// draw, no mutable RNG state is kept — so draws are independent of call
// order and `runtime::ParallelTrialRunner` sweeps stay byte-identical at
// any worker count.  Diurnal modulation additionally reads the simulation
// time the gap starts at, which is itself a deterministic function of the
// same seed chain.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "common/sim_time.hpp"
#include "scenario/population_spec.hpp"

namespace ipfs::common {
class JsonWriter;
}

namespace ipfs::scenario {

/// Probability that a dual-homed peer presents its alternate IP — shared
/// by the per-connection alternation (campaign dial addresses) and the
/// per-session redraw on churned rejoins, so the two rules cannot drift.
inline constexpr double kDualHomeAlternateProbability = 0.35;

/// A positive session/intersession length distribution.  The three shapes
/// are the ones the churn literature fits to measured P2P session traces;
/// parameters are in milliseconds so specs round-trip exactly.
struct SessionDistribution {
  enum class Kind : std::uint8_t {
    kExponential,  ///< memoryless baseline; parameter `mean_ms`
    kWeibull,      ///< heavy-tailed for shape < 1; `shape`, `scale_ms`
    kLognormal,    ///< multiplicative dynamics; `median_ms`, `sigma`
  };

  Kind kind = Kind::kExponential;
  double mean_ms = 0.0;    ///< exponential only: mean
  double shape = 0.0;      ///< weibull only: k > 0
  double scale_ms = 0.0;   ///< weibull only: lambda > 0
  double median_ms = 0.0;  ///< lognormal only: exp(mu) > 0
  double sigma = 0.0;      ///< lognormal only: underlying-normal sigma >= 0

  [[nodiscard]] static SessionDistribution exponential(double mean_ms) {
    SessionDistribution d;
    d.kind = Kind::kExponential;
    d.mean_ms = mean_ms;
    return d;
  }
  [[nodiscard]] static SessionDistribution weibull(double shape, double scale_ms) {
    SessionDistribution d;
    d.kind = Kind::kWeibull;
    d.shape = shape;
    d.scale_ms = scale_ms;
    return d;
  }
  [[nodiscard]] static SessionDistribution lognormal(double median_ms,
                                                     double sigma) {
    SessionDistribution d;
    d.kind = Kind::kLognormal;
    d.median_ms = median_ms;
    d.sigma = sigma;
    return d;
  }

  /// One draw (milliseconds, >= 0) consuming `rng`.  Callers wanting the
  /// pure-function contract derive a fresh generator per draw
  /// (`ChurnModel` does).
  [[nodiscard]] double sample(common::Rng& rng) const noexcept;

  /// Analytic mean / median in milliseconds (property-test oracles).
  [[nodiscard]] double analytic_mean() const noexcept;
  [[nodiscard]] double analytic_median() const noexcept;

  [[nodiscard]] bool operator==(const SessionDistribution&) const = default;
};

[[nodiscard]] std::string_view to_string(SessionDistribution::Kind kind) noexcept;

/// Writes `distribution` as a scenario file's "churn" section spells it
/// (`{"kind": ..., <that kind's parameters>}`); defined beside the
/// scenario field tables in scenario_spec.cpp.
void to_json(common::JsonWriter& writer, const SessionDistribution& distribution);

/// Sinusoidal arrival-rate modulation: intersession gaps are divided by
/// `1 + amplitude * cos(2*pi * (t - phase) / period)`, so rejoins cluster
/// around `phase` (+ multiples of `period`) and thin out half a period
/// away — the day/night pattern of user-operated nodes.
struct DiurnalSpec {
  double amplitude = 0.0;                ///< modulation depth, [0, 1)
  common::SimDuration period = common::kDay;
  common::SimDuration phase = 0;         ///< peak offset, [0, period)

  [[nodiscard]] bool operator==(const DiurnalSpec&) const = default;
};

/// Per-category distribution override; unset categories use the spec's
/// top-level `session` / `gap`.
struct ChurnCategorySpec {
  Category category = Category::kNormalUser;
  SessionDistribution session;
  SessionDistribution gap;

  [[nodiscard]] bool operator==(const ChurnCategorySpec&) const = default;
};

/// The full declarative churn description — the `"churn"` section of a
/// scenario file, or the argument of `TestbedBuilder::churn`.
struct ChurnSpec {
  /// Default session length: ~3.5 h heavy-tailed (Weibull shape < 1), the
  /// regime the paper's Fig. 7 session CDF sits in.
  SessionDistribution session = SessionDistribution::weibull(0.55, 7'200'000.0);
  /// Default intersession gap: lognormal around 2 h.
  SessionDistribution gap = SessionDistribution::lognormal(7'200'000.0, 1.1);
  std::vector<ChurnCategorySpec> categories;
  std::optional<DiurnalSpec> diurnal;

  /// Probability that a node is inside a session when the run begins.
  double initial_online = 0.6;
  /// Cadence of the true-population samples a churned campaign publishes
  /// (`measure::PopulationSample`, the observed-vs-true baseline).
  common::SimDuration sample_interval = common::kHour;

  /// Why this spec cannot run, or nullopt when valid.  Errors carry the
  /// scenario-file field path ("churn.session: mean_ms must be > 0").
  [[nodiscard]] static std::optional<std::string> validate(const ChurnSpec& spec);

  [[nodiscard]] bool operator==(const ChurnSpec&) const = default;
};

/// The compiled runtime form of a `ChurnSpec`: pure per-(node, session)
/// sampling of session lengths, gaps, initial state and address redraws.
/// Cheap to copy; thread-safe because it is immutable after construction.
class ChurnModel {
 public:
  /// `seed` decorrelates lifecycle draws from every other RNG-tree branch;
  /// the spec is assumed valid (callers run `ChurnSpec::validate` first —
  /// the scenario layer always does).
  explicit ChurnModel(ChurnSpec spec = {}, std::uint64_t seed = 0);

  [[nodiscard]] const ChurnSpec& spec() const noexcept { return spec_; }

  /// Length of node `node`'s session number `session` (>= 0 ms; consumers
  /// clamp to their own floor).  Category-less overload for testbed nodes.
  [[nodiscard]] common::SimDuration session_length(std::uint32_t node,
                                                   std::uint32_t session) const;
  [[nodiscard]] common::SimDuration session_length(std::uint32_t node,
                                                   std::uint32_t session,
                                                   Category category) const;

  /// Offline gap following session `session`, with diurnal modulation
  /// evaluated at `at` (the gap's start on the simulation clock).
  [[nodiscard]] common::SimDuration gap_length(std::uint32_t node,
                                               std::uint32_t session,
                                               common::SimTime at) const;
  [[nodiscard]] common::SimDuration gap_length(std::uint32_t node,
                                               std::uint32_t session,
                                               common::SimTime at,
                                               Category category) const;

  /// Whether `node` starts the run inside a session (stable hash vs
  /// `spec().initial_online`).
  [[nodiscard]] bool initially_online(std::uint32_t node) const noexcept;

  /// Whether a rejoin re-draws the node's dial address (dual-homed peers
  /// come back from their other IP with the same probability the
  /// per-connection alternation uses).
  [[nodiscard]] bool redraw_address(std::uint32_t node,
                                    std::uint32_t session) const noexcept;

  /// The arrival-rate multiplier at `at` (1.0 without a diurnal spec).
  [[nodiscard]] double rate_multiplier(common::SimTime at) const noexcept;

 private:
  [[nodiscard]] const SessionDistribution& session_for(Category category) const;
  [[nodiscard]] const SessionDistribution& gap_for(Category category) const;
  [[nodiscard]] common::Rng draw_rng(std::uint64_t salt, std::uint32_t node,
                                     std::uint32_t session) const noexcept;

  ChurnSpec spec_;
  std::uint64_t seed_ = 0;
  /// Category -> override slot (or -1), compiled from `spec_.categories`.
  std::array<std::int32_t, kCategoryCount> override_slot_{};
};

}  // namespace ipfs::scenario
