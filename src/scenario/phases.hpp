// Time-varying workload programs: ramps, bursts, and flash crowds
// (DESIGN.md §14).
//
// `PhaseProgramSpec` is the declarative description of a piecewise
// schedule: an ordered list of phases, each holding for a fixed duration
// and carrying target multipliers for churn rates, content publish/fetch
// rates, crawler cadence, and the admitted population fraction.
// `PhaseProgram` is the compiled runtime form: it answers "what are the
// effective rate multipliers at simulation time t?" for
// `scenario::CampaignEngine`, which folds them into its per-draw sampling
// sites when a scenario file carries a `"phases"` section
// (docs/SCENARIOS.md).
//
// Phase modes:
//   - hold:        the target multipliers apply for the whole phase.
//   - ramp:        each multiplier interpolates linearly from the previous
//                  phase's endpoint (the neutral 1.0 baseline for the first
//                  phase) to this phase's target over the hold window.
//   - burst:       a square wave toggling between the target ("hi") and the
//                  previous phase's endpoint ("lo") every `switch_interval`,
//                  starting hi at the phase start; edges are left-closed,
//                  so an instant exactly on an edge takes the new level.
//   - flash_crowd: a hold whose fetch traffic is additionally multiplied by
//                  `spike` and redirected to `hot_key` with probability
//                  `hot_fraction` (a pure per-(node, fetch) hash).
//
// A phase's *endpoint* is its plain target multiplier tuple — a flash
// crowd's spike and redirect are local to the phase and never leak into a
// following ramp or burst baseline.  After the program ends the run
// continues as a hold at the last phase's endpoint (no oscillation, no
// flash redirect).
//
// Determinism contract (DESIGN.md §5/§14): `rates_at` is a pure function
// of the query time and the spec — no mutable state — so every engine
// sampling site stays a pure function of (node, index, phase, seed) and
// `runtime::ParallelTrialRunner` sweeps and `ShardPlan` runs remain
// byte-identical at any worker or shard count.  The program clock is the
// absolute simulation clock: phase boundaries sit at cumulative hold
// offsets from t = 0 and never rebase `churn.diurnal`'s `phase_ms` offset
// (see `ChurnModel::rate_multiplier`); combining a churn-modulating
// program with a diurnal section therefore requires the explicit
// `"diurnal_clock": "absolute"` acknowledgement.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/sim_time.hpp"

namespace ipfs::scenario {

enum class PhaseMode : std::uint8_t {
  kHold,
  kRamp,
  kBurst,
  kFlashCrowd,
};

[[nodiscard]] std::string_view to_string(PhaseMode mode) noexcept;
[[nodiscard]] std::optional<PhaseMode> phase_mode_from_string(
    std::string_view text) noexcept;

/// One phase of a program.  All multipliers are targets (endpoints); how
/// they apply across the hold window depends on `mode` (file comment).
struct PhaseSpec {
  std::string name;  ///< optional label for exports ("" = unnamed)
  PhaseMode mode = PhaseMode::kHold;
  common::SimDuration hold = common::kHour;  ///< phase length, > 0

  // Target multipliers.  Rates divide the model's sampled intervals (a
  // multiplier of 2 doubles the event rate); `population` is the admitted
  // fraction of the churned population in (0, 1].
  double churn_rate = 1.0;
  double fetch_rate = 1.0;
  double publish_rate = 1.0;
  double crawl_rate = 1.0;
  double population = 1.0;

  // burst only: square-wave half-period, > 0.
  common::SimDuration switch_interval = 0;

  // flash_crowd only.
  std::uint32_t hot_key = 0;  ///< key index the crowd converges on
  double spike = 1.0;         ///< extra fetch-rate multiplier, > 0
  double hot_fraction = 1.0;  ///< fraction of fetches redirected, [0, 1]

  bool operator==(const PhaseSpec&) const = default;
};

/// The declarative `"phases"` section: an ordered program plus the
/// explicit diurnal-clock acknowledgement (satellite of DESIGN.md §14).
struct PhaseProgramSpec {
  std::vector<PhaseSpec> program;

  /// True when the scenario carried `"diurnal_clock": "absolute"` — the
  /// only defined composition with `churn.diurnal`: both modulations read
  /// the absolute simulation clock and multiply.  Required whenever the
  /// program modulates churn while a diurnal section is engaged.
  bool diurnal_clock_absolute = false;

  /// Sum of every phase's hold.
  [[nodiscard]] common::SimDuration total_duration() const noexcept;

  /// True when any phase's churn or population target is not neutral.
  [[nodiscard]] bool modulates_churn() const noexcept;

  /// True when any phase's fetch/publish target, spike, or mode touches
  /// the content workload.
  [[nodiscard]] bool modulates_content() const noexcept;

  /// True when any phase's crawl target is not neutral.
  [[nodiscard]] bool modulates_crawl() const noexcept;

  /// Structural validation with `phases.`-prefixed field paths; section
  /// interactions (churn/content/diurnal presence) live in
  /// `CampaignEngine::validate`.
  [[nodiscard]] static std::optional<std::string> validate(
      const PhaseProgramSpec& spec);

  bool operator==(const PhaseProgramSpec&) const = default;
};

/// Instantaneous multipliers at one simulation time.
struct PhaseRates {
  double churn = 1.0;
  double fetch = 1.0;  ///< includes a flash crowd's spike
  double publish = 1.0;
  double crawl = 1.0;
  double population = 1.0;
  bool flash = false;  ///< a flash_crowd phase is active
  std::uint32_t hot_key = 0;
  double hot_fraction = 0.0;

  bool operator==(const PhaseRates&) const = default;
};

/// Compiled program: cumulative phase offsets plus the pure time lookup.
class PhaseProgram {
 public:
  explicit PhaseProgram(PhaseProgramSpec spec);

  [[nodiscard]] const PhaseProgramSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] std::size_t size() const noexcept {
    return spec_.program.size();
  }

  /// Absolute start of phase `index` (cumulative holds before it).
  [[nodiscard]] common::SimTime phase_start(std::size_t index) const noexcept;

  /// Index of the phase covering `at` (left-closed windows); times past
  /// the program clamp to the last phase.
  [[nodiscard]] std::size_t phase_index_at(common::SimTime at) const noexcept;

  /// The effective multipliers at `at`.  Pure: same input, same output,
  /// any thread.
  [[nodiscard]] PhaseRates rates_at(common::SimTime at) const noexcept;

  [[nodiscard]] common::SimDuration total_duration() const noexcept {
    return total_;
  }

 private:
  PhaseProgramSpec spec_;
  std::vector<common::SimTime> starts_;  ///< per-phase absolute starts
  common::SimDuration total_ = 0;
};

}  // namespace ipfs::scenario
