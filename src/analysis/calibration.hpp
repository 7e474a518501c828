// Churn-model calibration from a measured trace (DESIGN.md §15).
//
// Closes ROADMAP item 2: instead of hand-tuning the per-category session
// machinery, point this module at the peer-record JSON a passive
// measurement run exports (`measure::JsonExportSink`, the
// `examples/passive_measurement` artefact) and get back (a) a calibrated
// strict `"churn"` scenario section that round-trips byte-exactly through
// `scenario::ScenarioSpec`, and (b) a fit report with per-group
// parameters, goodness-of-fit statistics and censoring counts.
//
// Pipeline: read the trace with `measure::read_dataset` (the dataset
// document's own strict reader, field-path errors) → reconstruct
// sessions with the gap-threshold logic of `analysis::churn_stats` →
// fit exponential / Weibull / lognormal session-length and
// intersession-gap distributions by maximum likelihood *with
// right-censoring* of sessions still open at trace end → select the best
// family by Kolmogorov–Smirnov distance (Anderson–Darling as tie-break)
// → emit the scenario and, optionally, re-run it and compare the
// simulated session-length CDF against the measured one (two-sample KS —
// the closed loop).
//
// Determinism contract (DESIGN.md §5/§15): no entropy source appears
// anywhere in this module — the fits are pure functions of the trace
// bytes, the closed-loop run is an ordinary seeded campaign, and the
// emitted scenario/report bytes are identical across repeated runs,
// worker counts and machines.
#pragma once

#include <cstdint>
#include <expected>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/churn_stats.hpp"
#include "measure/dataset.hpp"
#include "scenario/churn.hpp"
#include "scenario/scenario_spec.hpp"

namespace ipfs::analysis::calibrate {

/// One duration observation (milliseconds).  `censored` marks a
/// right-censored value: the true duration is *at least* `value_ms`, the
/// trace ended before its completion could be confirmed.
struct Observation {
  double value_ms = 0.0;
  bool censored = false;
};

/// One fitted candidate family.
struct FitResult {
  scenario::SessionDistribution dist;
  double ks = 1.0;   ///< KS distance, uncensored sample vs fitted CDF
  double ad = 0.0;   ///< Anderson–Darling A² on the same sample
  bool ok = false;   ///< enough data and the estimator converged
  std::string note;  ///< why not ok ("" when ok)
};

/// All three candidates plus the selected family.
struct FamilySelection {
  FitResult exponential;
  FitResult weibull;
  FitResult lognormal;
  /// "exponential" / "weibull" / "lognormal", or "" when nothing fit.
  std::string selected;

  [[nodiscard]] bool any_ok() const noexcept { return !selected.empty(); }
  [[nodiscard]] const FitResult& best() const;
};

// ---- estimators (exposed for tests; all pure functions) --------------------

/// Censored MLE per family.  Each needs >= `kMinUncensored` uncensored
/// observations; values are clamped to >= 1 ms (the trace resolution).
inline constexpr std::size_t kMinUncensored = 5;

[[nodiscard]] FitResult fit_exponential(const std::vector<Observation>& sample);
[[nodiscard]] FitResult fit_weibull(const std::vector<Observation>& sample);
[[nodiscard]] FitResult fit_lognormal(const std::vector<Observation>& sample);

/// Fit all three families and select the best by KS with a parsimony
/// tie-break: within `kKsTieTolerance` the family with fewer parameters
/// wins (exponential < weibull/lognormal), then the lower AD, then the
/// fixed order exponential, weibull, lognormal.
inline constexpr double kKsTieTolerance = 0.01;

[[nodiscard]] FamilySelection select_family(const std::vector<Observation>& sample);

/// KS distance between the uncensored part of `sample` and `dist`'s CDF.
[[nodiscard]] double ks_statistic(const std::vector<Observation>& sample,
                                  const scenario::SessionDistribution& dist);

/// Anderson–Darling A² of the uncensored part of `sample` under `dist`.
[[nodiscard]] double ad_statistic(const std::vector<Observation>& sample,
                                  const scenario::SessionDistribution& dist);

/// A two-sample KS distance and where it is reached.
struct KsDistance {
  double distance = 1.0;  ///< sup |F_a - F_b|; 1 when a sample is empty
  double at = 0.0;        ///< the first sample value reaching it
  double cdf_a = 0.0;     ///< F_a(at)
  double cdf_b = 0.0;     ///< F_b(at)
};

/// Two-sample KS distance between empirical CDFs (the closed-loop metric).
[[nodiscard]] KsDistance two_sample_ks(std::vector<double> a, std::vector<double> b);

/// CDF of `dist` at `t_ms` (the analytic form the KS/AD statistics use;
/// exposed so tests can cross-check against `analytic_median`).
[[nodiscard]] double distribution_cdf(const scenario::SessionDistribution& dist,
                                      double t_ms);

// ---- the pipeline ----------------------------------------------------------

struct Options {
  /// Gap-threshold for session reconstruction (and the censoring horizon).
  common::SimDuration max_gap = 30 * common::kMinute;
  /// Name of the emitted scenario (its `"name"` field).
  std::string name = "calibrated";
  /// Base seed of the emitted scenario (and the closed-loop run).
  std::uint64_t seed = 20211203;
  /// Population scale of the emitted scenario / closed-loop run.
  double verify_scale = 0.01;
  /// Run the closed loop (re-simulate and compare CDFs)?
  bool verify = true;
  /// Closed-loop acceptance: two-sample KS must stay <= this.
  double ks_threshold = 0.35;
};

/// Session/gap fits of one peer group ("all", "dht_servers", "clients").
struct GroupFit {
  std::size_t session_observations = 0;  ///< incl. censored
  std::size_t session_censored = 0;
  std::size_t gap_observations = 0;  ///< incl. the censored final silence
  std::size_t gap_censored = 0;
  FamilySelection session;
  FamilySelection gap;
};

/// Closed-loop verification outcome.
struct ClosedLoop {
  bool ran = false;
  double scale = 0.0;
  std::uint64_t seed = 0;
  std::size_t simulated_sessions = 0;  ///< completed sessions, re-simulated
  double ks = 0.0;                     ///< two-sample KS, measured vs simulated
  double ks_length_ms = 0.0;  ///< the session length where `ks` is reached
  double measured_cdf = 0.0;   ///< measured CDF at `ks_length_ms`
  double simulated_cdf = 0.0;  ///< simulated CDF at `ks_length_ms`
  double threshold = 0.0;
  bool pass = true;  ///< ks <= threshold (true when !ran)
};

/// Everything `run` produces: the emitted scenario plus report inputs.
struct Result {
  scenario::ScenarioSpec scenario;
  measure::Dataset trace;         ///< the parsed dataset
  common::SimDuration max_gap = 0;
  ChurnStats measured;            ///< stats over the reconstructed sessions
  /// Group name -> fits, in report order ("all", "dht_servers", "clients";
  /// groups without sessions are omitted).
  std::map<std::string, GroupFit> groups;
  ClosedLoop loop;

  /// The pretty-printed fit report (stable key order, trailing newline).
  [[nodiscard]] std::string report_json() const;
};

/// The full calibration pipeline over raw trace bytes.  Errors carry the
/// trace field path (parse stage) or a pipeline-stage description ("no
/// completed sessions in trace — cannot fit").
[[nodiscard]] std::expected<Result, std::string> run(std::string_view trace_text,
                                                     const Options& options = {});

}  // namespace ipfs::analysis::calibrate
