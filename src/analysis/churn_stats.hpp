// Session-level churn statistics (DESIGN.md §10).
//
// The paper observes churn from a passive vantage: per-PID first/last-seen
// times and connection intervals.  This module reconstructs *sessions*
// from those intervals (gap-threshold clustering, the standard technique
// on passive traces), summarises their length distribution as a CDF and —
// unique to the simulator — compares the observed network size (peers
// inside a reconstructed session) against the true one using the
// `measure::PopulationSample` ground truth a churned campaign publishes.
#pragma once

#include <cstdint>
#include <vector>

#include "common/stats.hpp"
#include "measure/dataset.hpp"
#include "measure/sink.hpp"

namespace ipfs::analysis {

/// One reconstructed peer session: a maximal run of a peer's connections
/// in which consecutive contacts are separated by at most the clustering
/// gap.
struct SessionTrace {
  measure::PeerIndex peer = 0;
  common::SimTime begin = 0;
  common::SimTime end = 0;
  std::uint32_t connections = 0;
  /// Right-censored: the trace window closed before the clustering gap
  /// after the last contact elapsed, so the session may still have been
  /// open at trace end — `length()` is a lower bound, not a completed
  /// session length.  Only set when the dataset carries a real
  /// measurement window (`measurement_end > measurement_start`).
  bool censored = false;

  [[nodiscard]] common::SimDuration length() const noexcept { return end - begin; }
};

/// Cluster a dataset's connection records into per-peer sessions: two
/// consecutive connections of one peer belong to the same session when the
/// silence between them is <= `max_gap`.  Sessions are returned grouped by
/// peer, in time order within each peer.  A session whose last contact sits
/// within `max_gap` of the dataset's `measurement_end` is flagged
/// `censored` — the trace ended before its completion could be confirmed.
[[nodiscard]] std::vector<SessionTrace> reconstruct_sessions(
    const measure::Dataset& dataset,
    common::SimDuration max_gap = 30 * common::kMinute);

/// Aggregate session statistics for one vantage.  Length statistics
/// (`mean`, `median`, the CDF) cover *completed* sessions only; sessions
/// still open at trace end are counted in `censored_sessions` and excluded
/// — treating a truncated tail observation as a completed session biases
/// every length statistic downward.
struct ChurnStats {
  std::size_t session_count = 0;        ///< all sessions, censored included
  std::size_t censored_sessions = 0;    ///< sessions still open at trace end
  std::size_t peers = 0;                ///< peers with >= 1 session
  std::size_t multi_session_peers = 0;  ///< peers observed leaving *and* returning
  double mean_session_s = 0.0;
  double median_session_s = 0.0;
  /// Empirical *completed*-session-length CDF in seconds (Fig. 7-style,
  /// log-x ready via `common::Cdf::log_spaced_points`).
  common::Cdf session_length_cdf;

  [[nodiscard]] std::size_t completed_sessions() const noexcept {
    return session_count - censored_sessions;
  }
};

[[nodiscard]] ChurnStats compute_churn_stats(
    const std::vector<SessionTrace>& sessions);

/// One aligned observed-vs-true point: how many peers the vantage believed
/// were present versus how many truly were.
struct ObservedVsTrueSample {
  common::SimTime at = 0;
  std::size_t observed = 0;     ///< peers inside a *reconstructed* session at `at`
  std::size_t true_online = 0;  ///< ground truth from the engine
  std::size_t true_total = 0;   ///< full population size
};

/// Evaluate the reconstructed sessions at each ground-truth sample time
/// (exactly — the truth series need not be uniformly spaced or sorted).
/// Observed <= true_online up to reconstruction error; observed <
/// true_total always, because a passive vantage never sees everyone.
[[nodiscard]] std::vector<ObservedVsTrueSample> observed_vs_true(
    const std::vector<SessionTrace>& sessions,
    const std::vector<measure::PopulationSample>& truth);

}  // namespace ipfs::analysis
