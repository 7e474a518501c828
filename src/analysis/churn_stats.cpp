#include "analysis/churn_stats.hpp"

#include <algorithm>

namespace ipfs::analysis {

using common::SimDuration;
using common::SimTime;

std::vector<SessionTrace> reconstruct_sessions(const measure::Dataset& dataset,
                                               SimDuration max_gap) {
  std::vector<SessionTrace> sessions;
  // A session whose last contact is within `max_gap` of trace end is
  // right-censored: had the trace run longer, the same peer might have
  // reconnected and extended it.  Hand-built datasets without a real
  // measurement window (end <= start) never censor.
  const bool has_window = dataset.measurement_end > dataset.measurement_start;
  auto finish = [&](SessionTrace session) {
    session.censored =
        has_window && session.end + max_gap > dataset.measurement_end;
    sessions.push_back(session);
  };
  const auto& by_peer = dataset.connections_by_peer();
  for (measure::PeerIndex peer = 0; peer < by_peer.size(); ++peer) {
    const std::vector<std::uint32_t>& conn_ids = by_peer[peer];
    if (conn_ids.empty()) continue;
    // Connections are recorded in close order; clustering needs open order.
    std::vector<std::pair<SimTime, SimTime>> intervals;
    intervals.reserve(conn_ids.size());
    for (const std::uint32_t id : conn_ids) {
      const measure::ConnRecord& record = dataset.connections()[id];
      intervals.emplace_back(record.opened, record.closed);
    }
    std::sort(intervals.begin(), intervals.end());

    SessionTrace current;
    current.peer = peer;
    current.begin = intervals.front().first;
    current.end = intervals.front().second;
    current.connections = 1;
    for (std::size_t i = 1; i < intervals.size(); ++i) {
      const auto& [opened, closed] = intervals[i];
      if (opened - current.end <= max_gap) {
        current.end = std::max(current.end, closed);
        ++current.connections;
      } else {
        finish(current);
        current.begin = opened;
        current.end = closed;
        current.connections = 1;
      }
    }
    finish(current);
  }
  return sessions;
}

ChurnStats compute_churn_stats(const std::vector<SessionTrace>& sessions) {
  ChurnStats stats;
  stats.session_count = sessions.size();
  std::vector<double> lengths_s;
  lengths_s.reserve(sessions.size());
  // Sessions arrive grouped by peer (reconstruct_sessions' order).
  std::size_t run_length = 0;
  measure::PeerIndex run_peer = 0;
  auto close_run = [&] {
    if (run_length == 0) return;
    ++stats.peers;
    if (run_length >= 2) ++stats.multi_session_peers;
  };
  for (const SessionTrace& session : sessions) {
    if (session.censored) {
      ++stats.censored_sessions;
    } else {
      lengths_s.push_back(static_cast<double>(session.length()) / 1000.0);
    }
    if (run_length == 0 || session.peer != run_peer) {
      close_run();
      run_peer = session.peer;
      run_length = 0;
    }
    ++run_length;
  }
  close_run();
  stats.median_session_s = common::median(lengths_s);
  common::RunningStats moments;
  for (const double length : lengths_s) moments.add(length);
  stats.mean_session_s = moments.mean();
  stats.session_length_cdf = common::Cdf(std::move(lengths_s));
  return stats;
}

namespace {

/// ±1 session-boundary events sorted by time, joins before leaves at
/// equal times (a session [begin, end] covers both endpoints).
std::vector<std::pair<SimTime, int>> session_edges(
    const std::vector<SessionTrace>& sessions) {
  std::vector<std::pair<SimTime, int>> edges;
  edges.reserve(sessions.size() * 2);
  for (const SessionTrace& session : sessions) {
    edges.emplace_back(session.begin, +1);
    edges.emplace_back(session.end, -1);
  }
  std::sort(edges.begin(), edges.end(),
            [](const auto& a, const auto& b) {
              return a.first != b.first ? a.first < b.first : a.second > b.second;
            });
  return edges;
}

/// Number of sessions covering each of `times` (must be non-decreasing):
/// one sweep over the edges instead of testing every session per query.
std::vector<std::uint64_t> active_at(
    const std::vector<std::pair<SimTime, int>>& edges,
    const std::vector<SimTime>& times) {
  std::vector<std::uint64_t> counts;
  counts.reserve(times.size());
  std::size_t next_edge = 0;
  std::int64_t active = 0;
  for (const SimTime at : times) {
    // Apply every +1 with time <= at and every -1 with time < at.
    while (next_edge < edges.size() &&
           (edges[next_edge].first < at ||
            (edges[next_edge].first == at && edges[next_edge].second > 0))) {
      active += edges[next_edge].second;
      ++next_edge;
    }
    counts.push_back(static_cast<std::uint64_t>(std::max<std::int64_t>(active, 0)));
  }
  return counts;
}

}  // namespace

std::vector<ObservedVsTrueSample> observed_vs_true(
    const std::vector<SessionTrace>& sessions,
    const std::vector<measure::PopulationSample>& truth) {
  std::vector<ObservedVsTrueSample> series;
  series.reserve(truth.size());
  if (truth.empty()) return series;
  // Evaluate at each ground-truth timestamp exactly (no uniform-grid
  // assumption).  Engine samples arrive in time order; sort an index
  // permutation anyway so filtered or merged series stay correct.
  std::vector<std::size_t> order(truth.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&truth](std::size_t a, std::size_t b) {
    return truth[a].at < truth[b].at;
  });
  std::vector<SimTime> times;
  times.reserve(truth.size());
  for (const std::size_t i : order) times.push_back(truth[i].at);
  const std::vector<std::uint64_t> counts = active_at(session_edges(sessions), times);

  series.resize(truth.size());
  for (std::size_t rank = 0; rank < order.size(); ++rank) {
    ObservedVsTrueSample& sample = series[order[rank]];
    sample.at = truth[order[rank]].at;
    sample.observed = static_cast<std::size_t>(counts[rank]);
    sample.true_online = truth[order[rank]].online;
    sample.true_total = truth[order[rank]].total;
  }
  return series;
}

}  // namespace ipfs::analysis
