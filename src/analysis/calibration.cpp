#include "analysis/calibration.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <utility>

#include "common/json.hpp"
#include "measure/sink.hpp"
#include "scenario/campaign.hpp"

namespace ipfs::analysis::calibrate {

using common::JsonWriter;
using common::SimDuration;
using scenario::SessionDistribution;

namespace {

// ---- small math helpers ----------------------------------------------------

/// Standard-normal CDF via erfc (stable in both tails).
double normal_cdf(double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); }

double normal_pdf(double x) {
  static const double kInvSqrt2Pi = 1.0 / std::sqrt(2.0 * std::acos(-1.0));
  return kInvSqrt2Pi * std::exp(-0.5 * x * x);
}

/// Inverse Mills ratio phi(a) / (1 - Phi(a)), with the asymptotic
/// expansion in the far right tail where both terms underflow.
double inverse_mills(double a) {
  if (a > 6.0) return a + 1.0 / a;
  const double tail = 0.5 * std::erfc(a / std::sqrt(2.0));
  if (tail <= 0.0) return a + 1.0 / std::max(a, 1.0);
  return normal_pdf(a) / tail;
}

/// Uncensored values, clamped to the 1 ms trace resolution and sorted.
std::vector<double> sorted_uncensored(const std::vector<Observation>& sample) {
  std::vector<double> values;
  values.reserve(sample.size());
  for (const Observation& obs : sample) {
    if (!obs.censored) values.push_back(std::max(obs.value_ms, 1.0));
  }
  std::sort(values.begin(), values.end());
  return values;
}

FitResult failed_fit(SessionDistribution::Kind kind, std::string note) {
  FitResult fit;
  fit.dist.kind = kind;
  fit.ok = false;
  fit.note = std::move(note);
  return fit;
}

/// Shared tail of every fitter: attach goodness-of-fit statistics and
/// sanity-check the parameters against the analytic oracles.
FitResult finish_fit(SessionDistribution dist,
                     const std::vector<Observation>& sample) {
  const double mean = dist.analytic_mean();
  const double median = dist.analytic_median();
  if (!std::isfinite(mean) || mean <= 0.0 || !std::isfinite(median) ||
      median <= 0.0) {
    return failed_fit(dist.kind, "degenerate parameters (analytic oracle)");
  }
  FitResult fit;
  fit.dist = dist;
  fit.ks = ks_statistic(sample, dist);
  fit.ad = ad_statistic(sample, dist);
  fit.ok = true;
  return fit;
}

// ---- observation extraction ------------------------------------------------

struct GroupObservations {
  std::vector<Observation> sessions;
  std::vector<Observation> gaps;
};

/// Split the reconstructed sessions into the report groups and derive the
/// per-peer intersession gaps.  The final silence after a peer's last
/// *completed* session is a right-censored gap observation (the peer had
/// not returned by trace end); gaps are left-truncated at `max_gap` by
/// construction, which DESIGN.md §15 documents as a known limitation.
std::map<std::string, GroupObservations> extract_observations(
    const measure::Dataset& dataset, const std::vector<SessionTrace>& sessions) {
  std::map<std::string, GroupObservations> groups;
  const bool has_window = dataset.measurement_end > dataset.measurement_start;
  auto add = [&groups](const std::string& name, const Observation& obs,
                       bool is_gap) {
    auto& group = groups[name];
    (is_gap ? group.gaps : group.sessions).push_back(obs);
  };
  auto add_both = [&](bool dht_server, const Observation& obs, bool is_gap) {
    add("all", obs, is_gap);
    add(dht_server ? "dht_servers" : "clients", obs, is_gap);
  };
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    const SessionTrace& session = sessions[i];
    const bool dht = dataset.record(session.peer).ever_dht_server;
    add_both(dht,
             {std::max(static_cast<double>(session.length()), 1.0),
              session.censored},
             /*is_gap=*/false);
    const bool last_of_peer =
        i + 1 == sessions.size() || sessions[i + 1].peer != session.peer;
    if (!last_of_peer) {
      const double gap_ms =
          static_cast<double>(sessions[i + 1].begin - session.end);
      add_both(dht, {std::max(gap_ms, 1.0), false}, /*is_gap=*/true);
    } else if (has_window && !session.censored) {
      const double silence_ms =
          static_cast<double>(dataset.measurement_end - session.end);
      add_both(dht, {std::max(silence_ms, 1.0), true}, /*is_gap=*/true);
    }
  }
  return groups;
}

std::size_t censored_count(const std::vector<Observation>& sample) {
  std::size_t count = 0;
  for (const Observation& obs : sample) count += obs.censored ? 1 : 0;
  return count;
}

// ---- report rendering ------------------------------------------------------

void write_fit(JsonWriter& json, const FitResult& fit) {
  json.begin_object();
  json.field("ok", fit.ok);
  if (fit.ok) {
    json.key("params");
    scenario::write_distribution(json, fit.dist);
    json.field("ks", fit.ks);
    json.field("ad", fit.ad);
    json.field("analytic_mean_ms", fit.dist.analytic_mean());
    json.field("analytic_median_ms", fit.dist.analytic_median());
  } else {
    json.field("note", fit.note);
  }
  json.end_object();
}

void write_selection(JsonWriter& json, const FamilySelection& selection,
                     std::size_t observations, std::size_t censored) {
  json.begin_object();
  json.field("observations", static_cast<std::uint64_t>(observations));
  json.field("censored", static_cast<std::uint64_t>(censored));
  if (selection.any_ok()) {
    json.field("selected", selection.selected);
  } else {
    json.key("selected");
    json.null();
  }
  json.key("candidates");
  json.begin_object();
  json.key("exponential");
  write_fit(json, selection.exponential);
  json.key("weibull");
  write_fit(json, selection.weibull);
  json.key("lognormal");
  write_fit(json, selection.lognormal);
  json.end_object();
  json.end_object();
}

}  // namespace

// ---- family selection ------------------------------------------------------

const FitResult& FamilySelection::best() const {
  if (selected == "weibull") return weibull;
  if (selected == "lognormal") return lognormal;
  return exponential;
}

FitResult fit_exponential(const std::vector<Observation>& sample) {
  double total = 0.0;
  std::size_t uncensored = 0;
  for (const Observation& obs : sample) {
    total += std::max(obs.value_ms, 1.0);
    uncensored += obs.censored ? 0 : 1;
  }
  if (uncensored < kMinUncensored) {
    return failed_fit(SessionDistribution::Kind::kExponential,
                      "needs >= " + std::to_string(kMinUncensored) +
                          " uncensored observations, got " +
                          std::to_string(uncensored));
  }
  // Censored MLE: every observation contributes its exposure time, only
  // completed ones count as events — mean = total exposure / events.
  const double mean = total / static_cast<double>(uncensored);
  return finish_fit(SessionDistribution::exponential(mean), sample);
}

FitResult fit_weibull(const std::vector<Observation>& sample) {
  std::vector<double> values;     // all, normalized by the max for stability
  std::vector<double> completed;  // uncensored only
  double max_value = 0.0;
  for (const Observation& obs : sample) {
    max_value = std::max(max_value, std::max(obs.value_ms, 1.0));
  }
  for (const Observation& obs : sample) {
    const double v = std::max(obs.value_ms, 1.0) / max_value;
    values.push_back(v);
    if (!obs.censored) completed.push_back(v);
  }
  if (completed.size() < kMinUncensored) {
    return failed_fit(SessionDistribution::Kind::kWeibull,
                      "needs >= " + std::to_string(kMinUncensored) +
                          " uncensored observations, got " +
                          std::to_string(completed.size()));
  }
  const double m = static_cast<double>(completed.size());
  double mean_log_completed = 0.0;
  for (const double v : completed) mean_log_completed += std::log(v);
  mean_log_completed /= m;
  // Profile likelihood in the shape k (right-censoring drops the
  // censored terms from the log mean but keeps them in the power sums):
  //   f(k) = sum(t^k ln t)/sum(t^k) - 1/k - mean(ln t | uncensored) = 0.
  // f is increasing: f(0+) = -inf and f(inf) -> -mean_log_completed >= 0,
  // so bisection is safe whenever a sign change exists.
  auto profile = [&](double k) {
    double weighted_log = 0.0;
    double power_sum = 0.0;
    for (const double v : values) {
      const double p = std::pow(v, k);
      weighted_log += p * std::log(v);
      power_sum += p;
    }
    return weighted_log / power_sum - 1.0 / k - mean_log_completed;
  };
  double lo = 1e-3;
  double hi = 100.0;
  if (!(profile(lo) < 0.0) || !(profile(hi) > 0.0)) {
    return failed_fit(SessionDistribution::Kind::kWeibull,
                      "profile-likelihood estimator did not converge");
  }
  for (int iter = 0; iter < 200; ++iter) {
    const double mid = 0.5 * (lo + hi);
    (profile(mid) < 0.0 ? lo : hi) = mid;
  }
  const double shape = 0.5 * (lo + hi);
  double power_sum = 0.0;
  for (const double v : values) power_sum += std::pow(v, shape);
  const double scale =
      max_value * std::pow(power_sum / m, 1.0 / shape);
  return finish_fit(SessionDistribution::weibull(shape, scale), sample);
}

FitResult fit_lognormal(const std::vector<Observation>& sample) {
  std::vector<double> completed_log;
  std::vector<double> censored_log;
  for (const Observation& obs : sample) {
    const double x = std::log(std::max(obs.value_ms, 1.0));
    (obs.censored ? censored_log : completed_log).push_back(x);
  }
  if (completed_log.size() < kMinUncensored) {
    return failed_fit(SessionDistribution::Kind::kLognormal,
                      "needs >= " + std::to_string(kMinUncensored) +
                          " uncensored observations, got " +
                          std::to_string(completed_log.size()));
  }
  const double n =
      static_cast<double>(completed_log.size() + censored_log.size());
  double mu = 0.0;
  for (const double x : completed_log) mu += x;
  mu /= static_cast<double>(completed_log.size());
  double var = 0.0;
  for (const double x : completed_log) var += (x - mu) * (x - mu);
  var /= static_cast<double>(completed_log.size());
  double sigma = std::max(std::sqrt(var), 1e-3);
  // EM for the right-censored normal on ln t: each censored observation
  // contributes the conditional moments of X | X > c through the inverse
  // Mills ratio h = phi(a)/(1 - Phi(a)), a = (c - mu)/sigma:
  //   E[X | X > c]  = mu + sigma h,
  //   E[X^2 | X > c] = mu^2 + sigma^2 + sigma (c + mu) h.
  for (int iter = 0; iter < 500 && !censored_log.empty(); ++iter) {
    double s1 = 0.0;
    double s2 = 0.0;
    for (const double x : completed_log) {
      s1 += x;
      s2 += x * x;
    }
    for (const double c : censored_log) {
      const double a = (c - mu) / sigma;
      const double h = inverse_mills(a);
      s1 += mu + sigma * h;
      s2 += mu * mu + sigma * sigma + sigma * (c + mu) * h;
    }
    const double next_mu = s1 / n;
    const double next_var = std::max(s2 / n - next_mu * next_mu, 1e-12);
    const double next_sigma = std::sqrt(next_var);
    const double delta =
        std::abs(next_mu - mu) + std::abs(next_sigma - sigma);
    mu = next_mu;
    sigma = next_sigma;
    if (delta < 1e-12) break;
  }
  return finish_fit(SessionDistribution::lognormal(std::exp(mu), sigma), sample);
}

double distribution_cdf(const SessionDistribution& dist, double t_ms) {
  if (t_ms <= 0.0) return 0.0;
  switch (dist.kind) {
    case SessionDistribution::Kind::kExponential:
      return 1.0 - std::exp(-t_ms / dist.mean_ms);
    case SessionDistribution::Kind::kWeibull:
      return 1.0 - std::exp(-std::pow(t_ms / dist.scale_ms, dist.shape));
    case SessionDistribution::Kind::kLognormal: {
      if (dist.sigma <= 0.0) return t_ms >= dist.median_ms ? 1.0 : 0.0;
      return normal_cdf((std::log(t_ms) - std::log(dist.median_ms)) /
                        dist.sigma);
    }
  }
  return 0.0;
}

double ks_statistic(const std::vector<Observation>& sample,
                    const SessionDistribution& dist) {
  const std::vector<double> values = sorted_uncensored(sample);
  if (values.empty()) return 1.0;
  const double n = static_cast<double>(values.size());
  double d = 0.0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    const double f = distribution_cdf(dist, values[i]);
    d = std::max(d, std::abs(static_cast<double>(i + 1) / n - f));
    d = std::max(d, std::abs(f - static_cast<double>(i) / n));
  }
  return d;
}

double ad_statistic(const std::vector<Observation>& sample,
                    const SessionDistribution& dist) {
  const std::vector<double> values = sorted_uncensored(sample);
  if (values.empty()) return std::numeric_limits<double>::infinity();
  const std::size_t n = values.size();
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double lower =
        std::clamp(distribution_cdf(dist, values[i]), 1e-12, 1.0 - 1e-12);
    const double upper = std::clamp(distribution_cdf(dist, values[n - 1 - i]),
                                    1e-12, 1.0 - 1e-12);
    sum += static_cast<double>(2 * i + 1) *
           (std::log(lower) + std::log(1.0 - upper));
  }
  return -static_cast<double>(n) - sum / static_cast<double>(n);
}

KsDistance two_sample_ks(std::vector<double> a, std::vector<double> b) {
  if (a.empty() || b.empty()) return {};
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  const double na = static_cast<double>(a.size());
  const double nb = static_cast<double>(b.size());
  std::size_t ia = 0;
  std::size_t ib = 0;
  KsDistance worst{.distance = 0.0};
  while (ia < a.size() && ib < b.size()) {
    const double x = std::min(a[ia], b[ib]);
    while (ia < a.size() && a[ia] <= x) ++ia;
    while (ib < b.size() && b[ib] <= x) ++ib;
    const double cdf_a = static_cast<double>(ia) / na;
    const double cdf_b = static_cast<double>(ib) / nb;
    if (std::abs(cdf_a - cdf_b) > worst.distance) {
      worst = {std::abs(cdf_a - cdf_b), x, cdf_a, cdf_b};
    }
  }
  return worst;
}

FamilySelection select_family(const std::vector<Observation>& sample) {
  FamilySelection selection;
  selection.exponential = fit_exponential(sample);
  selection.weibull = fit_weibull(sample);
  selection.lognormal = fit_lognormal(sample);

  struct Candidate {
    const FitResult* fit;
    std::string_view name;
    int parameters;
  };
  const Candidate candidates[] = {
      {&selection.exponential, "exponential", 1},
      {&selection.weibull, "weibull", 2},
      {&selection.lognormal, "lognormal", 2},
  };
  double best_ks = std::numeric_limits<double>::infinity();
  for (const Candidate& c : candidates) {
    if (c.fit->ok) best_ks = std::min(best_ks, c.fit->ks);
  }
  const Candidate* chosen = nullptr;
  for (const Candidate& c : candidates) {
    if (!c.fit->ok || c.fit->ks > best_ks + kKsTieTolerance) continue;
    // Within the KS tie band: fewer parameters beat more (parsimony, so
    // truly-exponential data is not claimed by Weibull's extra degree of
    // freedom), then the lower AD, then declaration order.
    if (chosen == nullptr || c.parameters < chosen->parameters ||
        (c.parameters == chosen->parameters && c.fit->ad < chosen->fit->ad)) {
      chosen = &c;
    }
  }
  if (chosen != nullptr) selection.selected = std::string(chosen->name);
  return selection;
}

// ---- the pipeline ----------------------------------------------------------

std::expected<Result, std::string> run(std::string_view trace_text,
                                       const Options& options) {
  auto dataset = measure::read_dataset(trace_text);
  if (!dataset) return std::unexpected(dataset.error());

  Result result;
  result.trace = std::move(*dataset);
  result.max_gap = options.max_gap;
  const std::vector<SessionTrace> sessions =
      reconstruct_sessions(result.trace, options.max_gap);
  result.measured = compute_churn_stats(sessions);
  if (result.measured.completed_sessions() == 0) {
    return std::unexpected(
        "trace: no completed sessions after censoring — cannot fit");
  }
  const auto observations = extract_observations(result.trace, sessions);
  for (const auto& [name, group] : observations) {
    GroupFit fit;
    fit.session_observations = group.sessions.size();
    fit.session_censored = censored_count(group.sessions);
    fit.gap_observations = group.gaps.size();
    fit.gap_censored = censored_count(group.gaps);
    fit.session = select_family(group.sessions);
    fit.gap = select_family(group.gaps);
    result.groups.emplace(name, std::move(fit));
  }
  const GroupFit& all = result.groups.at("all");
  if (!all.session.any_ok()) {
    return std::unexpected(
        "trace: too few completed sessions to fit any distribution family");
  }

  // ---- assemble the calibrated scenario ------------------------------------
  scenario::ScenarioSpec& spec = result.scenario;
  spec.name = options.name;
  spec.description =
      "Churn model calibrated from trace '" + result.trace.vantage + "'";
  spec.period.name = "calibrated";
  spec.period.dates = "calibration source window";
  spec.period.duration = result.trace.duration() > 0
                             ? result.trace.duration()
                             : common::kDay;

  scenario::ChurnSpec churn;
  churn.session = all.session.best().dist;
  if (all.gap.any_ok()) churn.gap = all.gap.best().dist;
  // Per-group overrides: DHT servers map onto the core-server category,
  // everything else onto normal users.  A group only overrides when its
  // own session fit converged; its gap falls back to the trace-wide one.
  const struct {
    const char* group;
    scenario::Category category;
  } group_categories[] = {
      {"dht_servers", scenario::Category::kCoreServer},
      {"clients", scenario::Category::kNormalUser},
  };
  for (const auto& mapping : group_categories) {
    const auto it = result.groups.find(mapping.group);
    if (it == result.groups.end() || !it->second.session.any_ok()) continue;
    scenario::ChurnCategorySpec category;
    category.category = mapping.category;
    category.session = it->second.session.best().dist;
    category.gap =
        it->second.gap.any_ok() ? it->second.gap.best().dist : churn.gap;
    churn.categories.push_back(category);
  }
  // Steady-state availability of the fitted alternating process: a peer
  // is online mean_session / (mean_session + mean_gap) of the time.
  const double mean_session = churn.session.analytic_mean();
  const double mean_gap = churn.gap.analytic_mean();
  churn.initial_online =
      std::clamp(mean_session / (mean_session + mean_gap), 0.05, 0.95);
  churn.sample_interval = std::min<SimDuration>(common::kHour,
                                                spec.period.duration);
  spec.churn = churn;

  spec.population = scenario::PopulationSpec::test_scale(options.verify_scale);
  spec.campaign.seed = options.seed;
  spec.campaign.trials = 1;
  spec.output.pretty = true;
  spec.output.include_connections = true;
  spec.output.role_filter = measure::DatasetRole::kVantage;

  if (auto error = scenario::ScenarioSpec::validate(spec)) {
    return std::unexpected("emitted scenario failed validation: " + *error);
  }

  // ---- closed loop: re-simulate and compare the session CDFs ---------------
  result.loop.threshold = options.ks_threshold;
  if (options.verify) {
    auto engine = scenario::CampaignEngine::create(spec.to_campaign_config());
    if (!engine) {
      return std::unexpected("closed-loop campaign rejected: " + engine.error());
    }
    measure::CollectingSink sink;
    engine->run(sink);
    const measure::Dataset* vantage = sink.find(measure::DatasetRole::kVantage);
    if (vantage == nullptr) {
      return std::unexpected("closed-loop campaign produced no vantage dataset");
    }
    const std::vector<SessionTrace> simulated =
        reconstruct_sessions(*vantage, options.max_gap);
    std::vector<double> simulated_ms;
    for (const SessionTrace& session : simulated) {
      if (!session.censored) {
        simulated_ms.push_back(
            std::max(static_cast<double>(session.length()), 1.0));
      }
    }
    std::vector<double> measured_ms;
    for (const SessionTrace& session : sessions) {
      if (!session.censored) {
        measured_ms.push_back(
            std::max(static_cast<double>(session.length()), 1.0));
      }
    }
    result.loop.ran = true;
    result.loop.scale = options.verify_scale;
    result.loop.seed = options.seed;
    result.loop.simulated_sessions = simulated_ms.size();
    const KsDistance ks =
        two_sample_ks(std::move(measured_ms), std::move(simulated_ms));
    result.loop.ks = ks.distance;
    result.loop.ks_length_ms = ks.at;
    result.loop.measured_cdf = ks.cdf_a;
    result.loop.simulated_cdf = ks.cdf_b;
    result.loop.pass = result.loop.ks <= options.ks_threshold;
  }
  return result;
}

std::string Result::report_json() const {
  std::ostringstream out;
  JsonWriter json(out, /*pretty=*/true);
  json.begin_object();
  json.key("trace");
  json.begin_object();
  json.field("vantage", trace.vantage);
  json.field("measurement_start_ms", trace.measurement_start);
  json.field("measurement_end_ms", trace.measurement_end);
  json.field("peers", static_cast<std::uint64_t>(trace.peer_count()));
  json.field("connections", static_cast<std::uint64_t>(trace.connection_count()));
  json.field("max_gap_ms", max_gap);
  json.field("sessions", static_cast<std::uint64_t>(measured.session_count));
  json.field("censored_sessions",
             static_cast<std::uint64_t>(measured.censored_sessions));
  json.field("completed_sessions",
             static_cast<std::uint64_t>(measured.completed_sessions()));
  json.field("mean_session_s", measured.mean_session_s);
  json.field("median_session_s", measured.median_session_s);
  json.end_object();

  json.key("fits");
  json.begin_object();
  for (const auto& [name, group] : groups) {
    json.key(name);
    json.begin_object();
    json.key("session");
    write_selection(json, group.session, group.session_observations,
                    group.session_censored);
    json.key("gap");
    write_selection(json, group.gap, group.gap_observations,
                    group.gap_censored);
    json.end_object();
  }
  json.end_object();

  json.key("scenario");
  json.begin_object();
  json.field("name", scenario.name);
  if (scenario.churn) {
    json.key("session");
    scenario::write_distribution(json, scenario.churn->session);
    json.key("gap");
    scenario::write_distribution(json, scenario.churn->gap);
    json.field("initial_online", scenario.churn->initial_online);
  }
  json.field("population_scale", scenario.population.scale);
  json.field("seed", scenario.campaign.seed);
  json.end_object();

  json.key("closed_loop");
  json.begin_object();
  json.field("ran", loop.ran);
  if (loop.ran) {
    json.field("scale", loop.scale);
    json.field("seed", loop.seed);
    json.field("simulated_sessions",
               static_cast<std::uint64_t>(loop.simulated_sessions));
    json.field("ks", loop.ks);
  }
  json.field("threshold", loop.threshold);
  json.field("pass", loop.pass);
  json.end_object();

  json.end_object();
  out << '\n';
  return out.str();
}

}  // namespace ipfs::analysis::calibrate
