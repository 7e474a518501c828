// ipfs_sim reproduce — regenerates the paper's results: Tables I–IV,
// Figs. 2–7, the §V-A multiaddress grouping, the §V network-size estimate
// and two ablations, each printed next to the published values.
//
// Campaigns default to full December-2021 scale (tens of thousands of
// peers — minutes to hours of wall clock); `--scale 0.02` is a quick pass
// whose results keep their shape, because rates and watermarks co-scale.
// Sections read their campaigns from one run cache keyed by period, so an
// invocation runs each of P0–P4 and LONG14D at most once, and drops a run
// after the last selected section that reads it.  The ablations sweep
// their own one-day configs.
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <initializer_list>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/classification.hpp"
#include "analysis/connection_stats.hpp"
#include "analysis/metadata.hpp"
#include "analysis/size_estimation.hpp"
#include "analysis/timeseries.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "measure/sink.hpp"
#include "p2p/protocols.hpp"
#include "scenario/campaign.hpp"

namespace ipfs::tools {
namespace {

using measure::CollectingSink;
using measure::Dataset;
using measure::DatasetRole;
using scenario::PeriodSpec;

struct Options {
  double scale;
  std::uint64_t seed;
};

scenario::CampaignConfig make_config(PeriodSpec period, const Options& options) {
  scenario::CampaignConfig config;
  config.period = std::move(period);
  config.population = scenario::PopulationSpec::test_scale(options.scale);
  config.seed = options.seed;
  return config;
}

/// Run `config` to completion, collecting everything it publishes.  A
/// config error exits loudly: a reproduction has nothing to fall back on.
CollectingSink run_campaign(scenario::CampaignConfig config) {
  auto engine = scenario::CampaignEngine::create(std::move(config));
  if (!engine) {
    std::cerr << "ipfs_sim reproduce: invalid campaign config: " << engine.error()
              << "\n";
    std::exit(1);
  }
  CollectingSink run;
  engine->run(run);
  return run;
}

/// The run's go-ipfs vantage dataset, exiting loudly when the period has
/// no go-ipfs vantage.
const Dataset& vantage(const CollectingSink& run) {
  const Dataset* dataset = run.find(DatasetRole::kVantage);
  if (dataset == nullptr) {
    std::cerr << "ipfs_sim reproduce: the campaign published no go-ipfs vantage "
                 "dataset\n";
    std::exit(1);
  }
  return *dataset;
}

struct Run {
  PeriodSpec period;
  CollectingSink sink;
};
using Runs = std::vector<std::shared_ptr<const Run>>;

struct Section {
  std::string_view name;  ///< a literal: reproduce_sections() hands out views
  std::string title;
  std::string reference;            ///< printed after "Daniel & Tschorsch 2022, "
  std::vector<PeriodSpec> periods;  ///< the shared campaigns render() reads, in order
  void (*render)(const Options&, const Runs&);
  bool crawler = true;  ///< whether those campaigns run the crawler
};

/// The period campaigns the sections share.  Each runs on first use and is
/// dropped after the last planned section that reads it, so a full
/// reproduction does not hold P0–P3 while the 14-day run executes.
class RunCache {
 public:
  RunCache(const Options& options, const std::vector<const Section*>& plan)
      : options_(options) {
    for (const Section* section : plan) {
      for (const PeriodSpec& period : section->periods) {
        ++slots_[{period.name, section->crawler}].pending;
      }
    }
  }

  Runs acquire(const Section& section) {
    Runs runs;
    for (const PeriodSpec& period : section.periods) {
      const std::pair key(period.name, section.crawler);
      Slot& slot = slots_[key];
      if (!slot.run) {
        std::cerr << "[reproduce] running " << period.name << "...\n";
        auto config = make_config(period, options_);
        config.enable_crawler = section.crawler;
        slot.run =
            std::make_shared<const Run>(Run{period, run_campaign(std::move(config))});
      }
      runs.push_back(slot.run);
      if (--slot.pending == 0) slots_.erase(key);
    }
    return runs;
  }

 private:
  struct Slot {
    int pending = 0;
    std::shared_ptr<const Run> run;
  };
  const Options& options_;
  std::map<std::pair<std::string, bool>, Slot> slots_;
};

void print_header(const Section& section, const Options& options) {
  std::cout << "\n" << std::string(78, '#') << "\n"
            << "# " << section.title << "\n"
            << "# Reproduces: Daniel & Tschorsch 2022, " << section.reference << "\n"
            << "# scale=" << options.scale << " seed=" << options.seed << "\n"
            << std::string(78, '#') << "\n";
}

/// A measured count and the text printed after it (the paper's value).
struct Count {
  const char* label;
  std::uint64_t value;
  const char* paper;
};

/// One "  <label><value><paper>" line per count.
void print_counts(std::initializer_list<Count> counts) {
  for (const Count& count : counts) {
    std::cout << "  " << count.label << common::with_thousands(count.value)
              << count.paper << "\n";
  }
}

/// One "label | value | paper" table row per count.
void add_counts(common::TextTable& table, std::initializer_list<Count> counts) {
  for (const Count& count : counts) {
    table.add_row({count.label, common::with_thousands(count.value), count.paper});
  }
}

// ---- Table I: the measurement periods, their watermarks and clients ---------

void render_table1(const Options&, const Runs&) {
  common::TextTable table("Measurement periods (paper dates; simulated clocks start at 0)");
  table.set_header({"Period", "Dates", "Duration", "Low", "High", "go-ipfs", "Hydra"});
  auto periods = PeriodSpec::table1();
  periods.push_back(PeriodSpec::Long14d());
  for (const auto& period : periods) {
    if (&period == &periods.back()) table.add_rule();  // sets off the 14-day run
    const std::string go_role = !period.go_ipfs_present ? "-"
                                : period.go_ipfs_mode == dht::Mode::kServer ? "Server"
                                                                            : "Client";
    table.add_row({period.name, period.dates, common::format_duration(period.duration),
                   common::with_thousands(static_cast<std::int64_t>(period.go_low_water)),
                   common::with_thousands(static_cast<std::int64_t>(period.go_high_water)),
                   go_role,
                   period.hydra_heads == 0 ? "-" : std::to_string(period.hydra_heads)});
  }
  table.print(std::cout);
  std::cout << "\nPaper Table I: P0 600/900 Server+3 heads, P1 2k/4k Server+2,\n"
               "P2 18k/20k Server+2, P3 18k/20k Client, P4 18k/20k Server.\n";
}

// ---- Table II: connection statistics over P0–P3, plus §IV-A directions -----

void add_stats_rows(common::TextTable& table, const std::string& period,
                    const analysis::ConnectionStats& stats) {
  table.add_row({period, "All", common::with_thousands(stats.all.count),
                 common::format_fixed(stats.all.average_s, 3) + " s",
                 common::format_fixed(stats.all.median_s, 3) + " s"});
  table.add_row({period, "Peer", common::with_thousands(stats.peer.count),
                 common::format_fixed(stats.peer.average_s, 3) + " s",
                 common::format_fixed(stats.peer.median_s, 3) + " s"});
}

void render_table2(const Options&, const Runs& runs) {
  common::TextTable go_table("go-ipfs");
  go_table.set_header({"Period", "Type", "Sum", "Avg.", "Median"});
  std::vector<common::TextTable> hydra_tables;
  std::ostringstream directions;  // printed after the tables
  for (const auto& run : runs) {
    const std::string& period = run->period.name;
    if (const auto* go_ipfs = run->sink.find(DatasetRole::kVantage)) {
      const auto stats = analysis::compute_connection_stats(*go_ipfs);
      add_stats_rows(go_table, period, stats);
      directions << "  " << period << " go-ipfs direction: inbound "
                 << common::with_thousands(stats.direction.inbound_count) << " (avg "
                 << common::format_fixed(stats.direction.inbound_avg_s, 1)
                 << " s), outbound "
                 << common::with_thousands(stats.direction.outbound_count) << " (avg "
                 << common::format_fixed(stats.direction.outbound_avg_s, 1) << " s)\n";
    }
    std::size_t h = 0;
    for (const auto& [role, dataset] : run->sink.datasets()) {
      if (role != DatasetRole::kHydraHead) continue;
      if (hydra_tables.size() <= h) {
        hydra_tables.emplace_back("Hydra H" + std::to_string(h));
        hydra_tables.back().set_header({"Period", "Type", "Sum", "Avg.", "Median"});
      }
      add_stats_rows(hydra_tables[h++], period,
                     analysis::compute_connection_stats(dataset));
    }
  }
  go_table.print(std::cout);
  for (auto& table : hydra_tables) table.print(std::cout);
  std::cout << "\nDirection breakdown (§IV-A: 'vastly more inbound than outbound'):\n"
            << directions.str();

  std::cout << "\nPaper Table II (go-ipfs): P0 All 1'285'513/196.556/73.732,"
               " P1 All 355'965/802.617/130.464,\n  P2 All 285'357/3883.828/85.404,"
               " P3 All 47'571/120.613/75.192.\nShape to check: Avg rises P0->P2 as"
               " watermarks rise; medians stay ~1 min;\nPeer-avg >> All-avg; P3"
               " (client) smallest and shortest.\n";
}

// ---- Table III: go-ipfs version changes, plus §IV-B role flapping ----------

void render_table3(const Options&, const Runs& runs) {
  const auto& dataset = vantage(runs[0]->sink);
  const auto counts = analysis::count_version_changes(dataset);

  common::TextTable table("Version changes (paper values in parentheses)");
  table.set_header({"Version", "Count", "Type", "Count"});
  table.add_row({"Upgrade (218)", common::with_thousands(counts.upgrades),
                 "main-main (291)", common::with_thousands(counts.main_to_main)});
  table.add_row({"Downgrade (107)", common::with_thousands(counts.downgrades),
                 "dirty-main (9)", common::with_thousands(counts.dirty_to_main)});
  table.add_row({"Change (205)", common::with_thousands(counts.changes),
                 "main-dirty (5)", common::with_thousands(counts.main_to_dirty)});
  table.add_row({"", "", "dirty-dirty (225)",
                 common::with_thousands(counts.dirty_to_dirty)});
  table.add_rule();
  table.add_row({"Total (530)", common::with_thousands(counts.total()), "", ""});
  table.print(std::cout);

  std::cout << "\nNon-go-ipfs -> go-ipfs agent switches: "
            << common::with_thousands(counts.into_go_ipfs) << "  (paper: once)\n";

  const auto kad = analysis::protocol_flapping(dataset, p2p::protocols::kKad);
  const auto autonat = analysis::protocol_flapping(dataset, p2p::protocols::kAutonat);
  std::cout << "\nRole flapping (§IV-B):\n"
            << "  /ipfs/kad/1.0.0:        " << common::with_thousands(kad.peers)
            << " peers, " << common::with_thousands(kad.events)
            << " changes  (2'481 / 68'396)\n"
            << "  /libp2p/autonat/1.0.0:  " << common::with_thousands(autonat.peers)
            << " peers, " << common::with_thousands(autonat.events)
            << " changes  (3'603 / 86'651)\n";
}

// ---- Table IV: P4 peer classification, plus the §V-B core-network bound ----

void render_table4(const Options&, const Runs& runs) {
  const auto counts = analysis::classify_peers(vantage(runs[0]->sink));

  common::TextTable table("Classification (paper values in parentheses)");
  table.set_header({"Class", "Time", "# Conn.", "Peers", "DHT-Server"});
  const char* criteria_time[] = {"> 24 h", "> 2 h", "<= 2 h", "< 2 h"};
  const char* criteria_conn[] = {"-", "-", ">= 3", "< 3"};
  const char* paper_peers[] = {"(10'540)", "(15'895)", "(16'880)", "(18'889)"};
  const char* paper_servers[] = {"(1'449)", "(1'420)", "(9'755)", "(6'108)"};
  for (std::size_t c = 0; c < 4; ++c) {
    table.add_row({std::string(analysis::to_string(static_cast<analysis::PeerClass>(c))),
                   criteria_time[c], criteria_conn[c],
                   common::with_thousands(counts.peers[c]) + " " + paper_peers[c],
                   common::with_thousands(counts.dht_servers[c]) + " " +
                       paper_servers[c]});
  }
  table.add_rule();
  table.add_row({"Total", "", "", common::with_thousands(counts.total_peers()) +
                                      " (62'204)",
                 ""});
  table.print(std::cout);

  const auto heavy = static_cast<std::size_t>(analysis::PeerClass::kHeavy);
  std::cout << "\n§V-B conclusions:\n";
  print_counts(
      {{"heavy DHT servers: ", counts.dht_servers[heavy], "  (paper ~1.5k)"},
       {"heavy DHT clients (core user base): ",
        counts.peers[heavy] - counts.dht_servers[heavy], "  (paper ~9k)"},
       {"core network lower bound: ", counts.peers[heavy], "  (paper >= 10k)"}});
}

// ---- Fig. 2: PIDs per period, passive vantages vs the crawler's band -------

/// "total / DHT-server" PIDs of `dataset`, or "-" when the period lacks it.
std::string pid_counts(const Dataset* dataset) {
  if (dataset == nullptr) return "-";
  std::uint64_t servers = 0;
  for (const auto& peer : dataset->peers()) {
    if (peer.ever_dht_server) ++servers;
  }
  return common::with_thousands(dataset->peer_count()) + " / " +
         common::with_thousands(servers);
}

void render_fig2(const Options&, const Runs& runs) {
  common::TextTable table("PIDs per period (total / DHT-server)");
  table.set_header({"Period", "go-ipfs", "Hydra union", "Crawler min-max (reached..learned)"});
  for (const auto& run : runs) {
    const auto [crawl_min, crawl_max] = measure::crawler_min_max(run->sink.crawls());
    table.add_row({run->period.name, pid_counts(run->sink.find(DatasetRole::kVantage)),
                   pid_counts(run->sink.find(DatasetRole::kHydraUnion)),
                   common::with_thousands(static_cast<std::uint64_t>(crawl_min)) +
                       " .. " +
                       common::with_thousands(static_cast<std::uint64_t>(crawl_max))});
  }
  table.print(std::cout);

  std::cout << "\nPaper Fig. 2 shape: 40k-65k total PIDs for the passive nodes;\n"
               "multi-day periods see more DHT servers than any single crawl;\n"
               "hydra union >= go-ipfs; crawler reaches only DHT servers.\n";
}

// ---- Figs. 3 and 4: agent-version and protocol occurrences in P4 -----------

/// The histogram's rows, labels with at most `threshold` PIDs folded into
/// "other", as log-scale bars.
void print_histogram(const std::string& title, const std::string& column,
                     const common::CountedHistogram& histogram,
                     std::uint64_t threshold) {
  const auto rows = histogram.top_with_other(threshold);
  std::uint64_t max_count = 0;
  for (const auto& [label, count] : rows) max_count = std::max(max_count, count);

  common::TextTable table(title);
  table.set_header({column, "Count", "log bar"});
  for (const auto& [label, count] : rows) {
    table.add_row({label, common::with_thousands(count),
                   common::log_bar(count, max_count, 32)});
  }
  table.print(std::cout);
}

void render_fig3(const Options& options, const Runs& runs) {
  const auto& dataset = vantage(runs[0]->sink);
  // Paper: agents used by <= 100 PIDs are grouped as "other" (scaled).
  print_histogram("Agent occurrences (log-scale bars)", "Agent",
                  analysis::agent_histogram(dataset),
                  static_cast<std::uint64_t>(100.0 * options.scale));

  const auto summary = analysis::summarize_metadata(dataset);
  std::cout << "\nHeadline counts (paper in parentheses):\n";
  print_counts({{"distinct agent strings: ", summary.distinct_agent_strings, "  (323)"},
                {"distinct go-ipfs versions: ", summary.go_ipfs_version_count, "  (263)"},
                {"go-ipfs PIDs:   ", summary.go_ipfs_pids, "  (50'254)"},
                {"hydra PIDs:     ", summary.hydra_pids, "  (1'028)"},
                {"crawler PIDs:   ", summary.crawler_pids, "  (586)"},
                {"other agents:   ", summary.other_agent_pids, "  (10'926)"},
                {"missing agents: ", summary.missing_agent_pids, "  (3'059)"},
                {"total PIDs:     ", summary.total_pids, "  (65'853)"}});
}

void render_fig4(const Options& options, const Runs& runs) {
  const auto& dataset = vantage(runs[0]->sink);
  print_histogram("Protocol occurrences (log-scale bars)", "Protocol",
                  analysis::protocol_histogram(dataset),
                  static_cast<std::uint64_t>(300.0 * options.scale));

  const auto summary = analysis::summarize_metadata(dataset);
  const auto anomalies = analysis::find_anomalies(dataset);
  std::cout << "\nHeadline counts (paper in parentheses):\n";
  print_counts(
      {{"distinct protocols: ", summary.distinct_protocols, "  (101)"},
       {"/ipfs/bitswap supporters: ", summary.bitswap_supporters, "  (44'463)"},
       {"/ipfs/kad supporters (DHT servers): ", summary.kad_supporters, "  (18'845)"}});
  std::cout << "\nAnomalies (§IV-B):\n";
  print_counts({{"go-ipfs agents without bitswap: ", anomalies.go_ipfs_without_bitswap,
                 "  (7'498 v0.8.0 clients)"},
                {"... of which announce /sbptp/1.0.0 (storm): ",
                 anomalies.go_ipfs_with_sbptp, ""},
                {"overt storm agents: ", anomalies.storm_agents, ""},
                {"go-ethereum agents: ", anomalies.ethereum_agents, "  (1)"}});
}

// ---- Fig. 5: simultaneous connections over P0–P3's first 24 h --------------

/// A down-sampled series (one value every 2 h) plus summary statistics.
void print_series(const std::string& label, const Dataset& dataset) {
  const auto series = analysis::simultaneous_connections(
      dataset, 30 * common::kMinute, 24 * common::kHour);
  const auto summary = analysis::summarize_series(series);
  std::cout << "  " << label << ": peak=" << common::with_thousands(summary.peak)
            << " mean=" << common::format_fixed(summary.mean, 0)
            << " final=" << common::with_thousands(summary.final_value) << "\n    ";
  for (std::size_t i = 0; i < series.size(); i += 4) {
    std::cout << series[i].count << " ";
  }
  std::cout << "(every 2 h)\n";
}

void render_fig5(const Options&, const Runs& runs) {
  for (const auto& run : runs) {
    const PeriodSpec& period = run->period;
    std::cout << period.name << " (Low " << period.go_low_water << " / High "
              << period.go_high_water << "):\n";
    if (const auto* go_ipfs = run->sink.find(DatasetRole::kVantage)) {
      print_series("go-ipfs", *go_ipfs);
    }
    std::size_t h = 0;
    for (const auto& [role, dataset] : run->sink.datasets()) {
      if (role != DatasetRole::kHydraHead) continue;
      print_series("Hydra H" + std::to_string(h++), dataset);
    }
  }

  std::cout << "\nPaper Fig. 5 shape: P0/P1 pinned between the configured\n"
               "watermarks (own trimming visible); P2 plateaus around 15k-16k,\n"
               "below LowWater=18k; P3 (client) stays in the low hundreds.\n";
}

// ---- Fig. 6: PIDs over the 14-day run: all seen, gone > 3 d, connected -----

void render_fig6(const Options&, const Runs& runs) {
  const auto growth =
      analysis::pid_growth(vantage(runs[0]->sink), 12 * common::kHour, 3 * common::kDay);

  common::TextTable table("PIDs over time (12 h samples)");
  table.set_header({"t", "all PIDs", ">= 3 d gone", "connected"});
  for (std::size_t i = 0; i < growth.all_pids.size(); i += 2) {
    table.add_row({common::format_duration(growth.all_pids[i].at),
                   common::with_thousands(growth.all_pids[i].count),
                   common::with_thousands(growth.gone_pids[i].count),
                   common::with_thousands(growth.connected_pids[i].count)});
  }
  table.print(std::cout);

  const auto final_all = growth.all_pids.back().count;
  const auto final_gone = growth.gone_pids.back().count;
  std::cout << "\nFinal: " << common::with_thousands(final_all) << " PIDs seen, "
            << common::with_thousands(final_gone)
            << " gone >3 d ("
            << common::format_percent(static_cast<double>(final_gone) /
                                      static_cast<double>(final_all))
            << ").\nPaper Fig. 6 shape: continuous near-linear growth of seen PIDs\n"
               "(toward ~1.5e5), a growing gone-population trailing three days\n"
               "behind, and a connected plateau far below both.\n";
}

// ---- Fig. 7: CDFs of max connection duration and connections per PID (P4) --

void print_cdf(const std::string& title, const common::Cdf& all,
               const common::Cdf& servers, const common::Cdf& clients,
               const std::vector<double>& anchors, const char* unit) {
  common::TextTable table(title);
  table.set_header({std::string("x (") + unit + ")", "all", "DHT-Server", "DHT-Client"});
  for (const double anchor : anchors) {
    table.add_row({common::format_fixed(anchor, 0),
                   common::format_percent(all.fraction_at_most(anchor)),
                   common::format_percent(servers.fraction_at_most(anchor)),
                   common::format_percent(clients.fraction_at_most(anchor))});
  }
  table.print(std::cout);
}

void render_fig7(const Options&, const Runs& runs) {
  const auto& dataset = vantage(runs[0]->sink);
  const auto all = analysis::connection_cdfs(dataset, -1);
  const auto servers = analysis::connection_cdfs(dataset, 1);
  const auto clients = analysis::connection_cdfs(dataset, 0);

  print_cdf("CDF of max connection duration per PID (30 s groups)",
            all.max_duration_s, servers.max_duration_s, clients.max_duration_s,
            {30, 60, 300, 900, 3600, 7200, 43200, 86400, 259200}, "s");
  print_cdf("CDF of number of connections per PID", all.connection_count,
            servers.connection_count, clients.connection_count,
            {1, 2, 3, 5, 10, 15, 50, 200}, "conns");

  std::cout << "\nPaper anchors: ~53 % below 1 h max duration; ~16 % above 24 h;\n"
            << "~50 % with one connection; ~10 % with more than 15.\n"
            << "Measured: "
            << common::format_percent(all.max_duration_s.fraction_at_most(3600.0))
            << " below 1 h; "
            << common::format_percent(
                   1.0 - all.max_duration_s.fraction_at_most(86400.0))
            << " above 24 h; "
            << common::format_percent(all.connection_count.fraction_at_most(1.0))
            << " with one connection; "
            << common::format_percent(
                   1.0 - all.connection_count.fraction_at_most(15.0))
            << " with more than 15.\n";
}

// ---- §V-A: grouping P4's PIDs by connected IP, with the case studies -------

void render_sec5a(const Options&, const Runs& runs) {
  const auto grouping = analysis::group_by_multiaddr(vantage(runs[0]->sink));

  common::TextTable table("Grouping PIDs by connected IP (paper values in parentheses)");
  table.set_header({"Metric", "Measured", "Paper"});
  add_counts(table, {{"known PIDs", grouping.total_pids, "65'853"},
                     {"PIDs with connections", grouping.connected_pids, "62'204"},
                     {"distinct IP addresses", grouping.distinct_ips, "56'536"},
                     {"groups", grouping.groups, "47'516"},
                     {"single-PID groups", grouping.singleton_groups, "44'301"},
                     {"PIDs with unique IPs", grouping.unique_ip_pids, "40'193"},
                     {"largest group (rotating PIDs)", grouping.largest_group, "2'156"}});
  table.print(std::cout);

  std::cout << "\nLargest group sizes: ";
  for (std::size_t i = 0; i < std::min<std::size_t>(grouping.group_sizes.size(), 10);
       ++i) {
    std::cout << common::with_thousands(grouping.group_sizes[i]) << " ";
  }
  std::cout << "\n(paper: one 2'156-PID group; hydra's 1'026 heads on 11 IPs —\n"
               " 9x100, one 98, one 28 — plus two heads sharing an IP with two\n"
               " go-ipfs nodes; NAT households and small clouds fill the rest)\n";

  std::cout << "\n§V-A flaw the paper demonstrates: groups ("
            << common::with_thousands(grouping.groups)
            << ") are still ~3x the simultaneous connections, and hydra-style\n"
               "deployments collapse many active peers into a single group.\n";
}

// ---- §V: the combined network-size report (~48k peers, core >= ~10k) ------

void render_size(const Options&, const Runs& runs) {
  const auto report = analysis::estimate_network_size(vantage(runs[0]->sink));

  common::TextTable table("Network size (paper values in parentheses)");
  table.set_header({"Estimator", "Value", "Paper"});
  add_counts(table, {{"observed PIDs", report.observed_pids, "65'853"},
                     {"peers by IP grouping", report.estimated_peers_by_ip, "~48k"}});
  table.add_row({"PIDs per peer (group)",
                 common::format_fixed(report.pids_per_ip_group, 2), "~2 (Sec. V)"});
  add_counts(table,
             {{"core network (heavy peers)", report.core_network_lower_bound, ">= 10k"},
              {"heavy DHT servers", report.heavy_dht_servers, "~1.5k"},
              {"core user base (heavy clients)", report.core_user_base, "~9k"}});
  table.print(std::cout);

  std::cout << "\nPaper conclusion: 'during our measurement period the network\n"
               "consisted of roughly 48k peers. Based on the classification the\n"
               "core network of IPFS has at least a size of 10k nodes.'\n";
}

// ---- Ablations: one-day, crawler-free sweeps outside the shared runs -------

CollectingSink run_sweep(PeriodSpec period, const Options& options) {
  period.name = "sweep";
  period.duration = common::kDay;
  auto config = make_config(std::move(period), options);
  config.enable_crawler = false;
  return run_campaign(std::move(config));
}

// §III-C argues that a hydra with more heads covers more of the keyspace
// ("two measurement nodes with strategically placed keys should be
// sufficient to cover almost the whole network"): sweep the head count and
// report the union horizon.
void render_ablation_hydra(const Options& options, const Runs&) {
  common::TextTable table("Union horizon vs head count");
  table.set_header({"Heads", "Union PIDs", "Per-head (min..max)", "go-ipfs PIDs"});
  for (const int heads : {1, 2, 3, 4}) {
    std::cerr << "[ablation-hydra] heads=" << heads << "...\n";
    auto period = PeriodSpec::P1();
    period.hydra_heads = heads;
    const auto result = run_sweep(std::move(period), options);

    common::MinMaxBand head_band;
    for (const auto& [role, head] : result.datasets()) {
      if (role == DatasetRole::kHydraHead) {
        head_band.add(head.peer_count(), head.peer_count());
      }
    }
    table.add_row({std::to_string(heads),
                   common::with_thousands(
                       result.find(DatasetRole::kHydraUnion)->peer_count()),
                   common::with_thousands(head_band.low()) + " .. " +
                       common::with_thousands(head_band.high()),
                   common::with_thousands(vantage(result).peer_count())});
  }
  table.print(std::cout);

  std::cout << "\nExpected shape: the union grows with the head count with\n"
               "diminishing returns — two heads already approach the crawler's\n"
               "coverage in Fig. 2, matching the paper's vantage-point claim.\n";
}

// The paper's conclusion recommends revisiting the default LowWater /
// HighWater values for DHT servers: sweep the vantage's watermarks and
// report how the churn metrics react.
void render_ablation_trim(const Options& options, const Runs&) {
  struct Setting {
    int low;
    int high;
  };
  const Setting settings[] = {{300, 450}, {600, 900}, {2000, 4000},
                              {9000, 10000}, {18000, 20000}};

  common::TextTable table("Churn vs watermarks (go-ipfs vantage)");
  table.set_header({"Low/High", "Connections", "All avg", "All median", "Local trims",
                    "Peers seen"});
  for (const Setting& setting : settings) {
    std::cerr << "[ablation-trim] low=" << setting.low << " high=" << setting.high
              << "...\n";
    auto period = PeriodSpec::P4();
    period.go_low_water = setting.low;
    period.go_high_water = setting.high;
    const auto result = run_sweep(std::move(period), options);
    const auto stats = analysis::compute_connection_stats(vantage(result));
    const auto reasons = analysis::compute_close_reasons(vantage(result));
    table.add_row({std::to_string(setting.low) + "/" + std::to_string(setting.high),
                   common::with_thousands(stats.all.count),
                   common::format_fixed(stats.all.average_s, 1) + " s",
                   common::format_fixed(stats.all.median_s, 1) + " s",
                   common::with_thousands(reasons.local_trim),
                   common::with_thousands(stats.peer.count)});
  }
  table.print(std::cout);

  std::cout << "\nExpected shape: raising the watermarks monotonically reduces\n"
               "local trims and raises average connection duration — the paper's\n"
               "case for higher DHT-server defaults.  Note how the peer horizon\n"
               "(PIDs seen) barely changes: trimming costs stability, not reach.\n";
}

/// Every section, in the order a full reproduction prints them.
std::vector<Section> sections() {
  const std::vector<PeriodSpec> p0_p3{PeriodSpec::P0(), PeriodSpec::P1(),
                                      PeriodSpec::P2(), PeriodSpec::P3()};
  const std::vector<PeriodSpec> p4{PeriodSpec::P4()};
  return {
      {"table1", "TABLE I — measurement periods", "Table I", {}, render_table1},
      {"table2", "TABLE II — connection statistics", "Table II + §IV-A", p0_p3,
       render_table2},
      {"table3", "TABLE III — go-ipfs version changes", "Table III + §IV-B", p4,
       render_table3},
      {"table4", "TABLE IV — peer classification (P4)", "Table IV + §V-B", p4,
       render_table4},
      {"fig2", "FIG. 2 — passive vs active measurement horizon", "Fig. 2 + §III-C",
       PeriodSpec::table1(), render_fig2},
      {"fig3", "FIG. 3 — agent-version occurrences", "Fig. 3 + §IV-B", p4, render_fig3},
      {"fig4", "FIG. 4 — protocol occurrences", "Fig. 4 + §IV-B", p4, render_fig4},
      {"fig5", "FIG. 5 — simultaneous peer connections (first 24 h)", "Fig. 5 + §V",
       p0_p3, render_fig5},
      // Fig. 6 reads no crawl, so the 14-day run goes without the crawler.
      {"fig6", "FIG. 6 — PIDs over time (14-day run)", "Fig. 6 + §V",
       {PeriodSpec::Long14d()}, render_fig6, false},
      {"fig7", "FIG. 7 — connection-duration and connection-count CDFs (P4)",
       "Fig. 7 + §V-B", p4, render_fig7},
      {"sec5a", "§V-A — multiaddress grouping (P4)", "§V-A", p4, render_sec5a},
      {"size", "§V — network-size estimate (P4)", "§V conclusion", p4, render_size},
      {"ablation-hydra", "ABLATION — hydra head-count sweep (1-day campaigns)",
       "§III-C", {}, render_ablation_hydra},
      {"ablation-trim", "ABLATION — watermark sweep (1-day campaigns)",
       "§VI recommendation", {}, render_ablation_trim},
  };
}

}  // namespace

std::vector<std::string_view> reproduce_sections() {
  std::vector<std::string_view> names;
  for (const Section& section : sections()) names.push_back(section.name);
  return names;
}

int reproduce(double scale, std::uint64_t seed, const std::vector<std::string>& names) {
  const std::vector<Section> all = sections();
  std::vector<const Section*> plan;
  for (const std::string& name : names) {
    const auto found = std::ranges::find(all, name, &Section::name);
    if (found == all.end()) {
      std::cerr << "ipfs_sim reproduce: unknown section '" << name << "' (sections:";
      for (const Section& section : all) std::cerr << " " << section.name;
      std::cerr << ")\n";
      return 2;
    }
    plan.push_back(&*found);
  }
  if (names.empty()) {
    for (const Section& section : all) plan.push_back(&section);
  }

  const Options options{scale, seed};
  RunCache cache(options, plan);
  for (const Section* section : plan) {
    print_header(*section, options);
    section->render(options, cache.acquire(*section));
  }
  std::cout.flush();
  if (!std::cout) {
    std::cerr << "ipfs_sim reproduce: error writing stdout\n";
    return 1;
  }
  return 0;
}

}  // namespace ipfs::tools
