#include "scenario/campaign.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <unordered_set>

#include "bitswap/bitswap.hpp"
#include "common/flat_map.hpp"
#include "common/version.hpp"
#include "dht/record_store.hpp"
#include "net/network.hpp"
#include "p2p/protocols.hpp"
// Leaf runtime headers (no scenario includes): the sharded engine draws
// its fork-join pool and worker accounting from the runtime layer without
// creating an include cycle (DESIGN.md §13).
#include "runtime/shard_pool.hpp"
#include "runtime/worker_budget.hpp"

namespace ipfs::scenario {

namespace proto = p2p::protocols;
using common::kDay;
using common::kHour;
using common::kMinute;
using common::kSecond;
using common::SimDuration;
using common::SimTime;

namespace {

/// Deterministic per-(peer, vantage) visibility gate.
bool pair_visible(const p2p::PeerId& pid, std::uint64_t vantage_salt, double p) {
  const std::uint64_t h = common::mix64(pid.prefix64(), vantage_salt);
  return static_cast<double>(h) <
         p * static_cast<double>(std::numeric_limits<std::uint64_t>::max());
}

/// Rewrite a go-ipfs agent string per the version-change kind (Table III).
std::string mutate_agent(common::Rng& rng, const std::string& agent,
                         common::VersionChangeKind kind) {
  const auto info = common::AgentInfo::parse(agent);
  if (!info.version) return agent;
  common::SemVer version = *info.version;
  switch (kind) {
    case common::VersionChangeKind::kUpgrade:
      if (rng.bernoulli(0.7)) {
        ++version.minor;
        version.patch = 0;
      } else {
        ++version.patch;
      }
      version.prerelease.clear();
      break;
    case common::VersionChangeKind::kDowngrade:
      if (version.minor > 0 && rng.bernoulli(0.7)) {
        --version.minor;
      } else if (version.patch > 0) {
        --version.patch;
      } else if (version.minor > 0) {
        --version.minor;
      } else {
        return agent;  // cannot downgrade below 0.0.0
      }
      version.prerelease.clear();
      break;
    case common::VersionChangeKind::kChange:
    case common::VersionChangeKind::kNone:
      break;  // same version, new commit below
  }
  // Dirty transition, conditional on the current build (calibrated to
  // Table III: main→dirty and dirty→main are rare).
  const bool after_dirty =
      info.dirty ? rng.bernoulli(225.0 / 234.0) : rng.bernoulli(5.0 / 296.0);
  char commit[24];
  if (after_dirty || kind == common::VersionChangeKind::kChange) {
    // Self-built: a novel commit hash (required for a commit-part change).
    std::snprintf(commit, sizeof(commit), "%08llx",
                  static_cast<unsigned long long>(rng() & 0xffffffffULL));
  } else {
    // Release binaries of one version share the release commit, so
    // up/downgrades move between *existing* agent strings (Fig. 3 stays at
    // ~323 distinct strings despite Table III's 530 changes).
    std::snprintf(commit, sizeof(commit), "%08llx",
                  static_cast<unsigned long long>(
                      common::hash64(version.to_string()) & 0xffffffffULL));
  }
  std::string result = "go-ipfs/" + version.to_string() + "/" + commit;
  if (after_dirty) result += "-dirty";
  return result;
}

}  // namespace

namespace {
/// The address a peer dials from right now (dual-homed peers alternate).
p2p::Multiaddr dial_address(const RemotePeer& peer, common::Rng& prng) {
  const p2p::IpAddress ip =
      (peer.has_alt_ip && prng.bernoulli(kDualHomeAlternateProbability))
          ? peer.alt_ip
          : peer.ip;
  return p2p::Multiaddr{ip, p2p::Transport::kTcp, peer.port};
}
}  // namespace

struct CampaignEngine::Impl {
  explicit Impl(CampaignConfig config_in)
      : config(std::move(config_in)),
        rng(config.seed),
        population(config.population, config.period.duration, rng.child(0x707)) {
    if (config.conditions) {
      // Seeded off the campaign seed directly (not the rng stream) so that
      // engaging the section never shifts any other RNG-tree branch.
      conditions.emplace(*config.conditions, common::mix64(config.seed, 0x2c0de));
    }
    if (config.churn) {
      // Same principle as `conditions`: the lifecycle model hangs off the
      // campaign seed directly, so engaging it only replaces the session
      // scheduling branch and shifts nothing else.
      churn.emplace(*config.churn, common::mix64(config.seed, 0xc4021));
    }
    if (config.content) {
      // Same principle again: the content workload hangs off the campaign
      // seed directly, so engaging it adds provide/fetch branches without
      // shifting any legacy draw (hash-pinned by the golden tests).
      content.emplace(*config.content, common::mix64(config.seed, 0xc047e47));
      content_keyspace = std::max<std::uint32_t>(
          1, static_cast<std::uint32_t>(std::llround(
                 static_cast<double>(content->spec().keys) *
                 config.population.scale)));
    }
    if (config.phases) {
      // Compiled once up front; `rates_at` is a pure const lookup, so
      // consulting the program never shifts any RNG-tree branch.
      phases.emplace(*config.phases);
      phase_counters.resize(phases->size());
      for (std::size_t i = 0; i < phases->size(); ++i) {
        const PhaseSpec& phase = phases->spec().program[i];
        phase_counters[i].name = phase.name;
        phase_counters[i].mode = std::string(to_string(phase.mode));
        phase_counters[i].start = phases->phase_start(i);
        phase_counters[i].hold = phase.hold;
      }
    }
    if (config.sharding) {
      const unsigned shards = std::max(config.sharding->shards, 1u);
      unsigned workers = config.sharding->workers;
      if (workers == 0) {
        // Auto: claim workers from the process-wide budget that
        // ParallelTrialRunner draws on too, so nested trial x shard
        // pools never oversubscribe the machine (DESIGN.md §13).
        shard_lease = runtime::WorkerBudget::process().lease(shards);
        workers = shard_lease.granted();
      }
      shard_pool = std::make_unique<runtime::ShardPool>(shards, workers);
    }
  }

  // ---- types -------------------------------------------------------------

  struct ConnMeta {
    std::uint32_t peer = 0;
    bool maintained = false;
  };

  struct VantageTap;  // forward

  struct Vantage {
    std::string name;
    bool is_server = true;
    std::uint64_t salt = 0;
    std::unique_ptr<p2p::Swarm> swarm;
    std::unique_ptr<measure::Recorder> recorder;
    std::unique_ptr<VantageTap> tap;
    common::FlatMap<p2p::ConnectionId, ConnMeta> conns;
    /// Each population protocol set as the swarm's peerstore interned it,
    /// by ProtocolSetId; filled on the set's first announcement here.
    std::vector<std::optional<std::vector<p2p::Peerstore::ProtocolId>>> protocol_lists;

    /// Population set `id` (of `population`) as a peerstore list.
    std::span<const p2p::Peerstore::ProtocolId> protocol_list(const Population& population,
                                                              ProtocolSetId id) {
      if (id >= protocol_lists.size()) protocol_lists.resize(population.protocol_set_count());
      auto& list = protocol_lists[id];
      if (!list) list = swarm->peerstore().intern_protocols(population.protocols(id));
      return *list;
    }
  };

  struct VantageTap final : p2p::SwarmObserver {
    Impl* impl = nullptr;
    std::size_t vantage_index = 0;
    void on_connection_opened(const p2p::Connection& connection) override {
      (void)connection;  // engine registers metadata at open itself
    }
    void on_connection_closed(const p2p::Connection& connection) override {
      impl->handle_vantage_close(vantage_index, connection);
    }
  };

  /// Hot per-peer campaign state, struct-of-arrays.  The periodic
  /// whole-population sweeps — the ground-truth online count every churn
  /// sample interval, the true-record count every content sample interval,
  /// the gossip staleness walk — each read one or two fields for *every*
  /// peer; parallel arrays keep those sweeps dense (one byte per peer for
  /// the online scan) instead of striding a five-field record, which is
  /// what lets million-peer populations sample at full cadence.
  struct PeerStates {
    std::vector<std::uint8_t> online;          ///< 0/1, dense for population scans
    std::vector<SimTime> session_end;
    std::vector<SimTime> last_online;          ///< for stale routing entries
    std::vector<std::uint32_t> session_index;  ///< sessions started (churn mode)
    std::vector<std::uint32_t> fetch_index;    ///< fetches drawn (content mode)
    std::vector<std::uint32_t> publish_slots;  ///< provider slots this session

    void assign(std::size_t count) {
      online.assign(count, 0);
      session_end.assign(count, 0);
      last_online.assign(count, -common::kDay);
      session_index.assign(count, 0);
      fetch_index.assign(count, 0);
      publish_slots.assign(count, 0);
    }
  };

  /// A Bitswap participant on the content network: one engine and, for a
  /// server vantage, the swarm whose conn manager trims the fabric as
  /// go-ipfs does.  A fetching remote's host is a bare endpoint
  /// (`net::Host`): its side of a link is the link itself (DESIGN.md §11).
  struct BitswapHost final : net::Host {
    BitswapHost(net::Network& network, p2p::PeerId pid, p2p::Multiaddr address,
                std::unique_ptr<p2p::Swarm> swarm = nullptr)
        : pid_(pid), address_(address), swarm_(std::move(swarm)),
          engine_(network, pid) {}

    [[nodiscard]] Endpoint endpoint() override {
      return {pid_, address_, swarm_.get()};
    }
    void handle_message(const p2p::PeerId& from,
                        const net::Message& message) override {
      engine_.handle_message(from, message);
    }

    p2p::PeerId pid_;
    p2p::Multiaddr address_;
    std::unique_ptr<p2p::Swarm> swarm_;  ///< nullptr: a bare endpoint
    bitswap::BitswapEngine engine_;
  };

  /// Content-routing state of one *server* vantage: the provider-record
  /// store its DHT serves (the hydra "belly" / go-ipfs record slice) and
  /// the Bitswap host that serves the published blocks.
  struct ContentVantage {
    std::size_t vantage = 0;  ///< index into `vantages`
    std::unique_ptr<dht::RecordStore> records;
    std::unique_ptr<BitswapHost> host;
  };

  // ---- setup -------------------------------------------------------------

  void setup_vantages() {
    common::Rng vrng = rng.child(0x5a1);
    auto make_vantage = [&](const std::string& name, bool server, int low, int high,
                            SimDuration poll, std::uint16_t port) {
      Vantage vantage;
      vantage.name = name;
      vantage.is_server = server;
      vantage.salt = common::mix64(common::hash64(name), config.seed);
      p2p::Swarm::Config swarm_config;
      swarm_config.conn_manager = p2p::ConnManagerConfig::with_watermarks(low, high);
      swarm_config.trim_enabled = true;
      const auto pid = p2p::PeerId::random(vrng);
      const auto addr = p2p::Multiaddr{p2p::IpAddress::v4(0x93200000u + port),
                                       p2p::Transport::kTcp, port};
      vantage.swarm = std::make_unique<p2p::Swarm>(simulation, pid, addr, swarm_config);
      measure::RecorderConfig recorder_config;
      recorder_config.vantage = name;
      recorder_config.poll_interval = poll;
      vantage.recorder = std::make_unique<measure::Recorder>(simulation, *vantage.swarm,
                                                             recorder_config);
      vantage.tap = std::make_unique<VantageTap>();
      vantage.tap->impl = this;
      vantage.tap->vantage_index = vantages.size();
      vantage.swarm->add_observer(vantage.tap.get());
      vantages.push_back(std::move(vantage));
    };

    if (config.period.go_ipfs_present) {
      make_vantage("go-ipfs", config.period.go_ipfs_mode == dht::Mode::kServer,
                   config.period.go_low_water, config.period.go_high_water,
                   30 * kSecond, 4001);
    }
    for (int head = 0; head < config.period.hydra_heads; ++head) {
      make_vantage("Hydra H" + std::to_string(head), true,
                   config.period.hydra_low_water, config.period.hydra_high_water,
                   1 * kMinute, static_cast<std::uint16_t>(3001 + head));
    }

    peer_states.assign(population.peers().size());
    maintained_flags.assign(population.peers().size() * vantages.size(), 0);
    server_pos.assign(population.peers().size(), kNotOnlineServer);
  }

  [[nodiscard]] bool visible(const RemotePeer& peer, const Vantage& vantage) const {
    return pair_visible(peer.pid, vantage.salt, config.vantage_visibility);
  }

  // ---- network-condition gates (DESIGN.md §9) ------------------------------
  //
  // The vantage is treated as publicly reachable (it is the measuring
  // node), so remote->vantage contact is gated on the path (outages,
  // partitions) and the dial-failure hash only; vantage->remote dials
  // additionally respect the target's NAT reachability class.  All three
  // verdicts are pure hashes — no RNG stream is consumed — so an absent
  // `config.conditions` leaves every draw of the engine untouched.

  /// May `peer` open an inbound connection onto vantage `v` right now?
  [[nodiscard]] bool contact_allowed(const RemotePeer& peer, std::size_t v) const {
    if (!conditions) return true;
    const p2p::PeerId& vantage_pid = vantages[v].swarm->local_id();
    return conditions->path_open(peer.pid, vantage_pid, simulation.now()) &&
           !conditions->dial_failure(peer.pid, vantage_pid, simulation.now());
  }

  /// May vantage `v` dial out to `peer` right now (NAT class included)?
  [[nodiscard]] bool outbound_allowed(const RemotePeer& peer, std::size_t v) const {
    if (!conditions) return true;
    return conditions->dial_allowed(vantages[v].swarm->local_id(), peer.pid,
                                    simulation.now(), to_string(peer.category));
  }

  [[nodiscard]] std::uint8_t& maintained_flag(std::uint32_t peer, std::size_t v) {
    return maintained_flags[peer * vantages.size() + v];
  }

  // ---- time-varying phase program (DESIGN.md §14) --------------------------
  //
  // Every modulation below is a pure reshaping of an already-pure draw:
  // the base sample stays a function of (node, index, seed), and the
  // multiplier is a function of the deterministic query time only, so
  // phased runs inherit the engine's worker/shard byte-invariance
  // unchanged.  An absent `config.phases` short-circuits every helper to
  // the legacy value — bit-for-bit (hash-pinned by the golden tests).

  /// `interval / rate`, with the legacy integer untouched at rate 1 so an
  /// all-neutral phase cannot perturb a draw through rounding.
  [[nodiscard]] static SimDuration modulate(SimDuration interval, double rate) {
    if (rate == 1.0) return interval;
    return static_cast<SimDuration>(static_cast<double>(interval) / rate);
  }

  /// The churned offline gap beginning at `gap_start`, divided by the
  /// phase program's churn rate there and floor-clamped exactly like the
  /// legacy draw.  The phase input is the gap's own deterministic start
  /// time, so the gap stays a pure function of (peer, session, seed).
  [[nodiscard]] SimDuration churned_gap(std::uint32_t index, std::uint32_t session,
                                        SimTime gap_start, Category category) {
    SimDuration gap = churn->gap_length(index, session, gap_start, category);
    if (phases) gap = modulate(gap, phases->rates_at(gap_start).churn);
    return std::max<SimDuration>(gap, kMinute);
  }

  /// The per-phase tally bucket covering the clock, nullptr when no
  /// program runs (so every bump site is a no-op on legacy runs).
  [[nodiscard]] measure::PhaseSummary* current_phase() {
    if (!phases) return nullptr;
    return &phase_counters[phases->phase_index_at(simulation.now())];
  }

  // ---- intra-trial sharding (DESIGN.md §13) --------------------------------
  //
  // The event loop itself never forks: the only work that fans out across
  // the shard pool is the pure whole-population sample tallies, executed
  // to a barrier inside a single event and summed in canonical ascending
  // shard order.  An integer sum over contiguous index-order slices equals
  // the sequential sweep, so the export is byte-identical at any shard and
  // worker count.  Churn, crawl and every RNG-stream draw stay sequential.

  /// Sum `slice_sum(first, last)` over `count` items: one contiguous slice
  /// per shard on the pool (strict barrier), partials added in ascending
  /// shard order, or a single inline call covering everything when
  /// sharding is off.
  template <typename SliceSum>
  [[nodiscard]] std::size_t sum_over_shards(std::size_t count, SliceSum&& slice_sum) {
    if (!shard_pool) return slice_sum(std::size_t{0}, count);
    const unsigned shards = shard_pool->shards();
    std::vector<std::size_t> partials(shards);
    shard_pool->run([&](unsigned shard) {
      const auto [first, last] = runtime::ShardPool::slice(count, shards, shard);
      partials[shard] = slice_sum(first, last);
    });
    return std::accumulate(partials.begin(), partials.end(), std::size_t{0});
  }

  /// Ground-truth online count.
  [[nodiscard]] std::size_t true_online_count() {
    const auto online = [&](std::size_t first, std::size_t last) {
      std::size_t count = 0;
      for (std::size_t i = first; i < last; ++i) count += peer_states.online[i];
      return count;
    };
    return sum_over_shards(peer_states.online.size(), online);
  }

  /// Ground-truth provider-slot count (content sample).
  [[nodiscard]] std::size_t true_record_count() {
    const auto records = [&](std::size_t first, std::size_t last) {
      std::size_t count = 0;
      for (std::size_t i = first; i < last; ++i) {
        if (peer_states.online[i] == 0) continue;
        // The slot count materialised at session start (equal to
        // `content->publish_count` on legacy runs; phase-scaled on phased
        // ones) — ground truth must count what the session actually
        // published.
        count += peer_states.publish_slots[i];
      }
      return count;
    };
    return sum_over_shards(population.peers().size(), records);
  }

  // ---- session machinery ---------------------------------------------------

  void schedule_population() {
    if (churn) {
      // The lifecycle model replaces the static per-category session
      // machinery wholesale: every peer — always-on categories included —
      // joins and leaves on the simulation clock (DESIGN.md §10).
      schedule_churned_population();
      return;
    }
    common::Rng srng = rng.child(0x5e5);
    for (const RemotePeer& peer : population.peers()) {
      const CategoryParams& params = config.population.params(peer.category);
      switch (params.session) {
        case SessionKind::kAlwaysOn: {
          // Ramp the always-on population in over the first 30 minutes so
          // the vantage's connection table fills the way a freshly
          // bootstrapped node's does (Fig. 5's initial climb).
          const auto offset =
              static_cast<SimDuration>(srng.uniform(0.0, 30.0 * kMinute));
          const std::uint32_t index = peer.index;
          simulation.schedule_at(offset, [this, index] {
            start_session(index, config.period.duration + kDay);
          });
          break;
        }
        case SessionKind::kOneShot: {
          const std::uint32_t index = peer.index;
          simulation.schedule_at(peer.session_start, [this, index] {
            const RemotePeer& p = population.peers()[index];
            start_session(index, simulation.now() + p.session_length);
          });
          break;
        }
        case SessionKind::kRecurring: {
          const auto first =
              static_cast<SimDuration>(srng.exponential(
                  static_cast<double>(std::max<SimDuration>(params.mean_gap, kMinute))));
          schedule_recurring_session(peer.index, first);
          break;
        }
      }
    }
  }

  void schedule_recurring_session(std::uint32_t index, SimDuration delay) {
    simulation.schedule_after(delay, [this, index] {
      if (simulation.now() >= config.period.duration) return;
      const CategoryParams& params =
          config.population.params(population.peers()[index].category);
      common::Rng prng = peer_rng(index);
      const auto length = std::max<SimDuration>(
          static_cast<SimDuration>(
              prng.exponential(static_cast<double>(params.mean_session))),
          30 * kSecond);
      start_session(index, simulation.now() + length);
      // Next cycle: after this session plus an offline gap.
      const auto gap = static_cast<SimDuration>(
          prng.exponential(static_cast<double>(std::max<SimDuration>(
              params.mean_gap, kMinute))));
      schedule_recurring_session(index, length + gap);
    });
  }

  // ---- churned lifecycle (DESIGN.md §10) -----------------------------------
  //
  // Every draw below is a pure function of (peer, session-index, campaign
  // seed): the model derives a fresh generator per draw, and the only other
  // input — the time a gap starts — is itself deterministic under the same
  // seed.  Session teardown rides the existing machinery: connections
  // opened during a session were scheduled to close no later than
  // the peer's `session_end`, so a departing peer's links die with it and the
  // vantage attributes them to `kPeerOffline`.

  void schedule_churned_population() {
    for (const RemotePeer& peer : population.peers()) {
      const std::uint32_t index = peer.index;
      if (churn->initially_online(index)) {
        // Spread the initial joins over the first 10 minutes (pure hash)
        // so the vantage's connection table fills the way a freshly
        // bootstrapped node's does rather than in one burst.
        const auto offset = static_cast<SimDuration>(
            common::mix64(common::mix64(config.seed, 0x0ff5e7), index) %
            static_cast<std::uint64_t>(10 * kMinute));
        schedule_churn_session(index, offset);
      } else {
        schedule_churn_session(index, churned_gap(index, 0, 0, peer.category));
      }
    }
  }

  void schedule_churn_session(std::uint32_t index, SimDuration delay) {
    simulation.schedule_after(delay, [this, index] {
      if (simulation.now() >= config.period.duration) return;
      const std::uint32_t session = peer_states.session_index[index]++;
      RemotePeer& peer = population.peers()[index];
      const bool redraw = peer.has_alt_ip && churn->redraw_address(index, session);
      const auto length = std::max<SimDuration>(
          churn->session_length(index, session, peer.category), 30 * kSecond);
      // The following offline gap, with diurnal and phase modulation
      // evaluated where the gap begins.
      const SimDuration gap = churned_gap(index, session + 1,
                                          simulation.now() + length, peer.category);
      // Rejoining peers keep their PeerId but may come back from their
      // other IP — the §V-A dual-homing rules applied per session (the
      // per-connection alternation still applies on top).
      if (redraw) {
        std::swap(peer.ip, peer.alt_ip);
      }
      // A phase program's `population` target admits only a fraction of
      // the churned population: a pure per-(peer, session) hash decides
      // whether this session actually starts.  The chain itself — draws,
      // redraw swap, next-cycle schedule — advances unconditionally, so
      // admitting a peer later never replays or shifts a draw.
      bool admitted = true;
      if (phases) {
        const double fraction = phases->rates_at(simulation.now()).population;
        if (fraction < 1.0) {
          const std::uint64_t h = common::mix64(
              common::mix64(config.seed, 0x909a7e),
              (static_cast<std::uint64_t>(index) << 32) |
                  static_cast<std::uint64_t>(session));
          admitted = static_cast<double>(h) <
                     fraction * static_cast<double>(
                                    std::numeric_limits<std::uint64_t>::max());
        }
      }
      if (admitted) start_session(index, simulation.now() + length);
      // The next cycle: this session plus the following offline gap.
      schedule_churn_session(index, length + gap);
    });
  }

  /// Publish one `measure::PopulationSample` per sample interval: the
  /// ground truth (who is truly in-session) next to the vantage's view
  /// (who is currently connected) — the observed-vs-true baseline the
  /// paper could never record.
  void schedule_population_samples(measure::MeasurementSink& sink) {
    if (!churn) return;
    population_task = simulation.schedule_every(
        churn->spec().sample_interval, [this, &sink] {
          measure::PopulationSample sample;
          sample.at = simulation.now();
          sample.total = population.peers().size();
          sample.online = true_online_count();
          std::unordered_set<std::uint32_t> connected;
          for (const Vantage& vantage : vantages) {
            // order-free: only counts distinct peers into a set.
            for (const auto& [conn_id, meta] : vantage.conns) {
              connected.insert(meta.peer);
            }
          }
          sample.connected = connected.size();
          sink.on_population(sample);
        });
  }

  // ---- content-routing workload (DESIGN.md §11) ----------------------------
  //
  // Publish → provide → republish → expire chains drive the server
  // vantages' `dht::RecordStore`s, and fetches run real Bitswap
  // want/block exchanges over a dedicated message-level network whose
  // participants reuse the existing identities (vantage swarm ids, remote
  // peer pids) — no extra RNG draw, so an absent `config.content` leaves
  // every legacy branch untouched.  All workload draws are pure
  // (node, slot/fetch, cycle, seed) functions of the content model;
  // the only mutable state (`fetch_index`) advances in deterministic
  // event order.

  void setup_content() {
    if (!content) return;
    // The Bitswap fabric uses flat default conditions: loss and NAT gating
    // happen at the scheduling layer through the campaign's own
    // `contact_allowed` / `fetch_served` verdicts, so outcomes stay pure.
    content_network = std::make_unique<net::Network>(
        simulation, common::Rng(common::mix64(config.seed, 0xb175)));
    fetcher_hosts.resize(population.peers().size());
    for (std::size_t v = 0; v < vantages.size(); ++v) {
      if (!vantages[v].is_server) continue;
      ContentVantage cv;
      cv.vantage = v;
      cv.records = std::make_unique<dht::RecordStore>();
      const p2p::PeerId pid = vantages[v].swarm->local_id();
      const p2p::Multiaddr address = vantages[v].swarm->listen_address();
      cv.host = std::make_unique<BitswapHost>(
          *content_network, pid, address,
          std::make_unique<p2p::Swarm>(simulation, pid, address, p2p::Swarm::Config{}));
      content_network->add_host(*cv.host);
      content_vantages.push_back(std::move(cv));
    }
  }

  /// Session hook: schedule this session's provides and its fetch chain.
  void start_content_session(std::uint32_t index) {
    const RemotePeer& peer = population.peers()[index];
    std::uint32_t count = content->publish_count(index, peer.category);
    if (phases) {
      // The publish rate scales this session's slot count: integer floor
      // plus a pure per-(peer, session-start) coin for the fraction, so
      // the expectation matches the multiplier exactly and the draw stays
      // shard/worker invariant.  Rate 1 leaves `count` untouched.
      const double rate = phases->rates_at(simulation.now()).publish;
      if (rate != 1.0) {
        const double scaled = static_cast<double>(count) * rate;
        count = static_cast<std::uint32_t>(scaled);
        const double fraction = scaled - static_cast<double>(count);
        if (fraction > 0.0) {
          const std::uint64_t h = common::mix64(
              common::mix64(config.seed, 0x9ab115),
              (static_cast<std::uint64_t>(index) << 20) ^
                  static_cast<std::uint64_t>(simulation.now()));
          if (static_cast<double>(h) <
              fraction * static_cast<double>(
                             std::numeric_limits<std::uint64_t>::max())) {
            ++count;
          }
        }
      }
    }
    peer_states.publish_slots[index] = count;
    const SimTime session_end = peer_states.session_end[index];
    for (std::uint32_t slot = 0; slot < count; ++slot) {
      const SimTime at =
          simulation.now() + content->initial_publish_delay(index, slot);
      if (at >= session_end || at >= config.period.duration) continue;
      simulation.schedule_at(at, [this, index, slot, session_end] {
        provide(index, slot, /*cycle=*/0, session_end);
      });
    }
    schedule_next_fetch(index);
  }

  /// Put provider records for (index, slot) at every vantage the peer can
  /// reach, push the block so the vantage can serve it, and chain the next
  /// 12 h republish cycle while the session lasts.
  void provide(std::uint32_t index, std::uint32_t slot, std::uint32_t cycle,
               SimTime session_end) {
    if (peer_states.online[index] == 0 ||
        peer_states.session_end[index] != session_end) {
      return;
    }
    if (simulation.now() >= config.period.duration) return;
    const RemotePeer& peer = population.peers()[index];
    const std::uint32_t key = content->key_for(index, slot, content_keyspace);
    const bitswap::Cid cid = content->key_cid(key);
    bool landed = false;
    for (ContentVantage& cv : content_vantages) {
      if (!visible(peer, vantages[cv.vantage])) continue;
      if (!contact_allowed(peer, cv.vantage)) continue;  // provide RPC lost
      cv.records->put(cid, peer.pid, simulation.now(),
                      content->spec().provider_ttl);
      cv.host->engine_.add_block(cid);
      landed = true;
    }
    if (landed && content_sink != nullptr) {
      content_sink->on_provide({simulation.now(), key, index, cycle > 0});
      if (auto* phase = current_phase()) ++phase->provides;
    }
    const SimTime next = simulation.now() + content->spec().republish_interval +
                         content->republish_jitter(index, slot, cycle + 1);
    if (next >= session_end || next >= config.period.duration) return;
    simulation.schedule_at(next, [this, index, slot, cycle, session_end] {
      provide(index, slot, cycle + 1, session_end);
    });
  }

  void schedule_next_fetch(std::uint32_t index) {
    const RemotePeer& peer = population.peers()[index];
    if (content->fetch_rate(peer.category) <= 0.0) return;
    const std::uint32_t fetch = peer_states.fetch_index[index];
    SimDuration gap = content->fetch_gap(index, fetch, peer.category);
    if (phases) {
      // The fetch rate (a flash crowd's spike folded in) divides the gap
      // where the wait begins — a pure function of the event time.
      gap = modulate(gap, phases->rates_at(simulation.now()).fetch);
    }
    gap = std::max<SimDuration>(gap, kSecond);
    const SimTime at = simulation.now() + gap;
    if (at >= peer_states.session_end[index] || at >= config.period.duration) {
      return;
    }
    peer_states.fetch_index[index] = fetch + 1;
    simulation.schedule_at(at, [this, index, fetch] {
      if (peer_states.online[index] == 0) return;
      do_fetch(index, fetch);
      schedule_next_fetch(index);
    });
  }

  /// One fetch: provider lookup at a deterministically chosen visible
  /// vantage, then — when a live record exists and the pure service gate
  /// passes — a real want/block exchange on the content network.
  void do_fetch(std::uint32_t index, std::uint32_t fetch) {
    if (simulation.now() >= config.period.duration) return;
    const RemotePeer& peer = population.peers()[index];
    std::uint32_t key = content->fetch_key(index, fetch, content_keyspace);
    if (phases) {
      // An active flash crowd redirects a `hot_fraction` slice of fetches
      // onto the hot key — a pure per-(peer, fetch) hash, so the same
      // fetches converge at any worker or shard count.
      const PhaseRates rates = phases->rates_at(simulation.now());
      if (rates.flash && rates.hot_fraction > 0.0) {
        const std::uint64_t h = common::mix64(
            common::mix64(config.seed, 0xf1a54),
            (static_cast<std::uint64_t>(index) << 32) |
                static_cast<std::uint64_t>(fetch));
        if (static_cast<double>(h) <
            rates.hot_fraction * static_cast<double>(
                                     std::numeric_limits<std::uint64_t>::max())) {
          key = rates.hot_key % std::max<std::uint32_t>(content_keyspace, 1);
        }
      }
    }
    const bitswap::Cid cid = content->key_cid(key);

    measure::FetchSample sample;
    sample.at = simulation.now();
    sample.key = key;

    // The pick is the (hash % count)-th visible vantage.  `visible` is a
    // pure hash, so a count and a second walk pick what a list of the
    // candidates would, without allocating one per fetch.
    const auto visible_to = [&](const ContentVantage& cv) {
      return visible(peer, vantages[cv.vantage]);
    };
    const auto count = static_cast<std::size_t>(
        std::ranges::count_if(content_vantages, visible_to));
    if (count == 0) {
      emit_fetch(sample);
      return;
    }
    const std::uint64_t pick_key = (static_cast<std::uint64_t>(index) << 32) |
                                   static_cast<std::uint64_t>(fetch);
    std::size_t pick = static_cast<std::size_t>(
        common::mix64(common::mix64(config.seed, 0xfe7d), pick_key) % count);
    const auto chosen = std::ranges::find_if(
        content_vantages,
        [&](const ContentVantage& cv) { return visible_to(cv) && pick-- == 0; });
    ContentVantage& cv = *chosen;
    if (!contact_allowed(peer, cv.vantage)) {
      emit_fetch(sample);  // the lookup RPC never reached the vantage
      return;
    }
    sample.found_provider = cv.records->has_provider(cid, simulation.now());
    if (!sample.found_provider || !content->fetch_served(index, fetch)) {
      emit_fetch(sample);
      return;
    }

    // Real exchange: dial (first fetch of the session), send the want,
    // record the block arrival.  The fetcher host reuses the remote's own
    // PeerId so the vantage's Bitswap ledgers are per-peer, as in go-bitswap.
    const p2p::PeerId vantage_pid = vantages[cv.vantage].swarm->local_id();
    BitswapHost& fetcher = fetcher_host(index);
    const SimTime start = simulation.now();
    auto send_want = [this, index, key, start, vantage_pid, cid] {
      BitswapHost* host = fetcher_hosts[index].get();
      if (host == nullptr) return;  // left before the dial finished
      host->engine_.want_block(
          vantage_pid, cid, [this, host, key, start](const bitswap::Cid& block) {
            // Nothing asks a fetcher for blocks, so it keeps none.
            host->engine_.remove_block(block);
            measure::FetchSample served;
            served.at = simulation.now();
            served.key = key;
            served.found_provider = true;
            served.served = true;
            served.latency = simulation.now() - start;
            emit_fetch(served);
          });
    };
    if (content_network->connected(fetcher.pid_, vantage_pid)) {
      send_want();
    } else {
      content_network->dial(fetcher.pid_, vantage_pid,
                            [this, key, start, send_want](bool ok) {
                              if (!ok) {
                                measure::FetchSample failed;
                                failed.at = simulation.now();
                                failed.key = key;
                                failed.found_provider = true;
                                emit_fetch(failed);
                                return;
                              }
                              send_want();
                            });
    }
  }

  void emit_fetch(const measure::FetchSample& sample) {
    if (content_sink != nullptr) content_sink->on_fetch(sample);
    if (auto* phase = current_phase()) ++phase->fetches;
  }

  [[nodiscard]] BitswapHost& fetcher_host(std::uint32_t index) {
    std::unique_ptr<BitswapHost>& host = fetcher_hosts[index];
    if (!host) {
      const RemotePeer& peer = population.peers()[index];
      host = std::make_unique<BitswapHost>(
          *content_network, peer.pid,
          p2p::Multiaddr{peer.ip, p2p::Transport::kTcp, peer.port});
      content_network->add_host(*host);
    }
    return *host;
  }

  /// Session hook: a departing fetcher cancels its in-flight wants (the
  /// bound on `pending_wants()` under churn) and leaves the network.
  void end_content_session(std::uint32_t index) {
    std::unique_ptr<BitswapHost>& host = fetcher_hosts[index];
    if (!host) return;
    for (const ContentVantage& cv : content_vantages) {
      host->engine_.cancel_wants(vantages[cv.vantage].swarm->local_id());
    }
    content_network->remove_host(host->pid_);
    host.reset();
  }

  /// The vantage maintenance cadence (go-ipfs bucket refresh): sweep
  /// expired provider records on a schedule — not just lazily on `get` —
  /// and evict up to `replacement_cache_size` orphaned blocks per pass, so
  /// 14-day runs stay bounded.
  void schedule_content_maintenance() {
    for (std::size_t i = 0; i < content_vantages.size(); ++i) {
      content_tasks.push_back(simulation.schedule_every(
          content->spec().bucket_refresh_interval, [this, i] {
            ContentVantage& cv = content_vantages[i];
            cv.records->sweep(simulation.now());
            std::uint32_t evicted = 0;
            for (std::uint32_t key = 0; key < content_keyspace; ++key) {
              if (evicted >= content->spec().replacement_cache_size) break;
              const bitswap::Cid cid = content->key_cid(key);
              if (cv.host->engine_.has_block(cid) &&
                  !cv.records->has_provider(cid, simulation.now())) {
                cv.host->engine_.remove_block(cid);
                ++evicted;
              }
            }
          }));
    }
  }

  /// Publish one `measure::ContentSample` per sample interval: the record
  /// counts actually held at the server vantages next to the ground truth
  /// (provider slots of peers truly in-session right now).
  void schedule_content_samples() {
    content_tasks.push_back(simulation.schedule_every(
        content->spec().sample_interval, [this] {
          measure::ContentSample sample;
          sample.at = simulation.now();
          for (const ContentVantage& cv : content_vantages) {
            sample.vantage_records += cv.records->record_count();
            sample.vantage_keys += cv.records->key_count();
          }
          sample.true_records = true_record_count();
          if (content_sink != nullptr) content_sink->on_content(sample);
        }));
  }

  [[nodiscard]] common::Rng peer_rng(std::uint32_t index) {
    return rng.child(common::mix64(0x9e11, (static_cast<std::uint64_t>(index) << 20) +
                                               static_cast<std::uint64_t>(
                                                   simulation.now() & 0xfffff)));
  }

  void start_session(std::uint32_t index, SimTime session_end) {
    if (peer_states.online[index] != 0) return;
    peer_states.online[index] = 1;
    peer_states.session_end[index] = session_end;
    if (auto* phase = current_phase()) ++phase->sessions;
    const RemotePeer& peer = population.peers()[index];
    const CategoryParams& params = config.population.params(peer.category);
    common::Rng prng = peer_rng(index);

    if (peer.dht_server) add_online_server(index);

    for (std::size_t v = 0; v < vantages.size(); ++v) {
      if (!vantages[v].is_server) continue;  // client vantages dial out
      if (!visible(peer, vantages[v])) continue;
      if (params.maintain_probability > 0.0 &&
          prng.bernoulli(params.maintain_probability)) {
        const auto delay = static_cast<SimDuration>(prng.uniform(
            1.0 * kSecond, static_cast<double>(90 * kSecond)));
        schedule_maintained_open(index, v, delay);
      }
      if (params.queries_per_hour > 0.0) schedule_next_query(index, v);
    }

    if (content) start_content_session(index);

    // Session end.
    simulation.schedule_at(session_end, [this, index, session_end] {
      end_session(index, session_end);
    });
  }

  void end_session(std::uint32_t index, SimTime expected_end) {
    if (peer_states.online[index] == 0 ||
        peer_states.session_end[index] != expected_end) {
      return;
    }
    peer_states.online[index] = 0;
    peer_states.last_online[index] = simulation.now();
    const RemotePeer& peer = population.peers()[index];
    if (peer.dht_server) remove_online_server(index);
    if (content) end_content_session(index);
  }

  // ---- connection processes ------------------------------------------------

  void schedule_maintained_open(std::uint32_t index, std::size_t v, SimDuration delay) {
    simulation.schedule_after(delay, [this, index, v] { open_maintained(index, v); });
  }

  void open_maintained(std::uint32_t index, std::size_t v) {
    if (peer_states.online[index] == 0 ||
        simulation.now() >= config.period.duration) {
      return;
    }
    if (maintained_flag(index, v) != 0) return;  // already maintained
    const RemotePeer& peer = population.peers()[index];
    // A vetoed maintained open is simply lost for this session (the next
    // session, or a post-trim reconnect, tries again).
    if (!contact_allowed(peer, v)) return;
    const CategoryParams& params = config.population.params(peer.category);
    Vantage& vantage = vantages[v];
    common::Rng prng = peer_rng(index ^ 0x40000000u);

    const auto conn_id = vantage.swarm->open_connection(
        peer.pid, dial_address(peer, prng), p2p::Direction::kInbound);
    vantage.conns[conn_id] = {index, /*maintained=*/true};
    maintained_flag(index, v) = 1;
    schedule_identify(index, v, conn_id);

    // The connection ends at the earlier of the remote's own trim
    // (retention) and the session end.
    const auto retention = static_cast<SimDuration>(prng.exponential(
        static_cast<double>(std::max<SimDuration>(params.retention_mean, kSecond))));
    const SimTime retention_end = simulation.now() + retention;
    const SimTime session_end = peer_states.session_end[index];
    const SimTime close_at = std::min(retention_end, session_end);
    const auto reason = close_at == session_end ? p2p::CloseReason::kPeerOffline
                                                : p2p::CloseReason::kRemoteTrim;
    simulation.schedule_at(close_at, [this, v, conn_id, reason] {
      vantages[v].swarm->close_connection(conn_id, reason);
    });
  }

  void schedule_next_query(std::uint32_t index, std::size_t v) {
    if (peer_states.online[index] == 0) return;
    const RemotePeer& peer = population.peers()[index];
    const CategoryParams& params = config.population.params(peer.category);
    common::Rng prng = peer_rng(index ^ 0x20000000u);
    const double mean_gap_s = 3600.0 / params.queries_per_hour;
    const auto delay =
        static_cast<SimDuration>(prng.exponential(mean_gap_s) * kSecond);
    const SimTime fire_at = simulation.now() + delay;
    if (fire_at >= peer_states.session_end[index] ||
        fire_at >= config.period.duration) {
      return;
    }
    simulation.schedule_at(fire_at, [this, index, v] {
      if (peer_states.online[index] == 0) return;
      open_query(index, v);
      schedule_next_query(index, v);
    });
  }

  void open_query(std::uint32_t index, std::size_t v) {
    // libp2p reuses an existing connection for new streams: a peer that
    // already maintains a connection to the vantage queries over it
    // instead of dialing a fresh one.
    if (maintained_flag(index, v) != 0) return;
    const RemotePeer& peer = population.peers()[index];
    if (!contact_allowed(peer, v)) return;  // this query attempt is lost
    const CategoryParams& params = config.population.params(peer.category);
    Vantage& vantage = vantages[v];
    common::Rng prng = peer_rng(index ^ 0x10000000u);

    const auto conn_id = vantage.swarm->open_connection(
        peer.pid, dial_address(peer, prng), p2p::Direction::kInbound);
    vantage.conns[conn_id] = {index, /*maintained=*/false};
    schedule_identify(index, v, conn_id);

    // Query connections close once the remote got its answers (lognormal
    // around the category's median; §IV-A's "crawler-like" short contacts).
    const double median_s = common::to_seconds(params.query_duration_median);
    double duration_s = median_s * std::exp(0.65 * prng.normal());
    duration_s = std::clamp(duration_s, 3.0, 15.0 * 60.0);
    SimTime close_at = simulation.now() + common::from_seconds(duration_s);
    if (conditions) {
      // Geography reaches the contact-duration data: a query exchange
      // spans round trips, so stretch the connection by one sampled RTT
      // from the condition model's zone matrix.
      close_at += 2 * conditions->one_way(peer.pid, vantage.swarm->local_id(),
                                          simulation.now(), prng);
    }
    close_at = std::min(close_at, peer_states.session_end[index]);
    simulation.schedule_at(close_at, [this, v, conn_id] {
      vantages[v].swarm->close_connection(conn_id, p2p::CloseReason::kRemoteClose);
    });
  }

  void schedule_identify(std::uint32_t index, std::size_t v,
                         p2p::ConnectionId conn_id) {
    // Identify completes roughly one round-trip after the connection opens.
    common::Rng prng = peer_rng(index ^ 0x08000000u);
    auto delay = static_cast<SimDuration>(
        prng.uniform(0.4 * kSecond, 2.5 * kSecond));
    if (conditions) {
      // The handshake RTT rides on the condition model's latency, so
      // inter-zone identifies land measurably later than intra-zone ones.
      delay += 2 * conditions->one_way(population.peers()[index].pid,
                                       vantages[v].swarm->local_id(),
                                       simulation.now(), prng);
    }
    simulation.schedule_after(delay, [this, index, v, conn_id] {
      Vantage& vantage = vantages[v];
      const p2p::Connection* connection = vantage.swarm->find(conn_id);
      if (connection == nullptr) return;  // closed before identify finished
      const RemotePeer& peer = population.peers()[index];
      const std::string& agent = population.agent(peer.agent);
      if (agent.empty()) return;  // the "missing" stream never identifies
      // The connection carries the remote's peerstore slot, and the
      // announced set is interned once per vantage.
      const SimTime now = simulation.now();
      const p2p::Peerstore::Slot slot = connection->slot;
      vantage.swarm->peerstore().set_agent(slot, agent, now);
      vantage.swarm->peerstore().set_protocols(
          slot, vantage.protocol_list(population, peer.protocols), now);
      // A slice of the identified DHT servers lands in the vantage's
      // routing table; go-ipfs tags those peers and their connections
      // survive trims — the paper's long-lived remnant (Peer-type averages
      // of 696 s / 2'445 s in P0 despite a 73 s median).  Stable servers
      // dominate routing tables because flaky ones get evicted.
      if (peer.dht_server && vantage.is_server) {
        const double rt_probability = [&] {
          switch (peer.category) {
            // Calibrated so the tagged population stays below the
            // smallest LowWater in Table I (600): ~330 tagged peers.
            case Category::kHydra:
            case Category::kCoreServer:
            case Category::kEthereum: return 0.22;
            case Category::kLightServer: return 0.015;
            default: return 0.01;
          }
        }();
        if (pair_visible(peer.pid, vantage.salt ^ 0x7ab1ULL, rt_probability)) {
          vantage.swarm->conn_manager().set_tag(peer.pid, 50);
        }
      }
    });
  }

  void handle_vantage_close(std::size_t v, const p2p::Connection& connection) {
    Vantage& vantage = vantages[v];
    const auto it = vantage.conns.find(connection.id);
    if (it == vantage.conns.end()) return;
    const ConnMeta meta = it->second;
    vantage.conns.erase(it);
    if (!meta.maintained) return;
    maintained_flag(meta.peer, v) = 0;

    // Maintained peers come back: after *our* trim they redial once their
    // routing needs us again; after their own trim likewise (§IV-A — this
    // is what turns low watermarks into high connection churn).
    const RemotePeer& peer = population.peers()[meta.peer];
    const CategoryParams& params = config.population.params(peer.category);
    if (!params.reconnect_after_trim) return;
    if (connection.reason != p2p::CloseReason::kLocalTrim &&
        connection.reason != p2p::CloseReason::kRemoteTrim) {
      return;
    }
    if (peer_states.online[meta.peer] == 0) return;
    common::Rng prng = peer_rng(meta.peer ^ 0x04000000u);
    const auto backoff = std::max<SimDuration>(
        static_cast<SimDuration>(prng.exponential(
            static_cast<double>(params.reconnect_backoff_mean))),
        30 * kSecond);
    schedule_maintained_open(meta.peer, v, backoff);
  }

  // ---- online-server index (client-vantage dial targets) -------------------

  void add_online_server(std::uint32_t index) {
    server_pos[index] = static_cast<std::uint32_t>(online_servers.size());
    online_servers.push_back(index);
  }

  void remove_online_server(std::uint32_t index) {
    const std::uint32_t pos = server_pos[index];
    if (pos == kNotOnlineServer) return;
    const std::uint32_t last = online_servers.back();
    online_servers[pos] = last;
    server_pos[last] = pos;
    online_servers.pop_back();
    server_pos[index] = kNotOnlineServer;
  }

  void schedule_client_dials() {
    // Only DHT-client vantages dial out at a high rate (P3): the node's own
    // lookups and gossip are its sole contact with the network.
    for (std::size_t v = 0; v < vantages.size(); ++v) {
      if (!vantages[v].is_server) schedule_next_client_dial(v);
    }
  }

  void schedule_next_client_dial(std::size_t v) {
    common::Rng prng = rng.child(common::mix64(0xd1a1, simulation.now() + v));
    const double mean_gap_s = 3600.0 / config.client_dials_per_hour;
    const auto delay = std::max<SimDuration>(
        static_cast<SimDuration>(prng.exponential(mean_gap_s) * kSecond), 20);
    simulation.schedule_after(delay, [this, v] {
      if (simulation.now() >= config.period.duration) return;
      client_dial(v);
      schedule_next_client_dial(v);
    });
  }

  void client_dial(std::size_t v) {
    if (online_servers.empty()) return;
    common::Rng prng = rng.child(common::mix64(0xd1a2, simulation.now()));
    const std::uint32_t index = online_servers[static_cast<std::size_t>(
        prng.uniform_u64(online_servers.size()))];
    const RemotePeer& peer = population.peers()[index];
    if (!outbound_allowed(peer, v)) return;  // NAT'd / cut off / dial lost
    Vantage& vantage = vantages[v];

    const auto conn_id = vantage.swarm->open_connection(
        peer.pid, p2p::Multiaddr{peer.ip, p2p::Transport::kTcp, peer.port},
        p2p::Direction::kOutbound);
    vantage.conns[conn_id] = {index, /*maintained=*/false};
    schedule_identify(index, v, conn_id);

    // A DHT client is the first thing the remote's connection manager
    // trims; durations stay short (P3's 120 s average, §IV-A).
    const auto retention = std::max<SimDuration>(
        static_cast<SimDuration>(prng.exponential(135.0) * kSecond), 5 * kSecond);
    const SimTime close_at =
        std::min(simulation.now() + retention, peer_states.session_end[index]);
    simulation.schedule_at(close_at, [this, v, conn_id] {
      vantages[v].swarm->close_connection(conn_id, p2p::CloseReason::kRemoteTrim);
    });
  }

  void schedule_server_outbound() {
    // Server vantages also dial out a little (their own DHT refreshes);
    // the paper observes "vastly more inbound than outbound" with shorter
    // outbound durations — these are those outbound queries.
    for (std::size_t v = 0; v < vantages.size(); ++v) {
      if (!vantages[v].is_server) continue;
      simulation.schedule_every(
          45 * kSecond,
          [this, v] {
            if (online_servers.empty()) return;
            common::Rng prng = rng.child(common::mix64(0x0b1, simulation.now() + v));
            // The vantage's own refresh pace scales with the replica size so
            // the inbound:outbound ratio matches at any population scale.
            if (!prng.bernoulli(std::min(config.population.scale, 1.0))) return;
            const std::uint32_t index = online_servers[static_cast<std::size_t>(
                prng.uniform_u64(online_servers.size()))];
            const RemotePeer& peer = population.peers()[index];
            if (!visible(peer, vantages[v])) return;
            if (!outbound_allowed(peer, v)) return;
            Vantage& vantage = vantages[v];
            const auto conn_id = vantage.swarm->open_connection(
                peer.pid, p2p::Multiaddr{peer.ip, p2p::Transport::kTcp, peer.port},
                p2p::Direction::kOutbound);
            vantage.conns[conn_id] = {index, false};
            schedule_identify(index, v, conn_id);
            const auto duration = std::max<SimDuration>(
                static_cast<SimDuration>(prng.exponential(75.0) * kSecond),
                3 * kSecond);
            const SimTime close_at = std::min(simulation.now() + duration,
                                              peer_states.session_end[index]);
            simulation.schedule_at(close_at, [this, v, conn_id] {
              vantages[v].swarm->close_connection(conn_id,
                                                  p2p::CloseReason::kLocalClose);
            });
          });
    }
  }

  // ---- routing gossip: PIDs known without connections ----------------------

  void schedule_gossip() {
    for (std::size_t v = 0; v < vantages.size(); ++v) {
      if (!vantages[v].is_server) continue;
      simulation.schedule_every(
          60 * kSecond,
          [this, v] {
            common::Rng prng = rng.child(common::mix64(0x905, simulation.now() + v));
            // Routing responses and gossip mention peers the vantage may
            // never connect to — the paper's ~3.6k known-but-unconnected
            // PIDs.  Stale records reference offline peers too.  The touch
            // rate scales with the population so scaled-down test runs keep
            // the same observed/unobserved mix.
            const double expected = 4.0 * config.population.scale;
            int touches = static_cast<int>(expected);
            if (prng.bernoulli(expected - touches)) ++touches;
            for (int i = 0; i < touches; ++i) {
              const auto index = static_cast<std::uint32_t>(
                  prng.uniform_u64(population.peers().size()));
              const RemotePeer& peer = population.peers()[index];
              if (peer_states.online[index] != 0 ||
                  peer_states.last_online[index] > simulation.now() - 24 * kHour ||
                  peer.category == Category::kCoreServer) {
                vantages[v].swarm->peerstore().touch(peer.pid, simulation.now());
              }
            }
          });
    }
  }

  // ---- active-crawler baseline ---------------------------------------------

  /// One crawl: the body the periodic task fires, extracted so the phased
  /// cadence below can invoke the identical sweep on a varying schedule.
  void run_crawl(measure::MeasurementSink& sink) {
    common::Rng prng = rng.child(common::mix64(0xc4a1, simulation.now()));
    measure::CrawlObservation snapshot;
    snapshot.at = simulation.now();
    if (auto* phase = current_phase()) ++phase->crawls;
    for (const RemotePeer& peer : population.peers()) {
      if (!peer.dht_server || !population.announces_kad(peer.protocols)) continue;
      const CategoryParams& params = config.population.params(peer.category);
      if (peer_states.online[peer.index] != 0) {
        if (prng.bernoulli(params.crawl_visibility)) {
          // Conditions narrow the crawler's *reach*, never what it
          // has learned: outage and partitioned zones are cut off
          // from the crawler (it sits in "the rest" of the network)
          // and NAT classes refuse its dials, but routing tables
          // keep mentioning those PIDs either way.
          const bool reachable =
              conditions == std::nullopt ||
              (conditions->accepts_inbound(peer.pid,
                                           to_string(peer.category)) &&
               !conditions->zone_down(peer.pid, simulation.now()) &&
               !conditions->zone_partitioned(peer.pid, simulation.now()));
          if (reachable) ++snapshot.reached_servers;
          ++snapshot.learned_pids;
        }
      } else if (simulation.now() - peer_states.last_online[peer.index] <
                 24 * kHour) {
        // Stale routing-table entries: learned but not reachable.
        if (prng.bernoulli(0.5)) ++snapshot.learned_pids;
      }
    }
    sink.on_crawl(snapshot);
  }

  void schedule_crawler(measure::MeasurementSink& sink) {
    if (!config.enable_crawler) return;
    if (phases && phases->spec().modulates_crawl()) {
      // Phased cadence: the crawl interval divided by the program's crawl
      // rate where the wait begins, self-chained so the pace follows the
      // phase windows.  A program that never touches crawl_rate keeps the
      // legacy periodic task (identical event schedule).
      schedule_phased_crawl(sink, config.crawl_interval / 2);
      return;
    }
    crawler_task = simulation.schedule_every(
        config.crawl_interval, [this, &sink] { run_crawl(sink); },
        config.crawl_interval / 2);
  }

  void schedule_phased_crawl(measure::MeasurementSink& sink, SimDuration delay) {
    // Each hop replaces `crawler_task`, so run() can always cancel the
    // pending crawl exactly like it cancels the periodic task.
    crawler_task = simulation.schedule_after(delay, [this, &sink] {
      if (simulation.now() >= config.period.duration) return;
      run_crawl(sink);
      const auto next = std::max<SimDuration>(
          modulate(config.crawl_interval,
                   phases->rates_at(simulation.now()).crawl),
          kMinute);
      schedule_phased_crawl(sink, next);
    });
  }

  // ---- §IV-B metadata dynamics ---------------------------------------------

  void schedule_metadata_dynamics() {
    if (!config.enable_metadata_dynamics) return;
    common::Rng mrng = rng.child(0x3e7a);
    const double days =
        static_cast<double>(config.period.duration) / static_cast<double>(kDay);
    const double factor = config.population.scale * days / 3.0;

    // Candidate pools.
    std::vector<std::uint32_t> go_ipfs_stable;
    std::vector<std::uint32_t> kad_flappers;
    std::vector<std::uint32_t> autonat_candidates;
    std::vector<std::uint32_t> non_go_ipfs;
    for (const RemotePeer& peer : population.peers()) {
      const std::string& agent = population.agent(peer.agent);
      const bool go = agent.starts_with("go-ipfs/");
      switch (peer.category) {
        case Category::kCoreServer:
        case Category::kCoreClient:
          // Always-on peers: their identify pushes are reliably observed,
          // matching the paper's counted version changes.
          if (go) go_ipfs_stable.push_back(peer.index);
          break;
        default:
          break;
      }
      if (peer.dht_server && (peer.category == Category::kLightServer ||
                              peer.category == Category::kOneTime)) {
        kad_flappers.push_back(peer.index);
      }
      if (go) autonat_candidates.push_back(peer.index);
      if (!go && !agent.empty() && peer.category == Category::kNormalUser) {
        non_go_ipfs.push_back(peer.index);
      }
    }

    auto pick = [&mrng](const std::vector<std::uint32_t>& pool) {
      return pool[static_cast<std::size_t>(mrng.uniform_u64(pool.size()))];
    };
    auto rounds = [factor](double base) {
      return static_cast<std::size_t>(std::llround(base * factor));
    };

    // Version-change events (Table III): upgrades / downgrades / commit
    // changes.  "Change" peers get a dirty build up front so dirty–dirty
    // dominates that kind, as in the paper.
    struct PlannedChange {
      std::uint32_t peer;
      common::VersionChangeKind kind;
    };
    std::vector<PlannedChange> planned;
    if (!go_ipfs_stable.empty()) {
      for (std::size_t i = 0; i < rounds(230); ++i) {
        planned.push_back({pick(go_ipfs_stable), common::VersionChangeKind::kUpgrade});
      }
      for (std::size_t i = 0; i < rounds(113); ++i) {
        planned.push_back({pick(go_ipfs_stable), common::VersionChangeKind::kDowngrade});
      }
      for (std::size_t i = 0; i < rounds(216); ++i) {
        const std::uint32_t index = pick(go_ipfs_stable);
        const std::string& agent = population.agent(population.peers()[index].agent);
        if (agent.find("-dirty") == std::string::npos && mrng.bernoulli(0.96)) {
          population.set_agent(index, agent + "-dirty");  // pre-seed a dirty build
        }
        planned.push_back({index, common::VersionChangeKind::kChange});
      }
    }
    for (const PlannedChange& change : planned) {
      const auto at = static_cast<SimTime>(
          mrng.uniform(0.08, 0.95) * static_cast<double>(config.period.duration));
      simulation.schedule_at(at, [this, change] {
        apply_version_change(change.peer, change.kind);
      });
    }

    // One agent switched from a non-go-ipfs agent to go-ipfs (§IV-B).
    if (!non_go_ipfs.empty() && factor >= 0.4) {
      const std::uint32_t index = pick(non_go_ipfs);
      const auto at = static_cast<SimTime>(
          mrng.uniform(0.2, 0.8) * static_cast<double>(config.period.duration));
      simulation.schedule_at(at, [this, index] {
        common::Rng prng = peer_rng(index ^ 0x02000000u);
        set_peer_agent(index, sample_go_ipfs_agent(prng));
      });
    }

    // Protocol flapping: kad (server<->client role switches) and autonat.
    schedule_flapping(mrng, kad_flappers, rounds(2481), 34.0 * days / 3.0, proto::kKad);
    schedule_flapping(mrng, autonat_candidates, rounds(3603), 30.0 * days / 3.0,
                      proto::kAutonat);
  }

  /// `protocol` must outlive the run: the toggle events capture the view.
  void schedule_flapping(common::Rng& mrng, const std::vector<std::uint32_t>& pool,
                         std::size_t peer_count, double toggles_per_peer,
                         std::string_view protocol) {
    if (pool.empty() || peer_count == 0 || toggles_per_peer <= 0.0) return;
    peer_count = std::min(peer_count, pool.size());
    // Deterministic choice of flapping peers: sample without replacement.
    common::Rng sampler = mrng.child(common::hash64(protocol));
    const auto chosen = sampler.sample_without_replacement(pool.size(), peer_count);
    const double mean_interval =
        static_cast<double>(config.period.duration) / toggles_per_peer;
    for (const std::size_t slot : chosen) {
      const std::uint32_t index = pool[slot];
      schedule_next_toggle(index, protocol, mean_interval,
                           sampler.child(index)());
    }
  }

  void schedule_next_toggle(std::uint32_t index, std::string_view protocol,
                            double mean_interval, std::uint64_t seed) {
    common::Rng prng(seed);
    const auto delay = std::max<SimDuration>(
        static_cast<SimDuration>(prng.exponential(mean_interval)), kMinute);
    const std::uint64_t next_seed = prng();
    simulation.schedule_after(delay, [this, index, protocol, mean_interval,
                                      next_seed] {
      if (simulation.now() >= config.period.duration) return;
      toggle_protocol(index, protocol);
      schedule_next_toggle(index, protocol, mean_interval, next_seed);
    });
  }

  void toggle_protocol(std::uint32_t index, std::string_view protocol) {
    population.toggle_protocol(index, protocol);
    publish_protocols(index);
  }

  void apply_version_change(std::uint32_t index, common::VersionChangeKind kind) {
    const RemotePeer& peer = population.peers()[index];
    common::Rng prng = peer_rng(index ^ 0x01000000u);
    set_peer_agent(index, mutate_agent(prng, population.agent(peer.agent), kind));
  }

  void set_peer_agent(std::uint32_t index, std::string_view agent) {
    if (!population.set_agent(index, agent)) return;
    // Identify-push to every vantage that already knows the peer.
    const RemotePeer& peer = population.peers()[index];
    for (Vantage& vantage : vantages) {
      if (const auto slot = vantage.swarm->peerstore().slot(peer.pid)) {
        vantage.swarm->peerstore().set_agent(*slot, population.agent(peer.agent),
                                             simulation.now());
      }
    }
  }

  void publish_protocols(std::uint32_t index) {
    const RemotePeer& peer = population.peers()[index];
    for (Vantage& vantage : vantages) {
      p2p::Peerstore& store = vantage.swarm->peerstore();
      const auto slot = store.slot(peer.pid);
      // Only identified peers re-announce (we have no channel otherwise).
      if (slot.has_value() && !store.entries()[*slot].agent.empty()) {
        store.set_protocols(*slot, vantage.protocol_list(population, peer.protocols),
                            simulation.now());
      }
    }
  }

  // ---- run -----------------------------------------------------------------

  void run(measure::MeasurementSink& sink) {
    sink.on_run_begin("campaign " + config.period.name);
    setup_vantages();
    setup_content();
    content_sink = &sink;
    for (Vantage& vantage : vantages) {
      vantage.recorder->start();
      vantage.swarm->start();
    }
    schedule_population();
    schedule_client_dials();
    schedule_server_outbound();
    schedule_gossip();
    schedule_crawler(sink);
    schedule_population_samples(sink);
    if (content) {
      schedule_content_maintenance();
      schedule_content_samples();
    }
    schedule_metadata_dynamics();

    simulation.run_until(config.period.duration);
    // The crawler, population-sample and content lambdas hold references
    // to `sink`, which dies with this call; cancel them so manual post-run
    // stepping cannot fire them.
    simulation.cancel(crawler_task);
    crawler_task = sim::kInvalidTask;
    simulation.cancel(population_task);
    population_task = sim::kInvalidTask;
    for (const sim::TaskId task : content_tasks) simulation.cancel(task);
    content_tasks.clear();
    content_sink = nullptr;

    for (Vantage& vantage : vantages) {
      vantage.recorder->finish();
      vantage.swarm->stop();
    }
    // Publish the per-head datasets, then the union the paper reports
    // (§III-C).  Heads are merged before publication so the union can be
    // built without keeping published datasets around.
    std::vector<measure::Dataset> heads;
    for (Vantage& vantage : vantages) {
      measure::Dataset dataset = vantage.recorder->take_dataset();
      if (vantage.name == "go-ipfs") {
        sink.on_dataset(measure::DatasetRole::kVantage, std::move(dataset));
      } else {
        heads.push_back(std::move(dataset));
      }
    }
    if (!heads.empty()) {
      measure::Dataset merged;
      merged.vantage = "Hydra (union)";
      for (const measure::Dataset& head : heads) merged.merge(head);
      for (measure::Dataset& head : heads) {
        sink.on_dataset(measure::DatasetRole::kHydraHead, std::move(head));
      }
      sink.on_dataset(measure::DatasetRole::kHydraUnion, std::move(merged));
    }
    measure::RunSummary summary;
    summary.population_size = population.peers().size();
    summary.events_executed = simulation.executed_events();
    if (phases) summary.phases = phase_counters;
    sink.on_run_end(summary);
  }

  // ---- members -------------------------------------------------------------

  CampaignConfig config;
  common::Rng rng;
  sim::Simulation simulation;
  Population population;
  std::optional<net::ConditionModel> conditions;
  std::optional<ChurnModel> churn;
  std::optional<ContentModel> content;
  // Phase program (DESIGN.md §14); empty unless `config.phases` is engaged.
  std::optional<PhaseProgram> phases;
  std::vector<measure::PhaseSummary> phase_counters;  ///< per-phase tallies
  std::uint32_t content_keyspace = 0;
  // Hosts must outlive the content network (net::Host lifetime contract),
  // so the network is declared *after* every host container below.
  std::vector<ContentVantage> content_vantages;
  /// Each remote's Bitswap host while it fetches, by population index.
  std::vector<std::unique_ptr<BitswapHost>> fetcher_hosts;
  std::unique_ptr<net::Network> content_network;
  std::vector<sim::TaskId> content_tasks;
  measure::MeasurementSink* content_sink = nullptr;  ///< valid during run()
  std::vector<Vantage> vantages;
  PeerStates peer_states;
  std::vector<std::uint8_t> maintained_flags;
  std::vector<std::uint32_t> online_servers;
  /// Each peer's position in online_servers, by population index.
  std::vector<std::uint32_t> server_pos;
  static constexpr std::uint32_t kNotOnlineServer = 0xffffffffu;
  sim::TaskId crawler_task = sim::kInvalidTask;
  sim::TaskId population_task = sim::kInvalidTask;
  // Intra-trial sharding (DESIGN.md §13); all empty/null unless
  // `config.sharding` is engaged.
  runtime::WorkerLease shard_lease;
  std::unique_ptr<runtime::ShardPool> shard_pool;
};

std::optional<std::string> CampaignEngine::validate(const CampaignConfig& config) {
  if (auto error = PopulationSpec::validate(
          config.population, config.conditions ? &config.conditions->nat : nullptr)) {
    return error;
  }
  const PeriodSpec& period = config.period;
  if (period.duration <= 0) return "period duration must be positive";
  if (!period.go_ipfs_present && period.hydra_heads <= 0) {
    return "campaign needs at least one vantage (go-ipfs or hydra heads)";
  }
  if (period.go_ipfs_present &&
      (period.go_low_water < 0 || period.go_high_water < period.go_low_water)) {
    return "go-ipfs watermarks must satisfy 0 <= LowWater <= HighWater";
  }
  if (period.hydra_heads < 0) return "hydra head count cannot be negative";
  if (period.hydra_heads > 0 &&
      (period.hydra_low_water < 0 ||
       period.hydra_high_water < period.hydra_low_water)) {
    return "hydra watermarks must satisfy 0 <= LowWater <= HighWater";
  }
  if (!(config.population.scale > 0.0)) return "population scale must be positive";
  if (Population::planned_size(config.population, period.duration) >
      std::numeric_limits<std::uint32_t>::max()) {
    return "period.duration_ms, population.scale: the population would pass "
           "2^32 - 1 peers, the width of a peer index";
  }
  if (config.vantage_visibility <= 0.0 || config.vantage_visibility > 1.0) {
    return "vantage_visibility must be in (0, 1]";
  }
  if (config.enable_crawler && config.crawl_interval <= 0) {
    return "crawl_interval must be positive when the crawler is enabled";
  }
  if (!(config.client_dials_per_hour > 0.0)) {
    return "client_dials_per_hour must be positive";
  }
  if (config.conditions) {
    if (auto error = net::ConditionSpec::validate(*config.conditions)) return error;
  }
  if (config.churn) {
    if (auto error = ChurnSpec::validate(*config.churn)) return error;
  }
  if (config.content) {
    if (auto error = ContentSpec::validate(*config.content)) return error;
  }
  if (config.phases) {
    if (auto error = PhaseProgramSpec::validate(*config.phases)) return error;
    const PhaseProgramSpec& phases = *config.phases;
    if (phases.total_duration() > config.period.duration) {
      return "phases.program: total hold exceeds period.duration_ms — "
             "trailing phases would never run";
    }
    if (phases.modulates_churn() && !config.churn) {
      return "phases: the program modulates churn rates or population but "
             "no churn section is engaged";
    }
    if (phases.modulates_content() && !config.content) {
      return "phases: the program modulates the content workload but no "
             "content section is engaged";
    }
    if (phases.modulates_crawl() && !config.enable_crawler) {
      return "phases: the program modulates crawl_rate but the crawler is "
             "disabled";
    }
    // Composing a churn-modulating program with diurnal churn is ambiguous
    // unless the scenario pins both modulations to the absolute simulation
    // clock (the only composition the engine defines; see
    // ChurnModel::rate_multiplier and docs/SCENARIOS.md).
    const bool diurnal = config.churn && config.churn->diurnal.has_value();
    if (phases.modulates_churn() && diurnal && !phases.diurnal_clock_absolute) {
      return "phases: a churn-modulating program combined with "
             "churn.diurnal requires \"diurnal_clock\": \"absolute\"";
    }
    if (phases.diurnal_clock_absolute && !diurnal) {
      return "phases.diurnal_clock: \"absolute\" requires a churn.diurnal "
             "section to acknowledge";
    }
  }
  if (config.sharding) {
    if (config.sharding->shards == 0) return "sharding.shards must be >= 1";
  }
  return std::nullopt;
}

std::expected<CampaignEngine, std::string> CampaignEngine::create(
    CampaignConfig config) {
  if (auto error = validate(config)) return std::unexpected(std::move(*error));
  return CampaignEngine(std::move(config));
}

CampaignEngine::CampaignEngine(CampaignConfig config)
    : impl_(std::make_unique<Impl>(std::move(config))) {}

CampaignEngine::CampaignEngine(CampaignEngine&&) noexcept = default;
CampaignEngine& CampaignEngine::operator=(CampaignEngine&&) noexcept = default;
CampaignEngine::~CampaignEngine() = default;

void CampaignEngine::run(measure::MeasurementSink& sink) { impl_->run(sink); }

sim::Simulation& CampaignEngine::simulation() { return impl_->simulation; }

}  // namespace ipfs::scenario
