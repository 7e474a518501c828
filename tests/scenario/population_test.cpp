#include "scenario/population.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/version.hpp"
#include "p2p/protocols.hpp"
#include "scenario/scenario_spec.hpp"

namespace ipfs::scenario {
namespace {

namespace proto = p2p::protocols;
using common::kDay;

class PopulationTest : public ::testing::Test {
 protected:
  Population build(double scale = 0.05, common::SimDuration duration = 3 * kDay) {
    return Population(PopulationSpec::test_scale(scale), duration, common::Rng(1));
  }
};

TEST_F(PopulationTest, DeterministicForSameSeed) {
  const Population a = build();
  const Population b = build();
  ASSERT_EQ(a.peers().size(), b.peers().size());
  for (std::size_t i = 0; i < a.peers().size(); ++i) {
    EXPECT_EQ(a.peers()[i].pid, b.peers()[i].pid);
    EXPECT_EQ(a.agent(a.peers()[i].agent), b.agent(b.peers()[i].agent));
    EXPECT_TRUE(std::ranges::equal(a.protocols(a.peers()[i].protocols),
                                   b.protocols(b.peers()[i].protocols)));
    EXPECT_EQ(a.peers()[i].ip, b.peers()[i].ip);
  }
}

TEST_F(PopulationTest, ScaleControlsSize) {
  const Population small = build(0.02);
  const Population large = build(0.08);
  EXPECT_GT(large.peers().size(), 3 * small.peers().size());
}

TEST_F(PopulationTest, ArrivalCategoriesScaleWithDuration) {
  const Population short_run = build(0.05, 1 * kDay);
  const Population long_run = build(0.05, 6 * kDay);
  EXPECT_GT(long_run.count(Category::kOneTime),
            4 * short_run.count(Category::kOneTime));
  // Standing categories do not scale with duration.
  EXPECT_EQ(long_run.count(Category::kCoreClient),
            short_run.count(Category::kCoreClient));
}

TEST_F(PopulationTest, PidsAreUnique) {
  const Population population = build(0.1);
  std::set<p2p::PeerId> pids;
  for (const RemotePeer& peer : population.peers()) pids.insert(peer.pid);
  EXPECT_EQ(pids.size(), population.peers().size());
}

TEST_F(PopulationTest, IndicesAreDense) {
  const Population population = build();
  for (std::size_t i = 0; i < population.peers().size(); ++i) {
    EXPECT_EQ(population.peers()[i].index, i);
  }
}

TEST_F(PopulationTest, HydraHeadsClusterOnFewIps) {
  const Population population = build(0.2);
  std::map<p2p::IpAddress, int> hydra_ips;
  int hydra_count = 0;
  for (const RemotePeer& peer : population.peers()) {
    if (peer.category == Category::kHydra) {
      ++hydra_ips[peer.ip];
      ++hydra_count;
    }
  }
  EXPECT_GT(hydra_count, 100);
  // Far fewer IPs than heads (the paper's 1'026-heads-on-11-IPs pattern).
  EXPECT_LT(static_cast<int>(hydra_ips.size()), hydra_count / 5);
  for (const RemotePeer& peer : population.peers()) {
    if (peer.category == Category::kHydra) {
      EXPECT_EQ(population.agent(peer.agent), "hydra-booster/0.7.4");
      EXPECT_TRUE(peer.dht_server);
    }
  }
}

TEST_F(PopulationTest, RotatingPidsShareOneIpAndAgent) {
  const Population population = build(0.2);
  std::set<p2p::IpAddress> ips;
  std::set<std::string> agents;
  std::size_t count = 0;
  for (const RemotePeer& peer : population.peers()) {
    if (peer.category == Category::kRotatingPid) {
      ips.insert(peer.ip);
      agents.insert(population.agent(peer.agent));
      ++count;
    }
  }
  EXPECT_GT(count, 50u);
  EXPECT_EQ(ips.size(), 1u);
  EXPECT_EQ(agents.size(), 1u);
}

TEST_F(PopulationTest, EphemeralPeersHaveNoAgent) {
  const Population population = build();
  for (const RemotePeer& peer : population.peers()) {
    if (peer.category == Category::kEphemeral) {
      EXPECT_TRUE(population.agent(peer.agent).empty());
      EXPECT_TRUE(population.protocols(peer.protocols).empty());
    }
  }
}

TEST_F(PopulationTest, DisguisedStormFingerprint) {
  const Population population = build(0.1);
  std::size_t disguised = 0;
  for (const RemotePeer& peer : population.peers()) {
    if (peer.category != Category::kLightServer) continue;
    const auto protocols = population.protocols(peer.protocols);
    const bool has_sbptp = std::ranges::find(protocols, proto::kSbptp) != protocols.end();
    if (!has_sbptp) continue;
    ++disguised;
    // The paper's fingerprint: claims go-ipfs v0.8.0, no bitswap.
    EXPECT_NE(population.agent(peer.agent).find("go-ipfs/0.8.0"), std::string::npos);
    for (const std::string_view protocol : protocols) {
      EXPECT_FALSE(proto::is_bitswap(protocol));
    }
  }
  EXPECT_GT(disguised, 300u);  // ~7.5k at full scale
}

TEST_F(PopulationTest, ServersAnnounceKad) {
  const Population population = build();
  for (const RemotePeer& peer : population.peers()) {
    if (population.agent(peer.agent).empty()) continue;
    const auto protocols = population.protocols(peer.protocols);
    const bool announces = std::ranges::find(protocols, proto::kKad) != protocols.end();
    EXPECT_EQ(announces, peer.dht_server) << to_string(peer.category);
    EXPECT_EQ(population.announces_kad(peer.protocols), announces);
  }
}

TEST_F(PopulationTest, OneShotWindowsInsideMeasurement) {
  const Population population = build(0.05, 3 * kDay);
  for (const RemotePeer& peer : population.peers()) {
    const auto& params = default_params(peer.category);
    if (params.session != SessionKind::kOneShot) continue;
    EXPECT_GE(peer.session_start, 0);
    EXPECT_LT(peer.session_start, 3 * kDay);
    EXPECT_GT(peer.session_length, 0);
  }
}

TEST_F(PopulationTest, NormalUserSessionsBetweenTwoAndTwentyFourHours) {
  const Population population = build(0.1);
  for (const RemotePeer& peer : population.peers()) {
    if (peer.category != Category::kNormalUser) continue;
    EXPECT_GT(peer.session_length, 2 * common::kHour);
    EXPECT_LT(peer.session_length, 24 * common::kHour);
  }
}

TEST_F(PopulationTest, AgentMixMatchesPaperShares) {
  const Population population = build(0.3);
  std::size_t go_ipfs = 0;
  std::size_t missing = 0;
  for (const RemotePeer& peer : population.peers()) {
    const std::string& agent = population.agent(peer.agent);
    if (agent.empty()) {
      ++missing;
    } else if (agent.rfind("go-ipfs/", 0) == 0) {
      ++go_ipfs;
    }
  }
  const double total = static_cast<double>(population.peers().size());
  // Paper: 50'254 / 65'853 = 76 % go-ipfs, 3'059 / 65'853 = 4.6 % missing.
  EXPECT_NEAR(static_cast<double>(go_ipfs) / total, 0.76, 0.06);
  EXPECT_NEAR(static_cast<double>(missing) / total, 0.046, 0.02);
}

TEST_F(PopulationTest, GoIpfsAgentStringsParse) {
  const Population population = build(0.1);
  for (const RemotePeer& peer : population.peers()) {
    const std::string& agent = population.agent(peer.agent);
    if (agent.rfind("go-ipfs/", 0) != 0) continue;
    const auto info = common::AgentInfo::parse(agent);
    EXPECT_TRUE(info.is_go_ipfs());
    EXPECT_TRUE(info.version.has_value()) << agent;
    EXPECT_FALSE(info.commit.empty()) << agent;
  }
}

TEST_F(PopulationTest, DhtServerShareNearPaper) {
  const Population population = build(0.3);
  const double share = static_cast<double>(population.dht_server_count()) /
                       static_cast<double>(population.peers().size());
  // Paper: 18'845 kad supporters of 65'853 PIDs = 28.6 %.
  EXPECT_NEAR(share, 0.286, 0.05);
}

TEST_F(PopulationTest, SomePeersAreDualHomed) {
  const Population population = build(0.2);
  std::size_t dual = 0;
  for (const RemotePeer& peer : population.peers()) {
    if (peer.has_alt_ip) {
      ++dual;
      EXPECT_NE(peer.alt_ip, peer.ip);
    }
  }
  EXPECT_GT(dual, 100u);
}

// ---- interned layout ------------------------------------------------------

/// Folds every peer's identity, addresses, session window, agent and sorted
/// protocol names into one value.
std::uint64_t population_digest(const Population& population) {
  std::uint64_t digest = population.peers().size();
  for (const RemotePeer& peer : population.peers()) {
    std::ostringstream line;
    for (const std::uint64_t word : peer.pid.words()) line << word << ',';
    line << to_string(peer.category) << ' ' << peer.ip.to_string() << ' '
         << (peer.has_alt_ip ? peer.alt_ip.to_string() : "-") << ' ' << peer.port
         << ' ' << peer.dht_server << ' ' << peer.session_start << ' '
         << peer.session_length << ' ' << population.agent(peer.agent) << ' ';
    const auto set = population.protocols(peer.protocols);
    std::vector<std::string> names(set.begin(), set.end());
    std::ranges::sort(names);
    for (const std::string& name : names) line << name << ';';
    digest = common::mix64(digest, common::hash64(line.str()));
  }
  return digest;
}

/// The population a campaign of builtin `name` builds at scale 0.05.
Population builtin_population(std::string_view name) {
  ScenarioSpec spec = *ScenarioSpec::builtin(name);
  spec.population.scale = 0.05;
  return Population(spec.population, spec.period.duration,
                    common::Rng(spec.campaign.seed).child(0x707));
}

// Pinned from the layout that stored a string and a string vector per peer:
// interning must not move one draw or one name.
TEST(PopulationDigest, UnchangedByInterning) {
  const Population p4 = builtin_population("p4");
  EXPECT_EQ(p4.peers().size(), 3419u);
  EXPECT_EQ(population_digest(p4), 0xc65c02d9df384c09ull);
  const Population churn = builtin_population("churn-baseline");
  EXPECT_EQ(churn.peers().size(), 2599u);
  EXPECT_EQ(population_digest(churn), 0x03fa7dcd00e0b4abull);
}

TEST_F(PopulationTest, TablesAreSmallAndIdZeroIsEmpty) {
  const Population population = build(0.1);
  EXPECT_TRUE(population.agent(0).empty());
  EXPECT_TRUE(population.protocols(0).empty());
  EXPECT_FALSE(population.announces_kad(0));
  // A few hundred strings and sets serve thousands of peers.
  EXPECT_GT(population.peers().size(), 5000u);
  EXPECT_LT(population.agent_count(), 400u);
  EXPECT_LT(population.protocol_set_count(), 400u);
  for (const RemotePeer& peer : population.peers()) {
    ASSERT_LT(peer.agent, population.agent_count());
    ASSERT_LT(peer.protocols, population.protocol_set_count());
    EXPECT_TRUE(std::ranges::is_sorted(population.protocols(peer.protocols)));
  }
}

/// Two go-ipfs DHT servers sharing one agent id and one set id.
std::pair<std::uint32_t, std::uint32_t> sharing_pair(const Population& population) {
  std::map<std::pair<AgentId, ProtocolSetId>, std::uint32_t> first;
  for (const RemotePeer& peer : population.peers()) {
    if (!peer.dht_server || peer.category != Category::kCoreServer) continue;
    const auto [it, inserted] =
        first.try_emplace({peer.agent, peer.protocols}, peer.index);
    if (!inserted) return {it->second, peer.index};
  }
  ADD_FAILURE() << "no two core servers share an agent and a protocol set";
  return {0, 0};
}

TEST_F(PopulationTest, MutatingOnePeerLeavesItsSharersAlone) {
  Population population = build(0.1);
  const auto [a, b] = sharing_pair(population);
  ASSERT_NE(a, b);
  const RemotePeer& other = population.peers()[b];
  const std::string agent_before = population.agent(other.agent);
  const auto set_before = population.protocols(other.protocols);
  const std::vector<std::string> names_before(set_before.begin(), set_before.end());
  ASSERT_TRUE(population.announces_kad(other.protocols));

  // A kad toggle: peer a turns client, b still announces kad.
  population.toggle_protocol(a, proto::kKad);
  EXPECT_FALSE(population.announces_kad(population.peers()[a].protocols));
  EXPECT_TRUE(population.announces_kad(other.protocols));
  // A version change: a gets a new agent, b keeps the old one.
  EXPECT_TRUE(population.set_agent(a, agent_before + "-dirty"));
  EXPECT_EQ(population.agent(population.peers()[a].agent), agent_before + "-dirty");

  EXPECT_EQ(population.agent(other.agent), agent_before);
  EXPECT_TRUE(std::ranges::equal(population.protocols(other.protocols), names_before));
  // The views taken before the new entries were interned still hold.
  EXPECT_TRUE(std::ranges::equal(set_before, names_before));
}

TEST_F(PopulationTest, SetAgentReportsOnlyChanges) {
  Population population = build(0.05);
  const RemotePeer& peer = population.peers().front();
  const std::string agent = population.agent(peer.agent);
  EXPECT_FALSE(population.set_agent(peer.index, agent));
  EXPECT_TRUE(population.set_agent(peer.index, "go-ipfs/0.12.0/0123abcd"));
  EXPECT_TRUE(population.set_agent(peer.index, agent));
  EXPECT_EQ(population.agent(peer.agent), agent);
}

TEST_F(PopulationTest, ToggleTwiceReturnsTheOriginalSet) {
  Population population = build(0.1);
  const auto [a, b] = sharing_pair(population);
  ASSERT_NE(a, b);
  const ProtocolSetId original = population.peers()[a].protocols;
  for (const std::string_view protocol : {proto::kKad, proto::kAutonat}) {
    population.toggle_protocol(a, protocol);
    const ProtocolSetId toggled = population.peers()[a].protocols;
    EXPECT_NE(toggled, original);
    const std::size_t sets = population.protocol_set_count();
    population.toggle_protocol(a, protocol);
    EXPECT_EQ(population.peers()[a].protocols, original);
    // Again and back: both sets exist, so the table stays put.
    population.toggle_protocol(a, protocol);
    EXPECT_EQ(population.peers()[a].protocols, toggled);
    population.toggle_protocol(a, protocol);
    EXPECT_EQ(population.peers()[a].protocols, original);
    EXPECT_EQ(population.protocol_set_count(), sets);
  }
}

}  // namespace
}  // namespace ipfs::scenario
