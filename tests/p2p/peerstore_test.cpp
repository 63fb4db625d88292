#include "p2p/peerstore.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "p2p/protocols.hpp"

namespace ipfs::p2p {
namespace {

struct EventLog : PeerstoreObserver {
  struct AgentChange {
    PeerId peer;
    std::string previous;
    std::string current;
    common::SimTime at;
  };
  std::vector<PeerId> added_peers;
  std::vector<AgentChange> agent_changes;
  std::vector<std::pair<std::vector<std::string>, std::vector<std::string>>>
      protocol_changes;
  std::vector<Multiaddr> addresses;

  void on_peer_added(const PeerId& peer, common::SimTime) override {
    added_peers.push_back(peer);
  }
  void on_agent_changed(const PeerId& peer, const std::string& previous,
                        const std::string& current, common::SimTime at) override {
    agent_changes.push_back({peer, previous, current, at});
  }
  void on_protocols_changed(const PeerId&, const std::vector<std::string>& added,
                            const std::vector<std::string>& removed,
                            common::SimTime) override {
    protocol_changes.emplace_back(added, removed);
  }
  void on_address_added(const PeerId&, const Multiaddr& address,
                        common::SimTime) override {
    addresses.push_back(address);
  }
};

class PeerstoreTest : public ::testing::Test {
 protected:
  PeerstoreTest() { store.add_observer(&log); }
  Peerstore store;
  EventLog log;
  PeerId pid = PeerId::from_seed(1);
};

TEST_F(PeerstoreTest, TouchCreatesEntryOnce) {
  EXPECT_TRUE(store.touch(pid, 100));
  EXPECT_FALSE(store.touch(pid, 200));
  EXPECT_EQ(store.size(), 1u);
  ASSERT_EQ(log.added_peers.size(), 1u);
  const auto* entry = store.find(pid);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->first_seen, 100);
  EXPECT_EQ(entry->last_seen, 200);
}

TEST_F(PeerstoreTest, LastSeenNeverDecreases) {
  store.touch(pid, 500);
  store.touch(pid, 100);
  EXPECT_EQ(store.find(pid)->last_seen, 500);
}

TEST_F(PeerstoreTest, SetAgentFiresOnChangeOnly) {
  store.set_agent(pid, "go-ipfs/0.10.0/a", 10);
  store.set_agent(pid, "go-ipfs/0.10.0/a", 20);  // no-op
  store.set_agent(pid, "go-ipfs/0.11.0/b", 30);
  ASSERT_EQ(log.agent_changes.size(), 2u);
  EXPECT_EQ(log.agent_changes[0].previous, "");
  EXPECT_EQ(log.agent_changes[0].current, "go-ipfs/0.10.0/a");
  EXPECT_EQ(log.agent_changes[1].previous, "go-ipfs/0.10.0/a");
  EXPECT_EQ(log.agent_changes[1].current, "go-ipfs/0.11.0/b");
  EXPECT_EQ(log.agent_changes[1].at, 30);
}

TEST_F(PeerstoreTest, SetProtocolsComputesDiff) {
  store.set_protocols(pid, {"a", "b"}, 10);
  store.set_protocols(pid, {"b", "c"}, 20);
  ASSERT_EQ(log.protocol_changes.size(), 2u);
  EXPECT_EQ(log.protocol_changes[0].first, (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(log.protocol_changes[0].second.empty());
  EXPECT_EQ(log.protocol_changes[1].first, (std::vector<std::string>{"c"}));
  EXPECT_EQ(log.protocol_changes[1].second, (std::vector<std::string>{"a"}));
}

TEST_F(PeerstoreTest, SetProtocolsIdenticalIsSilent) {
  store.set_protocols(pid, {"a"}, 10);
  store.set_protocols(pid, {"a"}, 20);
  EXPECT_EQ(log.protocol_changes.size(), 1u);
}

TEST_F(PeerstoreTest, KadAnnouncementMarksServerForever) {
  store.set_protocols(pid, {std::string(protocols::kKad)}, 10);
  EXPECT_TRUE(store.find(pid)->ever_dht_server);
  store.set_protocols(pid, {}, 20);  // role switch to client
  EXPECT_TRUE(store.find(pid)->ever_dht_server);
  EXPECT_FALSE(store.supports(pid, protocols::kKad));
}

TEST_F(PeerstoreTest, SupportsChecksCurrentSet) {
  store.set_protocols(pid, {std::string(protocols::kPing)}, 10);
  EXPECT_TRUE(store.supports(pid, protocols::kPing));
  EXPECT_FALSE(store.supports(pid, protocols::kKad));
  EXPECT_FALSE(store.supports(PeerId::from_seed(99), protocols::kPing));
}

TEST_F(PeerstoreTest, AddressesDeduplicated) {
  const Multiaddr addr{IpAddress::v4(42), Transport::kTcp, 4001};
  store.add_address(pid, addr, 10);
  store.add_address(pid, addr, 20);
  EXPECT_EQ(log.addresses.size(), 1u);
  EXPECT_EQ(store.find(pid)->addresses.size(), 1u);
}

TEST_F(PeerstoreTest, FindUnknownReturnsNull) {
  EXPECT_EQ(store.find(PeerId::from_seed(7)), nullptr);
}

TEST_F(PeerstoreTest, MultiplePeersIndependent) {
  const PeerId other = PeerId::from_seed(2);
  store.set_agent(pid, "a", 1);
  store.set_agent(other, "b", 1);
  EXPECT_EQ(store.find(pid)->agent, "a");
  EXPECT_EQ(store.find(other)->agent, "b");
  EXPECT_EQ(store.size(), 2u);
}

TEST_F(PeerstoreTest, PermutedAndDuplicatedProtocolsDiffInStringOrder) {
  // Interned in arrival order (c, a, b, d); observers still see names in
  // string order, each once.
  store.set_protocols(pid, {"c", "a", "c", "b", "a"}, 10);
  store.set_protocols(pid, {"d", "b", "d"}, 20);
  ASSERT_EQ(log.protocol_changes.size(), 2u);
  EXPECT_EQ(log.protocol_changes[0].first, (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(log.protocol_changes[0].second.empty());
  EXPECT_EQ(log.protocol_changes[1].first, (std::vector<std::string>{"d"}));
  EXPECT_EQ(log.protocol_changes[1].second, (std::vector<std::string>{"a", "c"}));
}

TEST_F(PeerstoreTest, PermutedEqualSetIsSilent) {
  store.set_protocols(pid, {"b", "a"}, 10);
  store.set_protocols(pid, {"a", "b", "a"}, 20);
  store.set_protocols(pid, {"b", "b", "a"}, 30);
  EXPECT_EQ(log.protocol_changes.size(), 1u);
  EXPECT_EQ(store.find(pid)->last_seen, 30);
}

TEST_F(PeerstoreTest, MoreThanSixtyFourProtocols) {
  std::vector<std::string> many;
  for (int i = 99; i >= 0; --i) {
    many.push_back("/p/" + std::to_string(100 + i));
  }
  store.set_protocols(pid, many, 10);
  ASSERT_EQ(log.protocol_changes.size(), 1u);
  std::vector<std::string> sorted = many;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(log.protocol_changes[0].first, sorted);
  for (const std::string& protocol : many) EXPECT_TRUE(store.supports(pid, protocol));

  // Keep only ids past the first word, then only ids inside it.
  const std::vector<std::string> high(many.begin() + 70, many.end());
  const std::vector<std::string> low(many.begin(), many.begin() + 3);
  store.set_protocols(pid, high, 20);
  store.set_protocols(pid, high, 25);  // equal set spanning two words: silent
  store.set_protocols(pid, low, 30);
  store.set_protocols(pid, low, 35);
  ASSERT_EQ(log.protocol_changes.size(), 3u);
  EXPECT_EQ(log.protocol_changes[1].first, std::vector<std::string>{});
  EXPECT_EQ(log.protocol_changes[1].second.size(), 70u);
  std::vector<std::string> high_sorted = high;
  std::sort(high_sorted.begin(), high_sorted.end());
  EXPECT_EQ(log.protocol_changes[2].second, high_sorted);
  EXPECT_TRUE(store.supports(pid, many[0]));
  EXPECT_FALSE(store.supports(pid, many[99]));

  // A second peer shares the store's table.
  const PeerId other = PeerId::from_seed(2);
  store.set_protocols(other, {many[99]}, 40);
  EXPECT_TRUE(store.supports(other, many[99]));
  EXPECT_FALSE(store.supports(other, many[0]));
}

TEST_F(PeerstoreTest, DhtServerMarkIsStickyPastTheFirstWord) {
  std::vector<std::string> many;
  for (int i = 0; i < 70; ++i) many.push_back("/q/" + std::to_string(i));
  store.set_protocols(pid, many, 10);
  EXPECT_FALSE(store.find(pid)->ever_dht_server);
  many.push_back(std::string(protocols::kKad));
  store.set_protocols(pid, many, 20);
  EXPECT_TRUE(store.find(pid)->ever_dht_server);
  many.pop_back();
  store.set_protocols(pid, many, 30);
  store.set_protocols(pid, {}, 40);
  EXPECT_TRUE(store.find(pid)->ever_dht_server);
  EXPECT_FALSE(store.supports(pid, protocols::kKad));
}

TEST_F(PeerstoreTest, ManyPeersIndexedInFirstSeenOrder) {
  constexpr std::uint64_t kPeers = 5000;
  for (std::uint64_t i = 0; i < kPeers; ++i) {
    store.touch(PeerId::from_seed(1000 + i), static_cast<common::SimTime>(i));
  }
  ASSERT_EQ(store.size(), kPeers);
  for (std::uint64_t i = 0; i < kPeers; ++i) {
    const auto* entry = store.find(PeerId::from_seed(1000 + i));
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->first_seen, static_cast<common::SimTime>(i));
    EXPECT_EQ(store.entries()[i].peer, PeerId::from_seed(1000 + i));
  }
  EXPECT_FALSE(store.touch(PeerId::from_seed(1000), 1));
  EXPECT_EQ(store.size(), kPeers);
  EXPECT_EQ(log.added_peers.size(), kPeers);
}

}  // namespace
}  // namespace ipfs::p2p
