#include "p2p/conn_manager.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <unordered_map>

#include "common/rng.hpp"

namespace ipfs::p2p {
namespace {

using common::kSecond;

/// Helper: build `count` open connections with ages spread one second apart
/// (oldest first), all older than the grace period by default.
std::vector<Connection> make_connections(std::size_t count,
                                         common::SimTime now = 1000 * kSecond) {
  std::vector<Connection> connections(count);
  for (std::size_t i = 0; i < count; ++i) {
    connections[i].id = i + 1;
    connections[i].remote = PeerId::from_seed(i + 1);
    connections[i].opened = now - static_cast<common::SimTime>(count - i) * kSecond -
                            30 * kSecond;
  }
  return connections;
}

std::vector<const Connection*> views(const std::vector<Connection>& connections) {
  std::vector<const Connection*> pointers;
  for (const Connection& connection : connections) pointers.push_back(&connection);
  return pointers;
}

TEST(ConnManager, NoTrimBelowHighWater) {
  ConnManager manager(ConnManagerConfig::with_watermarks(5, 10));
  const auto connections = make_connections(10);
  EXPECT_TRUE(manager.plan_trim(views(connections), 1000 * kSecond).empty());
}

TEST(ConnManager, TrimsDownToLowWater) {
  ConnManager manager(ConnManagerConfig::with_watermarks(5, 10));
  const auto connections = make_connections(14);
  const auto plan = manager.plan_trim(views(connections), 1000 * kSecond);
  EXPECT_EQ(plan.size(), 9u);  // 14 -> 5
}

TEST(ConnManager, GracePeriodProtectsNewConnections) {
  ConnManagerConfig config = ConnManagerConfig::with_watermarks(2, 4);
  ConnManager manager(config);
  const common::SimTime now = 1000 * kSecond;
  auto connections = make_connections(6, now);
  // Make every connection brand new: all inside the 20 s grace period.
  for (Connection& connection : connections) connection.opened = now - 5 * kSecond;
  EXPECT_TRUE(manager.plan_trim(views(connections), now).empty());
}

TEST(ConnManager, ProtectedPeersSurvive) {
  ConnManager manager(ConnManagerConfig::with_watermarks(0, 2));
  const auto connections = make_connections(5);
  for (const Connection& connection : connections) manager.protect(connection.remote);
  EXPECT_TRUE(manager.plan_trim(views(connections), 1000 * kSecond).empty());
  manager.unprotect(connections[0].remote);
  const auto plan = manager.plan_trim(views(connections), 1000 * kSecond);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0], connections[0].id);
}

TEST(ConnManager, LowTagValuesTrimFirst) {
  ConnManager manager(ConnManagerConfig::with_watermarks(2, 4));
  const auto connections = make_connections(6);
  // Give the first four connections high tags; the last two default to 0.
  for (std::size_t i = 0; i < 4; ++i) manager.set_tag(connections[i].remote, 100);
  const auto plan = manager.plan_trim(views(connections), 1000 * kSecond);
  ASSERT_EQ(plan.size(), 4u);
  // The two untagged close first.
  EXPECT_TRUE(std::find(plan.begin(), plan.end(), connections[4].id) != plan.end());
  EXPECT_TRUE(std::find(plan.begin(), plan.end(), connections[5].id) != plan.end());
}

TEST(ConnManager, EqualTagVictimsArePseudoRandomButDeterministic) {
  ConnManager manager(ConnManagerConfig::with_watermarks(3, 4));
  const auto connections = make_connections(8);
  // Same instant -> same victims (determinism, DESIGN.md §5).
  const auto plan_a = manager.plan_trim(views(connections), 1000 * kSecond);
  const auto plan_b = manager.plan_trim(views(connections), 1000 * kSecond);
  ASSERT_EQ(plan_a.size(), 5u);
  EXPECT_EQ(plan_a, plan_b);
  // Different trim instants shuffle the equal-tag victim order (go-libp2p's
  // arbitrary in-segment order), giving lifetimes their geometric tail.
  std::set<std::vector<ConnectionId>> distinct_plans;
  for (int tick = 0; tick < 16; ++tick) {
    distinct_plans.insert(
        manager.plan_trim(views(connections), (1000 + tick) * kSecond));
  }
  EXPECT_GT(distinct_plans.size(), 1u);
}

TEST(ConnManager, TagLifecycle) {
  ConnManager manager(ConnManagerConfig{});
  const PeerId peer = PeerId::from_seed(1);
  EXPECT_EQ(manager.tag(peer), 0);
  manager.set_tag(peer, 42);
  EXPECT_EQ(manager.tag(peer), 42);
  manager.clear_tag(peer);
  EXPECT_EQ(manager.tag(peer), 0);
}

TEST(ConnManager, GoIpfsDefaults) {
  const auto config = ConnManagerConfig::go_ipfs_default();
  EXPECT_EQ(config.low_water, 600);
  EXPECT_EQ(config.high_water, 900);
  EXPECT_EQ(config.grace_period, 20 * kSecond);
}

TEST(ConnManager, ZeroHighWaterDisablesTrimming) {
  ConnManager manager(ConnManagerConfig::with_watermarks(0, 0));
  const auto connections = make_connections(10);
  EXPECT_TRUE(manager.plan_trim(views(connections), 1000 * kSecond).empty());
}

/// Property sweep: after applying the plan, the open count is LowWater
/// whenever enough non-grace candidates exist.
class TrimSweep : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(TrimSweep, PlanRestoresLowWater) {
  const auto [low, high, open_count] = GetParam();
  ConnManager manager(ConnManagerConfig::with_watermarks(low, high));
  const auto connections = make_connections(static_cast<std::size_t>(open_count));
  const auto plan = manager.plan_trim(views(connections), 1000 * kSecond);
  if (open_count <= high) {
    EXPECT_TRUE(plan.empty());
  } else {
    EXPECT_EQ(static_cast<int>(connections.size() - plan.size()), low);
  }
  // A plan never closes the same connection twice.
  std::set<ConnectionId> unique(plan.begin(), plan.end());
  EXPECT_EQ(unique.size(), plan.size());
}

INSTANTIATE_TEST_SUITE_P(
    Watermarks, TrimSweep,
    ::testing::Values(std::make_tuple(5, 10, 8), std::make_tuple(5, 10, 11),
                      std::make_tuple(5, 10, 50), std::make_tuple(600, 900, 901),
                      std::make_tuple(0, 3, 10), std::make_tuple(2, 2, 3),
                      std::make_tuple(1, 4, 4)));

// ---- selection vs. the full-sort oracle -------------------------------------

/// The plan as computed before selection: every candidate copied out and
/// fully sorted on (tag, mix64(id, now)), the first `excess` closed.
std::vector<ConnectionId> full_sort_plan(const ConnManager& manager,
                                         const std::vector<const Connection*>& open,
                                         common::SimTime now) {
  const ConnManagerConfig& config = manager.config();
  std::vector<ConnectionId> to_close;
  if (config.high_water <= 0) return to_close;
  if (open.size() <= static_cast<std::size_t>(config.high_water)) return to_close;
  struct Candidate {
    const Connection* connection;
    int tag_value;
  };
  std::vector<Candidate> candidates;
  for (const Connection* connection : open) {
    if (now - connection->opened < config.grace_period) continue;
    if (manager.is_protected(connection->remote)) continue;
    candidates.push_back({connection, manager.tag(connection->remote)});
  }
  const std::size_t target = static_cast<std::size_t>(std::max(config.low_water, 0));
  if (open.size() <= target) return to_close;
  std::size_t excess = open.size() - target;
  std::sort(candidates.begin(), candidates.end(),
            [now](const Candidate& a, const Candidate& b) {
              if (a.tag_value != b.tag_value) return a.tag_value < b.tag_value;
              return common::mix64(a.connection->id, static_cast<std::uint64_t>(now)) <
                     common::mix64(b.connection->id, static_cast<std::uint64_t>(now));
            });
  for (const Candidate& candidate : candidates) {
    if (excess == 0) break;
    to_close.push_back(candidate.connection->id);
    --excess;
  }
  return to_close;
}

struct OracleCase {
  int low_water;
  int high_water;
  std::size_t open;
  double grace_share;      ///< share of connections inside the grace period
  double protected_share;  ///< share of peers protected
  int tag_values;          ///< tags drawn from [0, tag_values); 1 = all tied
};

/// Builds `c.open` connections with scattered ids, applies tags and
/// protection to `manager`, and returns the plan and the oracle's plan.
std::pair<std::vector<ConnectionId>, std::vector<ConnectionId>> plan_both(
    const OracleCase& c, common::Rng& rng) {
  const common::SimTime now = 5000 * kSecond;
  ConnManager manager(ConnManagerConfig::with_watermarks(c.low_water, c.high_water));
  std::vector<Connection> connections(c.open);
  std::set<ConnectionId> ids;
  for (std::size_t i = 0; i < c.open; ++i) {
    Connection& connection = connections[i];
    do {
      connection.id = rng.uniform_u64(std::uint64_t{1} << 40) + 1;
    } while (!ids.insert(connection.id).second);
    connection.remote = PeerId::random(rng);
    connection.opened = rng.bernoulli(c.grace_share)
                            ? now - static_cast<common::SimTime>(rng.uniform_u64(20 * kSecond))
                            : now - 20 * kSecond -
                                  static_cast<common::SimTime>(rng.uniform_u64(4000 * kSecond));
    const int tag = static_cast<int>(rng.uniform_u64(static_cast<std::uint64_t>(c.tag_values)));
    if (tag != 0) manager.set_tag(connection.remote, tag);
    if (rng.bernoulli(c.protected_share)) manager.protect(connection.remote);
  }
  const auto open = views(connections);
  auto plan = manager.plan_trim(open, now);
  auto oracle = full_sort_plan(manager, open, now);
  return {std::move(plan), std::move(oracle)};
}

TEST(ConnManagerOracle, EdgeCasesMatchTheFullSort) {
  common::Rng rng(0x7219);
  const OracleCase cases[] = {
      {.low_water = 20, .high_water = 30, .open = 30, .grace_share = 0.1,
       .protected_share = 0.0, .tag_values = 3},  // open == high_water: no trim
      {.low_water = 20, .high_water = 30, .open = 31, .grace_share = 0.1,
       .protected_share = 0.0, .tag_values = 3},  // one past high_water
      {.low_water = 20, .high_water = 30, .open = 60, .grace_share = 1.0,
       .protected_share = 0.0, .tag_values = 3},  // everything in grace
      {.low_water = 20, .high_water = 30, .open = 60, .grace_share = 0.0,
       .protected_share = 1.0, .tag_values = 3},  // everything protected
      {.low_water = 20, .high_water = 30, .open = 60, .grace_share = 0.0,
       .protected_share = 0.0, .tag_values = 1},  // every tag tied
      {.low_water = 0, .high_water = 0, .open = 40, .grace_share = 0.0,
       .protected_share = 0.0, .tag_values = 2},  // high_water 0 disables
      {.low_water = 0, .high_water = 5, .open = 40, .grace_share = 0.0,
       .protected_share = 0.0, .tag_values = 2},  // trim to empty
  };
  for (const OracleCase& c : cases) {
    const auto [plan, oracle] = plan_both(c, rng);
    EXPECT_EQ(plan, oracle) << "open " << c.open << " high " << c.high_water;
  }
  // The expected sizes of the boundary cases, independent of the oracle.
  EXPECT_TRUE(plan_both(cases[0], rng).first.empty());
  EXPECT_TRUE(plan_both(cases[2], rng).first.empty());
  EXPECT_TRUE(plan_both(cases[3], rng).first.empty());
  EXPECT_EQ(plan_both(cases[4], rng).first.size(), 40u);
  EXPECT_TRUE(plan_both(cases[5], rng).first.empty());
}

TEST(ConnManagerOracle, EqualKeysFollowTheFullSort) {
  // mix64(id, now) is not injective over small ids: collect pairs of
  // connection ids that share a key at `now`, so every tag ties.
  const common::SimTime now = 0;
  std::unordered_map<std::uint64_t, ConnectionId> first_with_key;
  std::vector<ConnectionId> tied;
  for (ConnectionId id = 1; id < 60'000 && tied.size() < 20; ++id) {
    const auto [it, fresh] =
        first_with_key.try_emplace(common::mix64(id, static_cast<std::uint64_t>(now)), id);
    if (!fresh) {
      tied.push_back(it->second);
      tied.push_back(id);
    }
  }
  ASSERT_EQ(tied.size(), 20u);

  // The tied pairs interleaved with untied ids, in a scrambled table order.
  common::Rng rng(0x71ed);
  std::vector<Connection> connections;
  for (const ConnectionId id : tied) {
    connections.push_back({.id = id, .remote = PeerId::random(rng), .opened = now - 60 * kSecond});
    connections.push_back(
        {.id = 60'000 + id, .remote = PeerId::random(rng), .opened = now - 60 * kSecond});
  }
  for (std::size_t i = connections.size() - 1; i > 0; --i) {
    std::swap(connections[i], connections[rng.uniform_u64(i + 1)]);
  }
  const auto open = views(connections);
  // Every cut position: ties among the victims, across the cut and after it.
  for (int low = 0; low < static_cast<int>(connections.size()); ++low) {
    ConnManager manager(ConnManagerConfig::with_watermarks(low, low));
    ASSERT_EQ(manager.plan_trim(open, now), full_sort_plan(manager, open, now))
        << "low water " << low;
  }
}

TEST(ConnManagerOracle, RandomSizesAroundTheWatermarksMatchTheFullSort) {
  common::Rng rng(0x5e1ec7);
  std::size_t trims = 0;
  for (int round = 0; round < 400; ++round) {
    OracleCase c;
    c.high_water = static_cast<int>(rng.uniform_u64(80));
    c.low_water = static_cast<int>(rng.uniform_u64(static_cast<std::uint64_t>(c.high_water) + 1));
    const auto high = static_cast<std::size_t>(c.high_water);
    switch (rng.uniform_u64(4)) {
      case 0: c.open = high; break;
      case 1: c.open = high + 1; break;
      case 2: c.open = high + rng.uniform_u64(8); break;
      default: c.open = high + rng.uniform_u64(3 * high + 2); break;
    }
    c.grace_share = rng.uniform(0.0, 0.6);
    c.protected_share = rng.bernoulli(0.2) ? rng.uniform(0.0, 0.9) : 0.0;
    // Heavy ties most of the time: go-ipfs tags few distinct values.
    c.tag_values = rng.bernoulli(0.7) ? 1 + static_cast<int>(rng.uniform_u64(3)) : 1000;
    const auto [plan, oracle] = plan_both(c, rng);
    ASSERT_EQ(plan, oracle) << "round " << round << ": open " << c.open << ", water "
                            << c.low_water << "/" << c.high_water;
    if (!plan.empty()) ++trims;
  }
  EXPECT_GT(trims, 150u);  // the sweep exercises real trims, not only no-ops
}

}  // namespace
}  // namespace ipfs::p2p
