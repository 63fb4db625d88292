// Peerstore: the per-node database of everything known about other peers.
//
// go-ipfs keeps address, protocol and agent-version books; the paper's
// measurement clients poll exactly these books every 30 s (go-ipfs) / 1 min
// (hydra) and log changes with timestamps (§III-A/B).  Observers registered
// here receive those change events synchronously.
//
// Layout: entries live in one dense vector in first-seen order, found
// through an open-addressing hash index of entry positions.  Protocol
// sets are bitsets over a protocol intern table owned by the store, so
// an identify costs a few table lookups and one word compare instead of
// rebuilding a set of strings.  The table is per instance, never global:
// stores on different threads share nothing (DESIGN.md §16).
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/sim_time.hpp"
#include "p2p/multiaddr.hpp"
#include "p2p/peer_id.hpp"

namespace ipfs::p2p {

using common::SimTime;

/// Receives peerstore mutation events (used by measure::Recorder).
class PeerstoreObserver {
 public:
  virtual ~PeerstoreObserver() = default;
  virtual void on_peer_added(const PeerId& peer, SimTime now) = 0;
  virtual void on_agent_changed(const PeerId& peer, const std::string& previous,
                                const std::string& current, SimTime now) = 0;
  virtual void on_protocols_changed(const PeerId& peer,
                                    const std::vector<std::string>& added,
                                    const std::vector<std::string>& removed,
                                    SimTime now) = 0;
  virtual void on_address_added(const PeerId& peer, const Multiaddr& address,
                                SimTime now) = 0;
};

/// Address / protocol / agent books for one node.
class Peerstore {
 public:
  /// A set of protocol ids interned by one store: bit i is protocol id i.
  /// The first 64 ids live inline; later ids spill into extra words.
  class ProtocolSet {
   public:
    void insert(std::uint32_t id);
    [[nodiscard]] bool contains(std::uint32_t id) const noexcept {
      return (word(id / 64) >> (id % 64) & 1) != 0;
    }
    /// Word `i` of the bitset; 0 past the stored words.
    [[nodiscard]] std::uint64_t word(std::size_t i) const noexcept {
      if (i == 0) return first_;
      return i - 1 < rest_.size() ? rest_[i - 1] : 0;
    }
    [[nodiscard]] std::size_t word_count() const noexcept { return 1 + rest_.size(); }
    [[nodiscard]] bool operator==(const ProtocolSet& other) const noexcept;

   private:
    std::uint64_t first_ = 0;
    std::vector<std::uint64_t> rest_;
  };

  struct Entry {
    PeerId peer;
    std::string agent;                 ///< empty until identify succeeded
    ProtocolSet protocols;             ///< currently announced protocols
    std::set<Multiaddr> addresses;     ///< all multiaddresses ever observed
    SimTime first_seen = 0;
    SimTime last_seen = 0;
    bool ever_dht_server = false;  ///< announced /ipfs/kad/1.0.0 at least once
  };

  Peerstore();

  /// Ensure an entry exists; returns true when the peer was new.
  bool touch(const PeerId& peer, SimTime now);

  /// Record the announced agent-version string (identify result).
  void set_agent(const PeerId& peer, const std::string& agent, SimTime now);

  /// Replace the announced protocol set; diffs are reported to observers,
  /// each list deduplicated and in lexicographic order, and nothing fires
  /// when the set is unchanged.
  void set_protocols(const PeerId& peer, const std::vector<std::string>& protocols,
                     SimTime now);

  void add_address(const PeerId& peer, const Multiaddr& address, SimTime now);

  /// The peer's entry, or null.  Valid until the next new peer is added.
  [[nodiscard]] const Entry* find(const PeerId& peer) const;
  [[nodiscard]] bool supports(const PeerId& peer, std::string_view protocol) const;
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  /// Every entry in first-seen order.
  [[nodiscard]] const std::vector<Entry>& entries() const noexcept { return entries_; }

  void add_observer(PeerstoreObserver* observer) { observers_.push_back(observer); }

 private:
  struct NameHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view name) const noexcept {
      return std::hash<std::string_view>{}(name);
    }
  };

  Entry& get_or_create(const PeerId& peer, SimTime now);
  /// Index slot holding `peer`, or the empty slot where it would go.
  [[nodiscard]] std::size_t slot_of(const PeerId& peer) const noexcept;
  void grow_index();
  std::uint32_t intern(const std::string& protocol);
  /// Append the names of the ids set in word `word` of a ProtocolSet.
  void append_names(std::uint64_t bits, std::size_t word,
                    std::vector<std::string>& out) const;

  std::vector<Entry> entries_;
  /// Open-addressing index: 0 = empty, else the entry position + 1.
  std::vector<std::uint32_t> slots_;
  std::vector<std::string> protocol_names_;
  std::unordered_map<std::string, std::uint32_t, NameHash, std::equal_to<>>
      protocol_ids_;
  std::vector<PeerstoreObserver*> observers_;
};

}  // namespace ipfs::p2p
