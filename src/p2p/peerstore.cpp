#include "p2p/peerstore.hpp"

#include <algorithm>
#include <bit>

#include "common/rng.hpp"
#include "p2p/protocols.hpp"

namespace ipfs::p2p {

namespace {

/// Every store interns /ipfs/kad/1.0.0 first, so its id is fixed.
constexpr std::uint32_t kKadId = 0;
constexpr std::size_t kInitialSlots = 16;

std::size_t peer_hash(const PeerId& peer) noexcept {
  const auto& words = peer.words();
  return static_cast<std::size_t>(common::mix64(words[0] ^ words[1], words[2] ^ words[3]));
}

}  // namespace

void Peerstore::ProtocolSet::insert(std::uint32_t id) {
  const std::size_t index = id / 64;
  const std::uint64_t bit = std::uint64_t{1} << (id % 64);
  if (index == 0) {
    first_ |= bit;
    return;
  }
  if (rest_.size() < index) rest_.resize(index, 0);
  rest_[index - 1] |= bit;
}

bool Peerstore::ProtocolSet::operator==(const ProtocolSet& other) const noexcept {
  const std::size_t words = std::max(word_count(), other.word_count());
  for (std::size_t i = 0; i < words; ++i) {
    if (word(i) != other.word(i)) return false;
  }
  return true;
}

Peerstore::Peerstore() : slots_(kInitialSlots, 0) {
  intern(std::string(protocols::kKad));
}

std::size_t Peerstore::slot_of(const PeerId& peer) const noexcept {
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t slot = peer_hash(peer) & mask;; slot = (slot + 1) & mask) {
    const std::uint32_t held = slots_[slot];
    if (held == 0 || entries_[held - 1].peer == peer) return slot;
  }
}

void Peerstore::grow_index() {
  slots_.assign(slots_.size() * 2, 0);
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    slots_[slot_of(entries_[i].peer)] = static_cast<std::uint32_t>(i + 1);
  }
}

Peerstore::Entry& Peerstore::get_or_create(const PeerId& peer, SimTime now) {
  std::size_t slot = slot_of(peer);
  if (slots_[slot] != 0) return entries_[slots_[slot] - 1];
  // Keep the index at most half full so probe runs stay short.
  if ((entries_.size() + 1) * 2 > slots_.size()) {
    grow_index();
    slot = slot_of(peer);
  }
  slots_[slot] = static_cast<std::uint32_t>(entries_.size() + 1);
  Entry& entry = entries_.emplace_back();
  entry.peer = peer;
  entry.first_seen = now;
  entry.last_seen = now;
  for (PeerstoreObserver* observer : observers_) observer->on_peer_added(peer, now);
  return entry;
}

bool Peerstore::touch(const PeerId& peer, SimTime now) {
  const std::size_t before = entries_.size();
  Entry& entry = get_or_create(peer, now);
  entry.last_seen = std::max(entry.last_seen, now);
  return entries_.size() != before;
}

void Peerstore::set_agent(const PeerId& peer, const std::string& agent, SimTime now) {
  Entry& entry = get_or_create(peer, now);
  entry.last_seen = std::max(entry.last_seen, now);
  if (entry.agent == agent) return;
  const std::string previous = entry.agent;
  entry.agent = agent;
  for (PeerstoreObserver* observer : observers_) {
    observer->on_agent_changed(peer, previous, agent, now);
  }
}

std::uint32_t Peerstore::intern(const std::string& protocol) {
  const auto [it, inserted] = protocol_ids_.try_emplace(
      protocol, static_cast<std::uint32_t>(protocol_names_.size()));
  if (inserted) protocol_names_.push_back(protocol);
  return it->second;
}

void Peerstore::append_names(std::uint64_t bits, std::size_t word,
                             std::vector<std::string>& out) const {
  for (; bits != 0; bits &= bits - 1) {
    out.push_back(protocol_names_[word * 64 + static_cast<std::size_t>(std::countr_zero(bits))]);
  }
}

void Peerstore::set_protocols(const PeerId& peer,
                              const std::vector<std::string>& protocol_list,
                              SimTime now) {
  Entry& entry = get_or_create(peer, now);
  entry.last_seen = std::max(entry.last_seen, now);
  ProtocolSet next;
  for (const std::string& protocol : protocol_list) next.insert(intern(protocol));
  if (next == entry.protocols) return;
  std::vector<std::string> added;
  std::vector<std::string> removed;
  const std::size_t words = std::max(next.word_count(), entry.protocols.word_count());
  for (std::size_t w = 0; w < words; ++w) {
    append_names(next.word(w) & ~entry.protocols.word(w), w, added);
    append_names(entry.protocols.word(w) & ~next.word(w), w, removed);
  }
  // Ids follow first appearance; observers get names in string order.
  std::sort(added.begin(), added.end());
  std::sort(removed.begin(), removed.end());
  entry.protocols = std::move(next);
  if (entry.protocols.contains(kKadId)) entry.ever_dht_server = true;
  for (PeerstoreObserver* observer : observers_) {
    observer->on_protocols_changed(peer, added, removed, now);
  }
}

void Peerstore::add_address(const PeerId& peer, const Multiaddr& address, SimTime now) {
  Entry& entry = get_or_create(peer, now);
  entry.last_seen = std::max(entry.last_seen, now);
  if (entry.addresses.insert(address).second) {
    for (PeerstoreObserver* observer : observers_) {
      observer->on_address_added(peer, address, now);
    }
  }
}

const Peerstore::Entry* Peerstore::find(const PeerId& peer) const {
  const std::uint32_t held = slots_[slot_of(peer)];
  return held == 0 ? nullptr : &entries_[held - 1];
}

bool Peerstore::supports(const PeerId& peer, std::string_view protocol) const {
  const Entry* entry = find(peer);
  if (entry == nullptr) return false;
  const auto it = protocol_ids_.find(protocol);
  return it != protocol_ids_.end() && entry->protocols.contains(it->second);
}

}  // namespace ipfs::p2p
