#include "p2p/conn_manager.hpp"

#include <algorithm>

#include "common/rng.hpp"

namespace ipfs::p2p {

int ConnManager::tag(const PeerId& peer) const {
  const auto it = tags_.find(peer);
  return it == tags_.end() ? 0 : it->second;
}

std::vector<ConnectionId> ConnManager::plan_trim(
    std::span<const Connection* const> open, common::SimTime now) {
  std::vector<ConnectionId> to_close;
  if (!over_high_water(open.size())) return to_close;
  const std::size_t target = static_cast<std::size_t>(std::max(config_.low_water, 0));
  if (open.size() <= target) return to_close;
  const std::size_t excess = open.size() - target;

  const auto gather = [&] {
    candidates_.clear();
    for (const Connection* connection : open) {
      if (now - connection->opened < config_.grace_period) continue;
      if (protected_.contains(connection->remote)) continue;
      // Among equal tags go-libp2p's victim order is effectively arbitrary
      // (map iteration).  A salted hash reproduces that: each trim pass
      // culls a pseudo-random subset, which gives connection lifetimes
      // their geometric tail (paper §IV-A's 73 s median with a 196 s mean).
      candidates_.push_back({tag(connection->remote),
                             common::mix64(connection->id, static_cast<std::uint64_t>(now)),
                             connection->id});
    }
  };
  const auto less = [](const Candidate& a, const Candidate& b) {
    return a.tag_value != b.tag_value ? a.tag_value < b.tag_value : a.order < b.order;
  };
  const auto same = [](const Candidate& a, const Candidate& b) {
    return a.tag_value == b.tag_value && a.order == b.order;
  };

  // The first `excess` of the sorted order, found by selection: only the
  // victims are sorted.
  gather();
  const std::size_t victims = std::min(excess, candidates_.size());
  const auto cut = candidates_.begin() + static_cast<std::ptrdiff_t>(victims);
  std::nth_element(candidates_.begin(), cut, candidates_.end(), less);
  std::sort(candidates_.begin(), cut, less);
  // mix64(id, now) is not injective, so two candidates can share a key.
  // The full sort of the gathered order decides where such a pair lands;
  // when the pair is among the victims or straddles the cut, redo exactly
  // that sort so the close order stays the one the exports were pinned to.
  const bool tie_decides =
      std::adjacent_find(candidates_.begin(), cut, same) != cut ||
      (victims > 0 && cut != candidates_.end() && same(*(cut - 1), *cut));
  if (tie_decides) {
    gather();
    std::sort(candidates_.begin(), candidates_.end(), less);
  }

  to_close.reserve(victims);
  for (std::size_t i = 0; i < victims; ++i) to_close.push_back(candidates_[i].id);
  return to_close;
}

}  // namespace ipfs::p2p
