#include "core/location_cache.hpp"

#include "util/rng.hpp"  // mix64

namespace agentloc::core {

namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 8;  // at least two 4-way sets
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

LocationCache::LocationCache(std::size_t capacity, sim::SimTime ttl)
    : slots_(round_up_pow2(capacity)),
      hands_(slots_.size() / kWays, 0),
      ttl_(ttl) {}

std::size_t LocationCache::set_base(platform::AgentId agent) const noexcept {
  const std::size_t set_count = slots_.size() / kWays;
  const auto set =
      static_cast<std::size_t>(util::mix64(agent)) & (set_count - 1);
  return set * kWays;
}

LocationCache::Slot* LocationCache::find_slot(
    platform::AgentId agent) noexcept {
  const std::size_t base = set_base(agent);
  for (std::size_t w = 0; w < kWays; ++w) {
    if (slots_[base + w].agent == agent) return &slots_[base + w];
  }
  return nullptr;
}

void LocationCache::clear_slot(Slot& slot) noexcept {
  slot = Slot{};
  --size_;
}

std::optional<LocationCache::Hit> LocationCache::lookup(
    platform::AgentId agent, sim::SimTime now) {
  Slot* slot = find_slot(agent);
  if (slot == nullptr) {
    ++stats_.misses;
    return std::nullopt;
  }
  if (slot->expiry <= now) {
    ++stats_.expirations;
    ++stats_.misses;
    clear_slot(*slot);
    return std::nullopt;
  }
  slot->referenced = true;
  ++stats_.hits;
  return Hit{slot->node, slot->seq};
}

LocationCache::Slot& LocationCache::victim_slot(std::size_t base,
                                                sim::SimTime now) {
  // Empty or expired slots first — recycling them is free.
  for (std::size_t w = 0; w < kWays; ++w) {
    Slot& slot = slots_[base + w];
    if (slot.agent == platform::kNoAgent) return slot;
    if (slot.expiry <= now) {
      ++stats_.expirations;
      clear_slot(slot);
      return slot;
    }
  }
  // CLOCK second-chance within the set: sweep from the hand, clearing
  // reference bits; the first slot found clear is the victim. Two sweeps
  // bound the scan — after one full pass every bit is clear.
  std::uint8_t& hand = hands_[base / kWays];
  for (std::size_t step = 0; step < 2 * kWays; ++step) {
    Slot& slot = slots_[base + hand];
    hand = static_cast<std::uint8_t>((hand + 1) % kWays);
    if (slot.referenced) {
      slot.referenced = false;
      continue;
    }
    ++stats_.evictions;
    clear_slot(slot);
    return slot;
  }
  Slot& slot = slots_[base];  // unreachable; the second sweep always lands
  ++stats_.evictions;
  clear_slot(slot);
  return slot;
}

void LocationCache::store(const LocationEntry& entry, sim::SimTime now) {
  if (entry.agent == platform::kNoAgent) return;
  if (Slot* slot = find_slot(entry.agent)) {
    // Newest-seq-wins, mirroring the IAgent table: a reordered older report
    // must not roll the binding back. An expired binding is void — lookups
    // already treat it as a miss — so its seq vetoes nothing.
    if (slot->expiry > now && entry.seq < slot->seq) {
      ++stats_.stale_stores;
      return;
    }
    slot->node = entry.node;
    slot->seq = entry.seq;
    slot->expiry = now + ttl_;
    slot->referenced = true;
    ++stats_.stores;
    return;
  }
  Slot& slot = victim_slot(set_base(entry.agent), now);
  slot.agent = entry.agent;
  slot.node = entry.node;
  slot.seq = entry.seq;
  slot.expiry = now + ttl_;
  slot.referenced = true;
  ++size_;
  ++stats_.stores;
}

bool LocationCache::invalidate(platform::AgentId agent) {
  Slot* slot = find_slot(agent);
  if (slot == nullptr) return false;
  clear_slot(*slot);
  ++stats_.invalidations;
  return true;
}

void LocationCache::note_stale(platform::AgentId agent) {
  ++stats_.stale_hits;
  invalidate(agent);
}

}  // namespace agentloc::core
