#include "synat/serve/quarantine.h"

namespace synat::serve {

bool Quarantine::check(uint64_t fp, uint64_t now_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(fp);
  if (it == entries_.end() || it->second.until_ms == 0) return false;
  if (now_ms >= it->second.until_ms) {
    // TTL elapsed: the offender earns one fresh fork. If it dies again the
    // count restarts from zero — decay, not a permanent blacklist.
    entries_.erase(it);
    return false;
  }
  return true;
}

void Quarantine::record_death(uint64_t fp, uint64_t now_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(fp);
  if (it == entries_.end()) {
    if (entries_.size() >= opts_.max_entries) {
      // Bounded memory beats perfect memory for an accelerator: evicting
      // an arbitrary entry only means some offender re-earns its trip.
      entries_.erase(entries_.begin());
    }
    it = entries_.emplace(fp, Entry{}).first;
  }
  Entry& e = it->second;
  if (e.until_ms != 0) return;  // already tripped
  if (++e.deaths >= opts_.threshold) e.until_ms = now_ms + opts_.ttl_ms;
}

void Quarantine::record_success(uint64_t fp) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(fp);
  // A tripped entry stays tripped until its TTL: a success can only happen
  // here via a racing request that forked before the trip, and "quarantined
  // for the TTL" is the contract the tests pin down.
  if (it != entries_.end() && it->second.until_ms == 0) entries_.erase(it);
}

size_t Quarantine::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

}  // namespace synat::serve
