#include "synat/driver/cache.h"

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <string_view>

#include "synat/driver/codec.h"
#include "synat/obs/metrics.h"
#include "synat/obs/trace.h"
#include "synat/support/hash.h"

namespace synat::driver {

namespace {

// Snapshot format: magic, format version (u64), entry count (u64), then
// per entry the key (u64), the payload as a codec string (u64 length, then
// the bytes) and the payload's CRC32 (u32), all in the codec's encoding.
// The payload is one codec-encoded ProcReport plus its provenance section
// (shared with the worker result frames — see codec.h). The explicit
// framing plus per-entry checksum lets load() skip a corrupted entry (bit
// flips) and salvage the intact prefix of a truncated file, instead of
// dropping the whole snapshot.
// Entries are written in key order so snapshots of equal caches are
// byte-identical. v4 bumped v3 because every entry payload now appends the
// provenance section (codec.h) after the ProcReport. v5 bumps v4 because
// the keying scheme changed (fine-grained content/interference addresses,
// cache.h): v4 snapshots hold whole-program keys that a v5 process would
// never look up, and vice versa, so mixing them would silently waste the
// warm start. Old snapshots reject cleanly on magic, exactly as pre-v4
// ones did.
constexpr char kMagic[8] = {'S', 'Y', 'N', 'A', 'T', 'C', 'C', '5'};
constexpr uint64_t kFormatVersion = kCacheSchemaVersion;

}  // namespace

std::shared_ptr<const ProcReport> ResultCache::lookup(uint64_t key) {
  obs::SpanScope span(obs::StageId::CacheLookup);
  static obs::Counter& hits = obs::registry().counter("synat_cache_hits_total");
  static obs::Counter& misses =
      obs::registry().counter("synat_cache_misses_total");
  Shard& s = shard(key);
  std::lock_guard<std::mutex> lock(s.mu);
  auto it = s.map.find(key);
  if (it == s.map.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    misses.inc();
    return nullptr;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  hits.inc();
  return it->second;
}

std::shared_ptr<const ProcReport> ResultCache::insert(
    uint64_t key, std::shared_ptr<const ProcReport> report) {
  obs::SpanScope span(obs::StageId::CacheStore);
  static obs::Counter& inserts =
      obs::registry().counter("synat_cache_inserts_total");
  inserts.inc();
  Shard& s = shard(key);
  std::shared_ptr<const ProcReport> resident;
  bool fresh = false;
  {
    std::lock_guard<std::mutex> lock(s.mu);
    auto [it, inserted] = s.map.emplace(key, std::move(report));
    resident = it->second;
    fresh = inserted;
  }
  if (fresh) {
    std::lock_guard<std::mutex> lock(capture_mu_);
    if (capturing_) capture_.emplace_back(key, resident);
  }
  return resident;
}

void ResultCache::start_capture() {
  std::lock_guard<std::mutex> lock(capture_mu_);
  capturing_ = true;
  capture_.clear();
}

std::vector<std::pair<uint64_t, std::shared_ptr<const ProcReport>>>
ResultCache::take_capture() {
  std::lock_guard<std::mutex> lock(capture_mu_);
  capturing_ = false;
  return std::move(capture_);
}

void ResultCache::clear() {
  for (Shard& s : shards_) {
    std::lock_guard<std::mutex> lock(s.mu);
    s.map.clear();
  }
}

size_t ResultCache::size() const {
  size_t n = 0;
  for (const Shard& s : shards_) {
    std::lock_guard<std::mutex> lock(s.mu);
    n += s.map.size();
  }
  return n;
}

bool ResultCache::save(const std::string& path) const {
  std::map<uint64_t, std::shared_ptr<const ProcReport>> sorted;
  for (const Shard& s : shards_) {
    std::lock_guard<std::mutex> lock(s.mu);
    sorted.insert(s.map.begin(), s.map.end());
  }
  std::string snap(kMagic, sizeof kMagic);
  codec::put_u64(snap, kFormatVersion);
  codec::put_u64(snap, sorted.size());
  std::string payload;
  for (const auto& [key, report] : sorted) {
    payload.clear();
    codec::put_proc_report(payload, *report);
    codec::put_proc_provenance(payload, *report);
    codec::put_u64(snap, key);
    codec::put_str(snap, payload);
    codec::put_u32(snap, crc32(payload));
  }
  // Write-then-rename: the serve daemon snapshots the live cache on a
  // timer, so a crash mid-write must leave the previous snapshot intact
  // (crash-only design — the snapshot on disk is always a complete one).
  const std::string tmp = path + ".tmp";
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out.write(snap.data(), static_cast<std::streamsize>(snap.size()));
  // close() writes the last buffered bytes; a write that fails there must
  // not rename a short file over the previous snapshot.
  out.close();
  if (!out || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

bool ResultCache::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;  // no snapshot: a plain cold start, not corruption
  const std::string file((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  auto reject = [this] {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    static obs::Counter& rejected =
        obs::registry().counter("synat_cache_rejected_total");
    rejected.inc();
  };
  if (std::string_view(file).substr(0, sizeof kMagic) !=
      std::string_view(kMagic, sizeof kMagic)) {
    reject();  // garbage or a pre-v3 snapshot: cold start
    return false;
  }
  codec::Reader snap(std::string_view(file).substr(sizeof kMagic));
  uint64_t version = 0, count = 0;
  if (!snap.get_u64(version) || version != kFormatVersion ||
      !snap.get_u64(count) || count > (uint64_t{1} << 32)) {
    reject();
    return false;
  }
  std::string bytes;
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t key = 0;
    uint32_t crc = 0;
    if (!snap.get_u64(key) || !snap.get_str(bytes) || !snap.get_u32(crc)) {
      reject();  // truncated tail: keep what already decoded
      break;
    }
    if (crc32(bytes) != crc) {
      reject();  // bit flip inside this entry; framing is intact, carry on
      continue;
    }
    codec::Reader payload(bytes);
    auto report = std::make_shared<ProcReport>();
    if (!codec::get_proc_report(payload, *report) ||
        !codec::get_proc_provenance(payload, *report) || !payload.at_end()) {
      reject();  // checksum matched but the encoding didn't: skip it
      continue;
    }
    insert(key, std::move(report));
  }
  return true;
}

}  // namespace synat::driver
