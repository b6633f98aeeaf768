#include "synat/driver/cache.h"

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <vector>

#include "synat/driver/codec.h"
#include "synat/obs/metrics.h"
#include "synat/obs/trace.h"
#include "synat/support/hash.h"

namespace synat::driver {

namespace {

// Snapshot format v4: magic, format version, entry count, then per entry
// [key][payload length][payload bytes][CRC32 of payload], where the payload
// is one codec-encoded ProcReport plus its provenance section (shared with
// the worker result frames — see codec.h). The explicit framing plus
// per-entry checksum lets load() skip a corrupted entry (bit flips) and
// salvage the intact prefix of a truncated file, instead of dropping the
// whole snapshot.
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

void put_u64(std::ostream& out, uint64_t v) {
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>((v >> (i * 8)) & 0xff);
  out.write(buf, 8);
}

void put_u32(std::ostream& out, uint32_t v) {
  char buf[4];
  for (int i = 0; i < 4; ++i) buf[i] = static_cast<char>((v >> (i * 8)) & 0xff);
  out.write(buf, 4);
}

bool get_u32(std::istream& in, uint32_t& v) {
  char buf[4];
  if (!in.read(buf, 4)) return false;
  v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<uint32_t>(static_cast<unsigned char>(buf[i])) << (i * 8);
  return true;
}

bool get_u64(std::istream& in, uint64_t& v) {
  char buf[8];
  if (!in.read(buf, 8)) return false;
  v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<uint64_t>(static_cast<unsigned char>(buf[i])) << (i * 8);
  return true;
}

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
  // Write-then-rename: the serve daemon snapshots the live cache on a
  // timer, so a crash mid-write must leave the previous snapshot intact
  // (crash-only design — the snapshot on disk is always a complete one).
  const std::string tmp = path + ".tmp";
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out.write(kMagic, sizeof kMagic);
  put_u64(out, kFormatVersion);
  put_u64(out, sorted.size());
  for (const auto& [key, report] : sorted) {
    std::string bytes;
    codec::put_proc_report(bytes, *report);
    codec::put_proc_provenance(bytes, *report);
    put_u64(out, key);
    put_u64(out, bytes.size());
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    put_u32(out, crc32(bytes));
  }
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
  auto reject = [this] {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    static obs::Counter& rejected =
        obs::registry().counter("synat_cache_rejected_total");
    rejected.inc();
  };
  char magic[sizeof kMagic];
  if (!in.read(magic, sizeof magic) ||
      std::string_view(magic, sizeof magic) !=
          std::string_view(kMagic, sizeof kMagic)) {
    reject();  // garbage or a pre-v3 snapshot: cold start
    return false;
  }
  uint64_t version = 0;
  if (!get_u64(in, version) || version != kFormatVersion) {
    reject();
    return false;
  }
  uint64_t count = 0;
  if (!get_u64(in, count) || count > (uint64_t{1} << 32)) {
    reject();
    return false;
  }
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t key = 0, len = 0;
    if (!get_u64(in, key) || !get_u64(in, len) || len > (uint64_t{1} << 32)) {
      reject();  // truncated tail: keep what already decoded
      break;
    }
    std::string bytes(len, '\0');
    uint32_t crc = 0;
    if (!in.read(bytes.data(), static_cast<std::streamsize>(len)) ||
        !get_u32(in, crc)) {
      reject();
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
