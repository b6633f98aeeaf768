#include "synat/driver/codec.h"

#include <memory>

namespace synat::driver::codec {

namespace {

// Sanity caps; a count above these is corruption by definition.
constexpr uint64_t kMaxString = uint64_t{1} << 32;
constexpr uint64_t kMaxVariants = 1 << 20;
constexpr uint64_t kMaxItems = 1 << 24;

}  // namespace

void put_u32(std::string& out, uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<char>((v >> (i * 8)) & 0xff));
}

void put_u64(std::string& out, uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<char>((v >> (i * 8)) & 0xff));
}

void put_str(std::string& out, std::string_view s) {
  put_u64(out, s.size());
  out.append(s.data(), s.size());
}

bool Reader::take(size_t n, const char*& p) {
  if (!ok_ || in_.size() - pos_ < n) {
    ok_ = false;
    return false;
  }
  p = in_.data() + pos_;
  pos_ += n;
  return true;
}

bool Reader::get_u32(uint32_t& v) {
  const char* p = nullptr;
  if (!take(4, p)) return false;
  v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<uint32_t>(static_cast<unsigned char>(p[i])) << (i * 8);
  return true;
}

bool Reader::get_u64(uint64_t& v) {
  const char* p = nullptr;
  if (!take(8, p)) return false;
  v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<uint64_t>(static_cast<unsigned char>(p[i])) << (i * 8);
  return true;
}

bool Reader::get_str(std::string& s) {
  uint64_t n = 0;
  if (!get_u64(n) || n > kMaxString) {
    ok_ = false;
    return false;
  }
  const char* p = nullptr;
  if (!take(static_cast<size_t>(n), p)) return false;
  s.assign(p, static_cast<size_t>(n));
  return true;
}

void put_proc_report(std::string& out, const ProcReport& r) {
  put_str(out, r.name);
  put_u64(out, r.line);
  put_u64(out, static_cast<uint64_t>(r.atomic));
  put_str(out, r.atomicity);
  put_u64(out, static_cast<uint64_t>(r.no_variants));
  put_u64(out, static_cast<uint64_t>(r.bailed_out));
  put_u64(out, r.key);
  put_u64(out, static_cast<uint64_t>(r.degraded));
  put_str(out, r.degrade_kind);
  put_str(out, r.degrade_reason);
  put_u64(out, r.variants.size());
  for (const VariantReport& v : r.variants) {
    put_str(out, v.tag);
    put_str(out, v.atomicity);
    put_u64(out, v.lines.size());
    for (const LineReport& l : v.lines) {
      put_u64(out, l.line);
      put_str(out, l.atom);
      put_str(out, l.text);
    }
    put_u64(out, v.blocks.size());
    for (const BlockReport& b : v.blocks) {
      put_str(out, b.atom);
      put_u64(out, b.units);
    }
  }
}

bool get_proc_report(Reader& in, ProcReport& r) {
  uint64_t u = 0;
  if (!in.get_str(r.name) || !in.get_u64(u)) return false;
  r.line = static_cast<uint32_t>(u);
  if (!in.get_u64(u)) return false;
  r.atomic = u != 0;
  if (!in.get_str(r.atomicity)) return false;
  if (!in.get_u64(u)) return false;
  r.no_variants = u != 0;
  if (!in.get_u64(u)) return false;
  r.bailed_out = u != 0;
  if (!in.get_u64(r.key)) return false;
  if (!in.get_u64(u)) return false;
  r.degraded = u != 0;
  if (!in.get_str(r.degrade_kind) || !in.get_str(r.degrade_reason))
    return false;
  uint64_t nv = 0;
  if (!in.get_u64(nv) || nv > kMaxVariants) return false;
  r.variants.resize(nv);
  for (VariantReport& v : r.variants) {
    if (!in.get_str(v.tag) || !in.get_str(v.atomicity)) return false;
    uint64_t nl = 0;
    if (!in.get_u64(nl) || nl > kMaxItems) return false;
    v.lines.resize(nl);
    for (LineReport& l : v.lines) {
      if (!in.get_u64(u)) return false;
      l.line = static_cast<uint32_t>(u);
      if (!in.get_str(l.atom) || !in.get_str(l.text)) return false;
    }
    uint64_t nb = 0;
    if (!in.get_u64(nb) || nb > kMaxItems) return false;
    v.blocks.resize(nb);
    for (BlockReport& b : v.blocks) {
      if (!in.get_str(b.atom) || !in.get_u64(u)) return false;
      b.units = static_cast<size_t>(u);
    }
  }
  return true;
}

void put_program_report(std::string& out, const ProgramReport& r) {
  put_str(out, r.name);
  put_str(out, r.fingerprint);
  put_u64(out, static_cast<uint64_t>(r.status));
  put_u64(out, r.diagnostics.size());
  for (const DiagReport& d : r.diagnostics) {
    put_str(out, d.severity);
    put_u64(out, d.line);
    put_u64(out, d.column);
    put_str(out, d.message);
  }
  put_u64(out, r.procs.size());
  for (const auto& p : r.procs) {
    put_u64(out, p != nullptr ? 1 : 0);
    if (p != nullptr) put_proc_report(out, *p);
  }
}

bool get_program_report(Reader& in, ProgramReport& r) {
  uint64_t u = 0;
  if (!in.get_str(r.name) || !in.get_str(r.fingerprint)) return false;
  if (!in.get_u64(u) || u > static_cast<uint64_t>(ProgramStatus::InternalError))
    return false;
  r.status = static_cast<ProgramStatus>(u);
  uint64_t nd = 0;
  if (!in.get_u64(nd) || nd > kMaxItems) return false;
  r.diagnostics.resize(nd);
  for (DiagReport& d : r.diagnostics) {
    if (!in.get_str(d.severity) || !in.get_u64(u)) return false;
    d.line = static_cast<uint32_t>(u);
    if (!in.get_u64(u)) return false;
    d.column = static_cast<uint32_t>(u);
    if (!in.get_str(d.message)) return false;
  }
  uint64_t np = 0;
  if (!in.get_u64(np) || np > kMaxItems) return false;
  r.procs.clear();
  r.procs.reserve(np);
  for (uint64_t i = 0; i < np; ++i) {
    if (!in.get_u64(u)) return false;
    if (u == 0) {
      r.procs.push_back(nullptr);
      continue;
    }
    auto proc = std::make_shared<ProcReport>();
    if (!get_proc_report(in, *proc)) return false;
    r.procs.push_back(std::move(proc));
  }
  return true;
}

void put_telemetry(std::string& out, const std::vector<obs::SpanRecord>& spans,
                   const obs::MetricsSnapshot& delta) {
  put_u64(out, spans.size());
  for (const obs::SpanRecord& s : spans) {
    put_u32(out, s.stage);
    put_u32(out, s.tid);
    put_u64(out, s.start_ns);
    put_u64(out, s.dur_ns);
  }
  put_u64(out, delta.counters.size());
  for (const obs::CounterSample& c : delta.counters) {
    put_str(out, c.name);
    put_u64(out, c.value);
    put_u32(out, c.deterministic ? 1 : 0);
  }
  put_u64(out, delta.histograms.size());
  for (const obs::HistogramSample& h : delta.histograms) {
    put_str(out, h.name);
    put_u64(out, h.sum_ns);
    put_u64(out, h.buckets.size());
    for (const auto& [idx, n] : h.buckets) {
      put_u32(out, idx);
      put_u64(out, n);
    }
  }
}

bool get_telemetry(Reader& in, std::vector<obs::SpanRecord>& spans,
                   obs::MetricsSnapshot& delta) {
  uint64_t ns = 0;
  uint32_t w = 0;
  if (!in.get_u64(ns) || ns > kMaxTelemetrySpans) return false;
  spans.clear();
  spans.reserve(ns);
  for (uint64_t i = 0; i < ns; ++i) {
    obs::SpanRecord s;
    if (!in.get_u32(s.stage) || s.stage >= obs::kNumStages) return false;
    if (!in.get_u32(s.tid) || !in.get_u64(s.start_ns) || !in.get_u64(s.dur_ns))
      return false;
    spans.push_back(s);
  }
  uint64_t nc = 0;
  if (!in.get_u64(nc) || nc > kMaxTelemetryMetrics) return false;
  delta.counters.resize(nc);
  for (obs::CounterSample& c : delta.counters) {
    if (!in.get_str(c.name) || !in.get_u64(c.value) || !in.get_u32(w) || w > 1)
      return false;
    c.deterministic = w != 0;
  }
  uint64_t nh = 0;
  if (!in.get_u64(nh) || nh > kMaxTelemetryMetrics) return false;
  delta.histograms.resize(nh);
  for (obs::HistogramSample& h : delta.histograms) {
    uint64_t nb = 0;
    if (!in.get_str(h.name) || !in.get_u64(h.sum_ns) || !in.get_u64(nb) ||
        nb > obs::Histogram::kBuckets)
      return false;
    h.buckets.resize(nb);
    for (size_t i = 0; i < nb; ++i) {
      auto& [idx, n] = h.buckets[i];
      // Bucket indices are in range and strictly increasing, as a
      // snapshot writes them.
      if (!in.get_u32(idx) || idx >= obs::Histogram::kBuckets ||
          (i > 0 && idx <= h.buckets[i - 1].first) || !in.get_u64(n))
        return false;
    }
  }
  return true;
}

void put_prov_records(std::string& out,
                      const std::vector<obs::ProvenanceRecord>& recs) {
  put_u64(out, recs.size());
  for (const obs::ProvenanceRecord& r : recs) {
    put_u32(out, r.step);
    put_str(out, r.theorem);
    put_str(out, r.rule);
    put_str(out, r.subject);
    put_u32(out, r.line);
    put_u32(out, r.column);
    put_str(out, r.atom);
    put_str(out, r.detail);
    put_str(out, r.witness);
    put_u32(out, r.witness_line);
    put_u32(out, r.witness_column);
  }
}

bool get_prov_records(Reader& in, std::vector<obs::ProvenanceRecord>& recs) {
  uint64_t n = 0;
  if (!in.get_u64(n) || n > kMaxProvRecords) return false;
  recs.resize(n);
  for (obs::ProvenanceRecord& r : recs) {
    if (!in.get_u32(r.step) || !in.get_str(r.theorem) ||
        !in.get_str(r.rule) || !in.get_str(r.subject) ||
        !in.get_u32(r.line) || !in.get_u32(r.column) ||
        !in.get_str(r.atom) || !in.get_str(r.detail) ||
        !in.get_str(r.witness) || !in.get_u32(r.witness_line) ||
        !in.get_u32(r.witness_column))
      return false;
  }
  return true;
}

void put_proc_provenance(std::string& out, const ProcReport& r) {
  put_prov_records(out, r.prov);
  put_u64(out, r.variants.size());
  for (const VariantReport& v : r.variants) put_prov_records(out, v.prov);
}

bool get_proc_provenance(Reader& in, ProcReport& r) {
  if (!get_prov_records(in, r.prov)) return false;
  uint64_t nv = 0;
  if (!in.get_u64(nv) || nv != r.variants.size()) return false;
  for (VariantReport& v : r.variants)
    if (!get_prov_records(in, v.prov)) return false;
  return true;
}

void put_program_provenance(std::string& out, const ProgramReport& r) {
  put_u64(out, r.procs.size());
  for (const auto& p : r.procs) {
    put_u64(out, p != nullptr ? 1 : 0);
    if (p != nullptr) put_proc_provenance(out, *p);
  }
}

bool get_program_provenance(Reader& in, ProgramReport& r) {
  uint64_t np = 0;
  if (!in.get_u64(np) || np != r.procs.size()) return false;
  for (auto& p : r.procs) {
    uint64_t has = 0;
    if (!in.get_u64(has) || (has != 0) != (p != nullptr)) return false;
    if (p == nullptr) continue;
    // Reports are shared immutable once published; this decode path owns
    // the freshly decoded report, so the const_cast is attaching to a
    // not-yet-published object.
    auto* mut = const_cast<ProcReport*>(p.get());
    if (!get_proc_provenance(in, *mut)) return false;
  }
  return true;
}

void put_cache_delta(std::string& out, uint64_t hits, uint64_t misses,
                     const std::vector<CacheDeltaEntry>& entries) {
  put_u64(out, hits);
  put_u64(out, misses);
  put_u64(out, entries.size());
  for (const CacheDeltaEntry& e : entries) {
    put_u64(out, e.first);
    put_proc_report(out, *e.second);
    put_proc_provenance(out, *e.second);
  }
}

bool get_cache_delta(Reader& in, uint64_t& hits, uint64_t& misses,
                     std::vector<CacheDeltaEntry>& entries) {
  uint64_t n = 0;
  if (!in.get_u64(hits) || !in.get_u64(misses) || !in.get_u64(n) ||
      n > kMaxCacheDeltaEntries)
    return false;
  entries.clear();
  entries.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t key = 0;
    auto report = std::make_shared<ProcReport>();
    if (!in.get_u64(key) || !get_proc_report(in, *report) ||
        !get_proc_provenance(in, *report))
      return false;
    entries.emplace_back(key, std::move(report));
  }
  return true;
}

}  // namespace synat::driver::codec
