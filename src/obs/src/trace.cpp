#include "synat/obs/trace.h"

#include <algorithm>

#include "synat/obs/metrics.h"

namespace synat::obs {

Tracer& Tracer::instance() {
  static Tracer* t = new Tracer();  // leaked: usable during thread teardown
  return *t;
}

// Registers the calling thread's ring on first use and marks it retired on
// thread exit; the tracer keeps the shared_ptr alive until the next drain.
struct Tracer::ThreadSlot {
  std::shared_ptr<Ring> ring;
  ~ThreadSlot() {
    if (!ring) return;
    std::lock_guard<std::mutex> lock(Tracer::instance().mu_);
    ring->retired = true;
  }
};

Tracer::Ring& Tracer::local_ring() {
  thread_local ThreadSlot slot;
  if (!slot.ring) {
    auto ring = std::make_shared<Ring>();
    ring->spans.reserve(256);
    std::lock_guard<std::mutex> lock(mu_);
    ring->tid = next_tid_++;
    rings_.push_back(ring);
    slot.ring = std::move(ring);
  }
  return *slot.ring;
}

void Tracer::record(StageId stage, uint64_t start_ns, uint64_t dur_ns) {
  Ring& ring = local_ring();
  SpanRecord rec;
  rec.stage = static_cast<uint32_t>(stage);
  rec.lane = 0;
  rec.tid = ring.tid;
  rec.start_ns = start_ns;
  rec.dur_ns = dur_ns;
  if (ring.spans.size() < kRingCapacity) {
    ring.spans.push_back(rec);
  } else {
    ring.spans[ring.next] = rec;
    ring.next = (ring.next + 1) % kRingCapacity;
    dropped_.fetch_add(1, std::memory_order_relaxed);
  }
}

void Tracer::inject(uint32_t lane, const std::vector<SpanRecord>& spans) {
  std::lock_guard<std::mutex> lock(mu_);
  injected_.reserve(injected_.size() + spans.size());
  for (SpanRecord rec : spans) {
    rec.lane = lane;
    injected_.push_back(rec);
  }
}

void Tracer::set_lane_name(uint32_t lane, std::string name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [l, n] : lanes_) {
    if (l == lane) {
      n = std::move(name);
      return;
    }
  }
  lanes_.emplace_back(lane, std::move(name));
}

std::vector<std::pair<uint32_t, std::string>> Tracer::lane_names() const {
  std::lock_guard<std::mutex> lock(mu_);
  auto lanes = lanes_;
  std::sort(lanes.begin(), lanes.end());
  return lanes;
}

std::vector<SpanRecord> Tracer::drain() {
  std::vector<SpanRecord> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& ring : rings_) {
      // Rotate so wrapped rings come out in append order.
      for (size_t i = 0; i < ring->spans.size(); ++i)
        out.push_back(ring->spans[(ring->next + i) % ring->spans.size()]);
      ring->spans.clear();
      ring->next = 0;
    }
    rings_.erase(std::remove_if(rings_.begin(), rings_.end(),
                                [](const std::shared_ptr<Ring>& r) {
                                  return r->retired;
                                }),
                 rings_.end());
    out.insert(out.end(), injected_.begin(), injected_.end());
    injected_.clear();
  }
  std::sort(out.begin(), out.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              if (a.lane != b.lane) return a.lane < b.lane;
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              if (a.stage != b.stage) return a.stage < b.stage;
              return a.dur_ns < b.dur_ns;
            });
  return out;
}

uint64_t Tracer::dropped() const {
  return dropped_.load(std::memory_order_relaxed);
}

uint64_t Tracer::count_dropped() {
  static Counter& drops =
      registry().counter("synat_trace_spans_dropped_total", false);
  const uint64_t now = dropped();
  uint64_t before = counted_.load(std::memory_order_relaxed);
  // Concurrent callers each add a disjoint slice: counted_ only advances.
  while (before < now &&
         !counted_.compare_exchange_weak(before, now,
                                         std::memory_order_relaxed))
    ;
  if (before < now) drops.inc(now - before);
  return drops.value();
}

void Tracer::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& ring : rings_) {
    ring->spans.clear();
    ring->next = 0;
  }
  rings_.erase(std::remove_if(rings_.begin(), rings_.end(),
                              [](const std::shared_ptr<Ring>& r) {
                                return r->retired;
                              }),
               rings_.end());
  injected_.clear();
  lanes_.clear();
  dropped_.store(0, std::memory_order_relaxed);
  counted_.store(0, std::memory_order_relaxed);
}

SpanScope::~SpanScope() {
  if (flags_ == 0 && add_ns_ == nullptr) return;
  const uint64_t end = now_ns();
  const uint64_t dur = end > start_ ? end - start_ : 0;
  if (add_ns_ != nullptr) *add_ns_ += dur;
  if (flags_ == 0) return;
  if (flags_ & kMetricsFlag)
    registry().stage_histogram(stage_).observe(dur);
  if (flags_ & kTraceFlag)
    Tracer::instance().record(stage_, start_, dur);
}

}  // namespace synat::obs
