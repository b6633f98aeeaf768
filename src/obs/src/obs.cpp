#include "synat/obs/obs.h"

#include <chrono>
#include <cstdlib>

namespace synat::obs {

namespace detail {
std::atomic<uint32_t> g_flags{0};
}  // namespace detail

void set_flags(uint32_t flags) {
  detail::g_flags.store(flags, std::memory_order_relaxed);
}

void enable(uint32_t flag) {
  detail::g_flags.fetch_or(flag, std::memory_order_relaxed);
}

std::string_view stage_name(StageId s) {
  switch (s) {
    case StageId::Parse: return "parse";
    case StageId::CfgLiveness: return "cfg_liveness";
    case StageId::Dataflow: return "dataflow";
    case StageId::Purity: return "purity";
    case StageId::Variants: return "variants";
    case StageId::Contexts: return "contexts";
    case StageId::Movers: return "movers";
    case StageId::Infer: return "infer";
    case StageId::Blocks: return "blocks";
    case StageId::Analyze: return "analyze";
    case StageId::Report: return "report";
    case StageId::CacheLookup: return "cache_lookup";
    case StageId::CacheStore: return "cache_store";
    case StageId::Dispatch: return "dispatch";
    case StageId::RpcDecode: return "rpc_decode";
    case StageId::RpcExecute: return "rpc_execute";
    case StageId::RpcRequest: return "rpc_request";
    case StageId::RpcSandbox: return "rpc_sandbox";
    case StageId::COUNT: break;
  }
  return "unknown";
}

std::string_view stage_category(StageId s) {
  if (static_cast<uint8_t>(s) < static_cast<uint8_t>(StageId::Analyze))
    return "pipeline";
  if (static_cast<uint8_t>(s) < static_cast<uint8_t>(StageId::RpcDecode))
    return "driver";
  return "serve";
}

namespace {

std::atomic<uint64_t> g_virtual_now{0};

bool detect_virtual_clock() {
  const char* v = std::getenv("SYNAT_OBS_VIRTUAL_CLOCK");
  return v != nullptr && *v != '\0' && *v != '0';
}

}  // namespace

bool virtual_clock() {
  static const bool on = detect_virtual_clock();
  return on;
}

uint64_t now_ns() {
  if (virtual_clock()) {
    // 1µs per read: spans get nonzero, strictly ordered durations.
    return g_virtual_now.fetch_add(1000, std::memory_order_relaxed);
  }
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace synat::obs
