// JSON-RPC 2.0 framing for `synat serve`: one request or response per
// line (newline-delimited). This header is the protocol surface — request
// decoding with the standard error-code discrimination, and single-line
// response encoding. It knows nothing about methods or analysis; that is
// Service's job (service.h).
#pragma once

#include <string>
#include <string_view>

#include "synat/serve/json.h"

namespace synat::serve {

// Standard JSON-RPC 2.0 error codes...
inline constexpr int kErrParse = -32700;          ///< line is not JSON
inline constexpr int kErrInvalidRequest = -32600; ///< JSON, but not a request
inline constexpr int kErrMethodNotFound = -32601;
inline constexpr int kErrInvalidParams = -32602;
inline constexpr int kErrInternal = -32603;
// ...plus the daemon's server-defined range (-32000 to -32099):
/// The bounded request queue is full — the 429 analogue. The request was
/// not started; retry after in-flight work drains.
inline constexpr int kErrOverloaded = -32003;
/// The daemon is draining for shutdown and accepts no new analysis work.
inline constexpr int kErrShuttingDown = -32002;

struct RpcRequest {
  JsonValue id;        ///< String, Number or Null; meaningful iff has_id
  bool has_id = false; ///< absent id = notification: execute, never reply
  std::string method;
  JsonValue params;    ///< Object/Array as sent, Null when absent
};

/// code == 0 means success.
struct RpcError {
  int code = 0;
  std::string message;
};

/// Decodes one request line. kErrParse when the line is not valid JSON;
/// kErrInvalidRequest when it is JSON but not a JSON-RPC 2.0 request
/// (wrong "jsonrpc", missing/non-string "method", malformed "id" or
/// "params"). On kErrInvalidRequest, `out.id` is still populated when the
/// request carried a usable id, so the error response can echo it.
RpcError decode_request(std::string_view line, RpcRequest& out,
                        const JsonLimits& limits = {});

/// Response frames: single-line JSON, no trailing newline.
std::string encode_result(const JsonValue& id, JsonValue result);
/// Pass id == nullptr when the request's id is unknown (encodes id:null,
/// as JSON-RPC prescribes for undecodable requests).
std::string encode_error(const JsonValue* id, int code,
                         std::string_view message);

}  // namespace synat::serve
