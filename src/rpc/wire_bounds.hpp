// Wire-size bounds vocabulary shared between rpclgen-generated bounds
// tables and the runtime decode pre-flight.
//
// `rpclgen --emit-bounds` proves, per procedure, an interval [min, max] of
// bytes any conforming argument/result encoding can occupy (see
// rpcl/bounds.hpp) and emits it as a constexpr array of ProcWireBounds.
// The rpc server and rpc client core consult that table before decoding:
// a record whose payload length falls outside the addressed procedure's
// interval cannot be a valid message, so it is rejected before any
// allocation or xdr_decode runs. This header defines only the table entry
// types and the RFC 5531 header-size envelope — it must stay light enough
// for generated headers to include without dragging in the server.
#pragma once

#include <cstdint>
#include <span>

namespace cricket::rpc {

/// Sentinel max for types/procedures the analysis could not bound. A table
/// containing this value still compiles (the table is total), but
/// generated static_asserts and the rpclgen CLI reject unbounded
/// procedures, so runtime code only ever sees it for non-procedure types.
inline constexpr std::uint64_t kUnboundedWireSize = ~std::uint64_t{0};

/// Encoded-size interval of one named RPCL type.
struct TypeWireBounds {
  const char* name;
  std::uint64_t min;
  std::uint64_t max;
};

/// Encoded-size intervals of one procedure's argument list and result,
/// excluding RPC headers (those are bounded by the k*Header* constants
/// below, independent of the procedure).
struct ProcWireBounds {
  std::uint32_t prog;
  std::uint32_t vers;
  std::uint32_t proc;
  std::uint64_t args_min;
  std::uint64_t args_max;
  std::uint64_t result_min;
  std::uint64_t result_max;
  const char* name;
};

/// RFC 5531 call header envelope: xid + msg_type + rpcvers + prog + vers +
/// proc (24 bytes) plus two opaque_auth structures (flavor + length +
/// 0..400 body bytes each, padded to 4).
inline constexpr std::uint64_t kCallHeaderMin = 24 + 8 + 8;
inline constexpr std::uint64_t kCallHeaderMax = 24 + 408 + 408;

/// RFC 5531 reply header envelope: xid + msg_type + reply_stat (12 bytes)
/// plus, for accepted replies, verifier (8..408) + accept_stat (4) + the
/// largest status-specific body (prog-mismatch bounds: 8 bytes; the Cricket
/// quota-exceeded reason word: 4 bytes); denied replies are smaller than
/// the accepted maximum.
inline constexpr std::uint64_t kReplyHeaderMin = 12 + 8 + 4;
inline constexpr std::uint64_t kReplyHeaderMax = 12 + 408 + 4 + 8;

/// Looks up the bounds entry for (prog, vers, proc). Linear scan: tables
/// are generated in procedure order and small (tens of entries), and the
/// function must be constexpr-usable from generated static_asserts.
constexpr const ProcWireBounds* find_proc_bounds(
    std::span<const ProcWireBounds> table, std::uint32_t prog,
    std::uint32_t vers, std::uint32_t proc) noexcept {
  for (const auto& entry : table) {
    if (entry.prog == prog && entry.vers == vers && entry.proc == proc)
      return &entry;
  }
  return nullptr;
}

}  // namespace cricket::rpc
