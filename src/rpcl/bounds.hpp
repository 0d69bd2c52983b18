// Whole-message wire-size interval analysis for RPCL specifications.
//
// sema.hpp checks each declared bound in isolation; this pass proves a
// stronger, compositional property: for every type, argument list, and
// procedure in the spec it computes the exact interval [min, max] of XDR
// wire bytes any conforming encoding can occupy, propagating through
// structs (sum), unions (discriminant + max over arms), fixed arrays
// (count x element), variable arrays/strings/opaques (4-byte count + worst
// case payload), and optionals (4-byte discriminant + value). The lattice
// element is a SizeInterval: either a finite [min, max] pair or the top
// element "unbounded" (some reachable field has no declared bound).
//
// The analysis is itself hardened: all arithmetic is saturating uint64 with
// overflow detection, so a hostile or careless spec cannot make the checker
// compute a wrong (wrapped) bound and then certify it.
//
// Rules (continuing sema.hpp's RPCL001-RPCL010):
//   RPCL011  error    procedure argument/result encoded size is unbounded
//                     (transitively, through any chain of named types)
//   RPCL012  error    computed size bound overflows the 32-bit wire length
//                     (or saturates 64-bit arithmetic on the way there)
//   RPCL013  warning  one union arm dominates the union's worst-case size
//                     (receivers must budget for a payload almost no message
//                     carries; consider splitting the procedure)
//   RPCL014  error    recursive type can not be assigned a finite bound
//   RPCL015  error    procedure total exceeds the wire-size budget derived
//                     from CRICKET_MAX_PAYLOAD (or --proc-budget)
//
// `rpclgen --emit-bounds` runs the pass and emits a generated header of
// constexpr per-type / per-procedure tables (rpc::TypeWireBounds /
// rpc::ProcWireBounds) with static_asserts tying every procedure to the
// budget, so the proof is re-checked by the C++ compiler of every build
// that includes the table. The rpc server and rpc client core use the same
// tables at runtime for decode pre-flight (see rpc/wire_bounds.hpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "rpcl/ast.hpp"
#include "rpcl/codegen.hpp"
#include "rpcl/sema.hpp"

namespace cricket::rpcl {

/// Encoded wire-size interval in bytes. When `bounded` is false the type can
/// grow without limit and `max` is meaningless (min stays valid: even an
/// unbounded opaque<> costs its 4-byte length prefix).
struct SizeInterval {
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  bool bounded = true;

  bool operator==(const SizeInterval&) const = default;
};

/// Bounds of one named type, in declaration order.
struct TypeBoundsInfo {
  std::string name;
  SizeInterval size;
};

/// Bounds of one procedure: the concatenated argument encoding and the
/// result encoding (headers excluded — those are bounded separately by
/// rpc/wire_bounds.hpp constants).
struct ProcBoundsInfo {
  std::string program;
  std::string version;
  std::string name;
  std::uint32_t prog = 0;
  std::uint32_t vers = 0;
  std::uint32_t number = 0;
  SizeInterval args;
  SizeInterval result;
};

struct BoundsOptions {
  /// Per-procedure budget on the encoded argument/result size, in wire
  /// bytes. 0 = auto: use the spec's CRICKET_MAX_PAYLOAD constant plus
  /// `overhead_allowance` when the constant is declared, otherwise skip the
  /// budget check (RPCL015 never fires).
  std::uint64_t proc_budget = 0;
  /// Slack added to CRICKET_MAX_PAYLOAD in auto mode: a procedure carries
  /// its payload plus bounded non-payload fields (handles, sizes, names),
  /// which must not push a payload-sized message over the budget.
  std::uint64_t overhead_allowance = 64 * 1024;
  /// Promote warnings (RPCL013) to errors for ok() / rpclgen --Werror.
  bool warnings_as_errors = false;
};

/// Name of the spec constant that seeds the auto budget.
inline constexpr const char* kBudgetConstName = "CRICKET_MAX_PAYLOAD";

struct BoundsResult {
  std::vector<TypeBoundsInfo> types;   // declaration order
  std::vector<ProcBoundsInfo> procs;   // program/version/proc order
  std::vector<Diagnostic> diagnostics; // RPCL011-RPCL015, source order
  /// Resolved per-procedure budget (0 = no budget check ran).
  std::uint64_t budget = 0;
  /// Value of CRICKET_MAX_PAYLOAD in the spec (0 = not declared).
  std::uint64_t max_payload = 0;

  [[nodiscard]] std::size_t error_count() const noexcept;
  [[nodiscard]] std::size_t warning_count() const noexcept;
  [[nodiscard]] bool ok(const BoundsOptions& options = {}) const noexcept;
};

/// Runs the interval analysis over an already-parsed spec. Never throws;
/// all findings are returned as diagnostics. Undefined type references are
/// sema's problem (RPCL008) and are treated as [0, 0] here so one broken
/// name does not cascade.
[[nodiscard]] BoundsResult compute_bounds(const SpecFile& spec,
                                          const BoundsOptions& options = {});

/// Generates the bounds-table header (namespace `<options.ns>::bounds`).
/// Unbounded entries are emitted with rpc::kUnboundedWireSize so the table
/// is total, but the CLI refuses to emit a header for a spec with
/// error-severity bounds diagnostics.
[[nodiscard]] std::string generate_bounds_header(const SpecFile& spec,
                                                 const BoundsResult& bounds,
                                                 const CodegenOptions& options);

}  // namespace cricket::rpcl
