// fuzz_decode: deterministic structure-aware mutational fuzzing of the
// untrusted-input decode surface.
//
// Closes the loop on the static wire-size analysis (rpcl/bounds.hpp): the
// bounds pass proves what lengths are possible; this harness hammers the
// actual decoders — xdr, rpc_msg, the generated protocol structs, and the
// server dispatch path with pre-flight enabled — with truncations,
// bit-flips, length-field boundary overwrites, and splices of valid
// messages, and asserts the only outcomes are (a) a successful parse or
// (b) a clean typed throw (XdrError / RpcFormatError / GarbageArgsError).
// Anything else — bad_alloc from a hostile count, a crash, a leak (under
// ASan/LSan), an unexpected exception type — is a failure.
//
// The record-marking layer reads each mutated buffer as a byte stream
// twice: straight through, and as a slow link whose recvs return seeded
// short reads and throw seeded TransportTimeouts. Both must take the same
// records, so a reader that drops a partly read record on a timeout fails
// the run.
//
// Deterministic by construction (sim::Xoshiro256ss, fixed default seed) so
// a failing iteration is reproducible with --seed/--iters; wired into
// tools/check.sh stage 9 (fuzz-smoke) against the ASan+UBSan build.
//
// A second corpus stage covers the persistence/migration surface: v2
// checkpoint blobs, MIGR migration images (which nest checkpoints), and the
// MIGRATE transfer messages, decoded through the same server dispatch path a
// live migration target runs. The clean outcomes there additionally include
// CheckpointError / MigrationError (whose Version subclasses are counted
// separately — a mutated version word is routine, not a bug). Hostile chunk
// lengths are pinned deterministically in main(): a 2 GiB declared opaque
// count must die in the xdr count guard before any allocation, and an
// over-bound chunk record must die in the bounds pre-flight before decode.
//
// A third corpus stage is field-targeted at the wiretaint domain: each
// entry is a well-formed MIGRATE argument body plus the wire offsets of the
// scalars the generated headers wrap in xdr::Untrusted<> (declared totals,
// chunk offsets, transfer tickets). The mutator overwrites only those
// bytes, so every mutation survives decode and lands in the taint domain,
// where it must exit through a validator as a typed in-band refusal —
// never UB, never an escaped TaintError. Three hostile values are pinned
// deterministically in main(): a UINT64_MAX d2h length (TaintError at the
// validator, kGarbageArgs through dispatch), a mig_chunk offset near
// UINT64_MAX (refused without appending, transfer stays resumable), and
// zero / UINT32_MAX launch dimensions (LaunchError from the geometry seam).
//
// A fourth corpus stage covers the module-ingest surface: cubin images,
// fatbin containers (compressed and raw entries), and bare LZ streams,
// driven through fatbin::extract_metadata under a small decompression cap —
// the exact server entry point for an uploaded module. Clean outcomes there
// are CubinError and LzError; anything else (notably an allocation sized by
// a forged uncompressed_len) fails the run. Two hostile streams are pinned
// deterministically in main(): a ratio bomb (max-length matches at distance
// 1, ~44x per stream byte) must die at the output cap before the implied
// allocation, and a fatbin whose uncompressed_len field is forged beyond
// payload * kMaxExpansion must be refused at parse, before decompression.
//
// Usage: fuzz_decode [--iters N] [--seed S]
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "cricket/checkpoint.hpp"
#include "cricket/server.hpp"
#include "cricket_bounds.hpp"
#include "cricket_proto.hpp"
#include "cudart/local_api.hpp"
#include "fatbin/cubin.hpp"
#include "fatbin/fatbin.hpp"
#include "fatbin/lz.hpp"
#include "gpusim/device.hpp"
#include "gpusim/kernel.hpp"
#include "migrate/service.hpp"
#include "migrate/state.hpp"
#include "migrate_bounds.hpp"
#include "migrate_proto.hpp"
#include "rpc/record.hpp"
#include "rpc/rpc_msg.hpp"
#include "rpc/server.hpp"
#include "rpc/transport.hpp"
#include "sim/rng.hpp"
#include "xdr/taint.hpp"
#include "xdr/xdr.hpp"

namespace {

using cricket::rpc::CallMsg;
using cricket::rpc::ReplyMsg;
using cricket::sim::Xoshiro256ss;

struct Stats {
  std::uint64_t parsed = 0;
  std::uint64_t xdr_errors = 0;
  std::uint64_t format_errors = 0;
  std::uint64_t preflight_rejects = 0;
  std::uint64_t dispatches = 0;
  std::uint64_t record_errors = 0;
  std::uint64_t blob_errors = 0;     // CheckpointError / MigrationError
  std::uint64_t version_errors = 0;  // their future-version subclasses
  std::uint64_t taint_probes = 0;    // field-targeted taint-stage dispatches
  std::uint64_t module_errors = 0;   // CubinError / LzError
};

Stats g_stats;

/// One decoder invocation. Success and the typed malformed-input exceptions
/// are the only acceptable outcomes; everything else aborts the run with a
/// reproduction recipe printed by main().
template <typename Fn>
void expect_clean(Fn&& fn) {
  try {
    fn();
    ++g_stats.parsed;
  } catch (const cricket::xdr::XdrError&) {
    ++g_stats.xdr_errors;
  } catch (const cricket::rpc::RpcFormatError&) {
    ++g_stats.format_errors;
  } catch (const cricket::rpc::GarbageArgsError&) {
    ++g_stats.format_errors;
  }
  // std::bad_alloc, std::length_error, any other exception, or a signal
  // propagates out: those are exactly the bugs this harness exists to find.
}

/// Persistence-blob decoder invocation. The checkpoint and migration-image
/// codecs wrap every malformed-input failure (including XdrError from the
/// body decode) in their own typed errors, so only those — plus success —
/// are clean. The Version subclasses are counted apart: a mutation landing
/// on the version word is the rolling-upgrade path working as designed.
template <typename Fn>
void expect_clean_blob(Fn&& fn) {
  try {
    fn();
    ++g_stats.parsed;
  } catch (const cricket::core::CheckpointVersionError&) {
    ++g_stats.version_errors;
  } catch (const cricket::migrate::MigrationVersionError&) {
    ++g_stats.version_errors;
  } catch (const cricket::core::CheckpointError&) {
    ++g_stats.blob_errors;
  } catch (const cricket::migrate::MigrationError&) {
    ++g_stats.blob_errors;
  }
}

/// Module-ingest invocation (fatbin/cubin/LZ). The codecs type every
/// malformed-input failure as CubinError or LzError; only those — plus a
/// successful extraction — are clean.
template <typename Fn>
void expect_clean_module(Fn&& fn) {
  try {
    fn();
    ++g_stats.parsed;
  } catch (const cricket::fatbin::CubinError&) {
    ++g_stats.module_errors;
  } catch (const cricket::fatbin::LzError&) {
    ++g_stats.module_errors;
  }
}

/// Replays one fuzzed buffer as an inbound byte stream: recv drains the
/// buffer, then reports orderly EOF. The record readers never send. A
/// nonzero `interrupt_seed` makes it a slow link under a receive timeout:
/// seeded short reads, and a seeded quarter of the recvs throw
/// TransportTimeout having read nothing.
class SpanTransport final : public cricket::rpc::Transport {
 public:
  explicit SpanTransport(std::span<const std::uint8_t> data,
                         std::uint64_t interrupt_seed = 0)
      : data_(data), rng_(interrupt_seed), interrupt_(interrupt_seed != 0) {}

  void send(std::span<const std::uint8_t>) override {}
  std::size_t recv(std::span<std::uint8_t> out) override {
    ++recvs_;
    std::size_t n = std::min(out.size(), data_.size());
    if (interrupt_) {
      if (rng_.next() % 4 == 0)
        throw cricket::rpc::TransportTimeout("fuzz_decode: injected timeout");
      if (n > 0) n = 1 + rng_.next() % n;
    }
    if (n > 0) std::memcpy(out.data(), data_.data(), n);
    data_ = data_.subspan(n);
    return n;
  }
  void shutdown() override {}
  [[nodiscard]] std::size_t recvs() const noexcept { return recvs_; }

 private:
  std::span<const std::uint8_t> data_;
  Xoshiro256ss rng_;
  bool interrupt_;
  std::size_t recvs_ = 0;
};

/// The records a RecordReader takes from `buf` up to EOF, and whether it
/// ended on a TransportError (hostile length, truncation) instead.
struct StreamRead {
  std::vector<std::vector<std::uint8_t>> records;
  bool failed = false;

  bool operator==(const StreamRead&) const = default;
};

/// Reassembles records to EOF, asking has_record() — which walks the
/// buffered, untrusted fragment lengths — between reads, as the pipelined
/// serve loop does. Every injected timeout is retried, as the client's
/// reader retries one.
StreamRead read_stream(std::span<const std::uint8_t> buf,
                       std::size_t read_ahead, std::uint64_t interrupt_seed) {
  SpanTransport t(buf, interrupt_seed);
  // The small explicit cap keeps mutated length fields from turning into
  // large throwaway allocations each iteration; rejection of a hostile
  // length against the DEFAULT cap is pinned deterministically in main().
  cricket::rpc::RecordReader reader(t, /*max_record=*/std::size_t{1} << 16,
                                    read_ahead);
  StreamRead result;
  std::vector<std::uint8_t> record;
  try {
    for (;;) {
      // A whole buffered record must come back without another recv.
      const bool whole = reader.has_record();
      const std::size_t recvs = t.recvs();
      bool got = false;
      try {
        got = reader.read_record(record);
      } catch (const cricket::rpc::TransportTimeout&) {
        continue;
      }
      if (whole && (read_ahead == 0 || !got || t.recvs() != recvs))
        throw std::logic_error("has_record() claimed a record it lacked");
      if (!got) break;
      result.records.push_back(record);
    }
  } catch (const cricket::rpc::TransportError&) {
    result.failed = true;
  }
  return result;
}

// ----------------------------- seed corpus ------------------------------

std::vector<std::vector<std::uint8_t>> build_corpus() {
  namespace proto = cricket::proto;
  using namespace cricket::rpc;
  std::vector<std::vector<std::uint8_t>> corpus;

  CallMsg call;
  call.xid = 0x11223344;
  call.prog = proto::CRICKET_PROG;
  call.vers = proto::CRICKETVERS_VERS;
  call.proc = 13;  // rpc_memcpy_h2d(ptr_t, opaque<...>)
  {
    cricket::xdr::Encoder enc;
    enc.put_u64(0xDEADBEEF0000ull);
    enc.put_opaque(std::vector<std::uint8_t>(64, 0xAB));
    call.args = enc.take();
  }
  corpus.push_back(encode_call(call));

  AuthSysParms sys;
  sys.stamp = 7;
  sys.machinename = "unikernel-0";
  sys.uid = 1000;
  sys.gid = 1000;
  sys.gids = {4, 24, 27};
  call.cred = sys.to_opaque();
  call.proc = 34;  // rpc_launch_kernel
  corpus.push_back(encode_call(call));

  ReplyMsg ok;
  ok.xid = call.xid;
  {
    proto::u64_result res;
    res.err = 0;
    res.value = 0x1000;
    cricket::xdr::Encoder enc;
    xdr_encode(enc, res);
    ok.results = enc.take();
  }
  corpus.push_back(encode_reply(ok));

  ReplyMsg mismatch;
  mismatch.xid = 2;
  mismatch.accept_stat = AcceptStat::kProgMismatch;
  mismatch.mismatch = MismatchInfo{1, 3};
  corpus.push_back(encode_reply(mismatch));

  ReplyMsg denied;
  denied.xid = 3;
  denied.stat = ReplyStat::kDenied;
  denied.reject_stat = RejectStat::kAuthError;
  denied.auth_stat = AuthStat::kBadCred;
  corpus.push_back(encode_reply(denied));

  {
    proto::dev_props_result props;
    props.err = 0;
    props.name = "SimGPU";
    props.total_mem = 1ull << 32;
    cricket::xdr::Encoder enc;
    xdr_encode(enc, props);
    corpus.push_back(enc.take());
  }
  {
    proto::data_result data;
    data.err = 0;
    data.data = std::vector<std::uint8_t>(128, 0x5A);
    cricket::xdr::Encoder enc;
    xdr_encode(enc, data);
    corpus.push_back(enc.take());
  }
  {
    // Variable-length array of non-byte elements: the hostile-count guard
    // in xdr_decode(Decoder&, std::vector<T>&).
    cricket::xdr::Encoder enc;
    xdr_encode(enc, std::vector<std::uint32_t>{1, 2, 3, 4, 5});
    corpus.push_back(enc.take());
  }
  {
    // Record-marked framing of the first call, deliberately split into
    // small fragments so mutations land on the 4-byte fragment headers
    // (length field, last-fragment bit) as well as the payload.
    std::vector<std::uint8_t> framed;
    append_record_marked(framed, corpus.front(), /*max_fragment=*/32);
    corpus.push_back(std::move(framed));
  }
  // Hostile record header: last-fragment bit plus the maximum 31-bit
  // fragment length (2 GiB - 1). The RecordReader max-record cap must
  // reject this from the 4 header bytes alone, before any allocation or
  // payload read; main() additionally pins this against the default cap.
  corpus.push_back({0xFF, 0xFF, 0xFF, 0xFF});
  return corpus;
}

// ----------------- checkpoint / migration seed corpus -------------------

cricket::gpusim::DeviceSnapshot sample_snapshot() {
  cricket::gpusim::DeviceSnapshot snap;
  snap.next_id = 9;
  snap.allocations.push_back({0x1000, 32, std::vector<std::uint8_t>(32, 0xCD)});
  // The codec treats the module image as opaque re-serialized cubin bytes;
  // structure-aware cubin fuzzing lives with the fatbin tests.
  snap.modules.push_back(
      {5, std::vector<std::uint8_t>(48, 0xE1), {{"g_state", 0x2000}}});
  snap.functions.push_back({6, 5, "mark"});
  snap.streams = {{1, 100}, {2, 250}};
  snap.events = {{3, 120}, {4, 240}};
  return snap;
}

cricket::migrate::MigrationImage sample_image() {
  cricket::migrate::MigrationImage image;
  image.tenant.spec.name = "alice";
  image.tenant.spec.weight = 3;
  image.tenant.spec.quota.device_mem_bytes = 1ull << 30;
  image.tenant.bucket_tokens = 55;
  image.tenant.calls_admitted = 99;
  cricket::core::SessionExport s;
  s.session_id = 7;
  s.client_id = 0xFEED;
  s.state = sample_snapshot();
  s.allocations = {{0x1000, 32}};
  s.modules = {static_cast<cricket::cuda::ModuleId>(5)};
  s.streams = {static_cast<cricket::cuda::StreamId>(1),
               static_cast<cricket::cuda::StreamId>(2)};
  s.events = {static_cast<cricket::cuda::EventId>(3)};
  cricket::rpc::DrcExportEntry drc;
  drc.client = 0xABCDEF;
  drc.xid = 9;
  drc.reply = {1, 2, 3, 4, 5};
  s.drc.push_back(std::move(drc));
  image.sessions.push_back(std::move(s));
  return image;
}

std::vector<std::vector<std::uint8_t>> build_blob_corpus() {
  namespace mproto = cricket::migrate::proto;
  using namespace cricket::rpc;
  std::vector<std::vector<std::uint8_t>> corpus;

  // A realistic v2 checkpoint and a migration image nesting one: mutations
  // land on the magic, the version word, both checksums, the handle-table
  // counts, and the nested-blob length field.
  corpus.push_back(cricket::core::encode_checkpoint(sample_snapshot()));
  const auto image_blob = cricket::migrate::encode_image(sample_image());
  corpus.push_back(image_blob);

  // The MIGRATE transfer messages, bare and as full call records through
  // the same dispatch path a migration target serves.
  CallMsg call;
  call.xid = 0x4D494752;  // "MIGR"
  call.prog = mproto::MIGRATE_PROG;
  call.vers = mproto::MIGRATEVERS_VERS;
  call.proc = mproto::MIG_BEGIN_PROC;
  {
    mproto::mig_begin_args begin;
    begin.tenant = "alice";
    begin.total_bytes =
        cricket::xdr::Untrusted<std::uint64_t>(image_blob.size());
    cricket::xdr::Encoder enc;
    xdr_encode(enc, begin);
    call.args = enc.take();
    corpus.push_back(call.args);
  }
  corpus.push_back(encode_call(call));
  {
    mproto::mig_chunk_args chunk;
    chunk.ticket = cricket::xdr::Untrusted<std::uint64_t>(1);
    chunk.offset = cricket::xdr::Untrusted<std::uint64_t>(0);
    chunk.data.assign(image_blob.begin(),
                      image_blob.begin() +
                          static_cast<std::ptrdiff_t>(
                              std::min<std::size_t>(image_blob.size(), 96)));
    cricket::xdr::Encoder enc;
    xdr_encode(enc, chunk);
    call.proc = mproto::MIG_CHUNK_PROC;
    call.args = enc.take();
    corpus.push_back(call.args);
  }
  corpus.push_back(encode_call(call));
  {
    mproto::mig_commit_args commit;
    commit.ticket = cricket::xdr::Untrusted<std::uint64_t>(1);
    commit.checksum = cricket::migrate::fnv64(image_blob);
    cricket::xdr::Encoder enc;
    xdr_encode(enc, commit);
    call.proc = mproto::MIG_COMMIT_PROC;
    call.args = enc.take();
    corpus.push_back(encode_call(call));
  }
  return corpus;
}

// ---------------------- module-ingest seed corpus -----------------------

/// Bounds every fuzzed decompression: hostile counts must be refused, not
/// allocated, and the corpus images all fit comfortably inside it.
constexpr std::uint64_t kFuzzModuleCap = std::uint64_t{1} << 20;

cricket::fatbin::CubinImage sample_cubin() {
  cricket::fatbin::CubinImage img;
  img.sm_arch = 75;
  cricket::fatbin::KernelDescriptor k;
  k.name = "fuzz_mark";
  k.params = {{.size = 8, .align = 8, .is_pointer = true},
              {.size = 4, .align = 4, .is_pointer = false}};
  img.kernels.push_back(k);
  img.globals.push_back({"g_fuzz", 64, {}});
  img.code = cricket::fatbin::make_pseudo_isa(512, 11);
  return img;
}

/// A ratio bomb: one literal, then max-length matches at distance 1 — the
/// densest valid encoding (~44x per stream byte). `tokens` match tokens
/// imply tokens * 131 output bytes from a 2 + 3 * tokens byte stream.
std::vector<std::uint8_t> ratio_bomb(std::size_t tokens) {
  std::vector<std::uint8_t> bomb = {0x00, 0x5A};
  for (std::size_t i = 0; i < tokens; ++i) {
    bomb.push_back(0xFF);
    bomb.push_back(0x01);
    bomb.push_back(0x00);
  }
  return bomb;
}

std::vector<std::vector<std::uint8_t>> build_module_corpus() {
  namespace fatbin = cricket::fatbin;
  std::vector<std::vector<std::uint8_t>> corpus;
  const auto cubin = cubin_serialize(sample_cubin());
  // Bare cubin: mutations land on its magic, section counts, name lengths.
  corpus.push_back(cubin);
  // Fatbin container with a compressed and a raw entry: mutations land on
  // the container header, flags, uncompressed_len, payload_len, and the LZ
  // token stream itself.
  {
    fatbin::Fatbin fb;
    fb.add_raw(75, cubin, /*compress=*/true);
    fb.add_raw(61, cubin, /*compress=*/false);
    corpus.push_back(fb.serialize());
  }
  // Bare LZ stream (the no-container upload path).
  corpus.push_back(fatbin::lz_compress(cubin));
  // The ratio bomb itself as a seed: every mutation of it must still die
  // in either the expansion guard or the cubin probe.
  corpus.push_back(ratio_bomb(64));
  return corpus;
}

/// The exact server ingest path for an uploaded module image, under the
/// fuzz cap so no mutation can buy a large throwaway allocation.
void consume_module(std::span<const std::uint8_t> buf) {
  expect_clean_module([&] {
    (void)cricket::fatbin::extract_metadata(buf, 75, kFuzzModuleCap);
  });
  expect_clean_module([&] {
    const auto fb = cricket::fatbin::Fatbin::parse(buf);
    (void)fb.load(75, kFuzzModuleCap);
  });
}

// ------------------------------ mutators --------------------------------

void mutate(Xoshiro256ss& rng, std::vector<std::uint8_t>& buf) {
  if (buf.empty()) return;
  switch (rng.next() % 5) {
    case 0:  // truncate
      buf.resize(rng.next() % buf.size());
      break;
    case 1: {  // single bit flip
      const std::size_t i = rng.next() % buf.size();
      buf[i] ^= static_cast<std::uint8_t>(1u << (rng.next() % 8));
      break;
    }
    case 2: {  // overwrite an aligned u32 with a boundary value
      if (buf.size() < 4) break;
      const std::uint32_t boundary[] = {
          0u,          1u,          0x7FFFFFFFu,
          0x80000000u, 0xFFFFFFFFu, static_cast<std::uint32_t>(buf.size()),
          static_cast<std::uint32_t>(buf.size() + 1),
          static_cast<std::uint32_t>(buf.size() - 1)};
      const std::uint32_t v =
          boundary[rng.next() % (sizeof(boundary) / sizeof(boundary[0]))];
      const std::size_t words = buf.size() / 4;
      const std::size_t at = 4 * (rng.next() % words);
      buf[at] = static_cast<std::uint8_t>(v >> 24);
      buf[at + 1] = static_cast<std::uint8_t>(v >> 16);
      buf[at + 2] = static_cast<std::uint8_t>(v >> 8);
      buf[at + 3] = static_cast<std::uint8_t>(v);
      break;
    }
    case 3: {  // zero a random range
      const std::size_t a = rng.next() % buf.size();
      const std::size_t n = 1 + rng.next() % (buf.size() - a);
      std::memset(buf.data() + a, 0, n);
      break;
    }
    case 4: {  // append random tail (trailing-garbage detection)
      std::vector<std::uint8_t> tail(1 + rng.next() % 16);
      rng.fill_bytes(tail);
      buf.insert(buf.end(), tail.begin(), tail.end());
      break;
    }
  }
}

// ---------------------- wiretaint field-targeted stage ------------------

/// One taint-stage corpus entry: a well-formed argument body plus the wire
/// offsets of the u64 scalars the generated header wraps in
/// xdr::Untrusted<> for this procedure.
struct TaintEntry {
  std::uint32_t proc = 0;
  std::vector<std::uint8_t> args;
  std::vector<std::size_t> field_offsets;
};

std::vector<TaintEntry> build_taint_corpus(std::uint64_t live_ticket) {
  namespace mproto = cricket::migrate::proto;
  std::vector<TaintEntry> corpus;
  {
    mproto::mig_begin_args begin;
    begin.tenant = "alice";
    begin.total_bytes = cricket::xdr::Untrusted<std::uint64_t>(64);
    cricket::xdr::Encoder enc;
    xdr_encode(enc, begin);
    // "alice" encodes as a u32 count plus 5 bytes padded to 8: total_bytes
    // starts at offset 12.
    corpus.push_back({mproto::MIG_BEGIN_PROC, enc.take(), {12}});
  }
  {
    mproto::mig_chunk_args chunk;
    chunk.ticket = cricket::xdr::Untrusted<std::uint64_t>(live_ticket);
    chunk.offset = cricket::xdr::Untrusted<std::uint64_t>(0);
    chunk.data.assign(16, 0x42);
    cricket::xdr::Encoder enc;
    xdr_encode(enc, chunk);
    corpus.push_back({mproto::MIG_CHUNK_PROC, enc.take(), {0, 8}});
  }
  {
    mproto::mig_commit_args commit;
    commit.ticket = cricket::xdr::Untrusted<std::uint64_t>(live_ticket);
    commit.checksum = 0x1234;
    cricket::xdr::Encoder enc;
    xdr_encode(enc, commit);
    corpus.push_back({mproto::MIG_COMMIT_PROC, enc.take(), {0}});
  }
  return corpus;
}

/// Overwrites exactly one tainted scalar field with a boundary or random
/// value (big-endian, as on the wire) and returns the value written.
std::uint64_t mutate_taint_field(Xoshiro256ss& rng, TaintEntry& entry) {
  static constexpr std::uint64_t kBoundary[] = {
      0ull,           1ull,           0x7FFFFFFFull,
      0x80000000ull,  0xFFFFFFFFull,  1ull << 32,
      1ull << 63,     ~0ull - 8,      ~0ull - 1,
      ~0ull};
  const std::uint64_t v = rng.next() % 3 == 0
                              ? rng.next()
                              : kBoundary[rng.next() %
                                          (sizeof(kBoundary) /
                                           sizeof(kBoundary[0]))];
  const std::size_t at =
      entry.field_offsets[rng.next() % entry.field_offsets.size()];
  for (std::size_t i = 0; i < 8; ++i)
    entry.args[at + i] = static_cast<std::uint8_t>(v >> (8 * (7 - i)));
  return v;
}

/// The hostile value, standalone, against the cricket-side taint exits: the
/// generated default length validator (TaintError is the only failure) and
/// the launch-geometry seam (LaunchError likewise).
void probe_scalar_seams(std::uint64_t raw) {
  try {
    (void)cricket::proto::taint::validate_length(
        cricket::xdr::Untrusted<std::uint64_t>(raw), "taint-stage");
  } catch (const cricket::xdr::TaintError&) {
  }
  try {
    (void)cricket::gpusim::validated_dim3(
        cricket::xdr::Untrusted<std::uint32_t>(
            static_cast<std::uint32_t>(raw)),
        cricket::xdr::Untrusted<std::uint32_t>(1),
        cricket::xdr::Untrusted<std::uint32_t>(1), "taint-stage");
  } catch (const cricket::gpusim::LaunchError&) {
  }
}

/// Decodes the mutated argument body with the generated (taint-wrapping)
/// decoder and drives the real MigrationTarget procedure. The only
/// acceptable outcome is a result code inside the MigErr enum: an escaped
/// TaintError, any other exception, or an out-of-enum code fails the run.
void consume_taint(cricket::migrate::MigrationTarget& target,
                   const TaintEntry& entry) {
  namespace mproto = cricket::migrate::proto;
  cricket::xdr::Decoder dec(entry.args);
  std::int32_t err = cricket::migrate::kMigOk;
  switch (entry.proc) {
    case mproto::MIG_BEGIN_PROC: {
      mproto::mig_begin_args v;
      xdr_decode(dec, v);
      const auto res = target.begin(v.tenant, v.total_bytes);
      err = res.err;
      // Keep the pending table from pinning every slot across iterations.
      if (res.err == cricket::migrate::kMigOk)
        (void)target.abort(
            cricket::xdr::Untrusted<std::uint64_t>(res.ticket));
      break;
    }
    case mproto::MIG_CHUNK_PROC: {
      mproto::mig_chunk_args v;
      xdr_decode(dec, v);
      err = target.chunk(v.ticket, v.offset, v.data);
      break;
    }
    case mproto::MIG_COMMIT_PROC: {
      mproto::mig_commit_args v;
      xdr_decode(dec, v);
      err = target.commit(v.ticket, v.checksum);
      break;
    }
  }
  if (err < cricket::migrate::kMigOk || err > cricket::migrate::kMigBusy)
    throw std::runtime_error(
        "taint stage: refusal code outside the MigErr enum");
  ++g_stats.taint_probes;
}

// ------------------------------ consumers -------------------------------

cricket::rpc::ServiceRegistry build_registry() {
  namespace proto = cricket::proto;
  cricket::rpc::ServiceRegistry registry;
  registry.set_bounds(proto::bounds::kProcBounds);
  registry.register_typed<proto::int_result, std::uint64_t,
                          std::vector<std::uint8_t>>(
      proto::CRICKET_PROG, proto::CRICKETVERS_VERS, 13,
      [](std::uint64_t, std::vector<std::uint8_t>) {
        return proto::int_result{};
      });
  return registry;
}

/// MIGRATE dispatch surface with the real generated decoders and bounds but
/// no buffering behind it: the fuzz target is the decode path, not the
/// transfer state machine (tests/migrate_test.cpp hammers that one).
class NullMigrateService final
    : public cricket::migrate::proto::MIGRATEVERSService {
 public:
  cricket::migrate::proto::mig_begin_result mig_begin(
      cricket::migrate::proto::mig_begin_args) override {
    return {};
  }
  std::int32_t mig_chunk(cricket::migrate::proto::mig_chunk_args) override {
    return 0;
  }
  std::int32_t mig_commit(cricket::migrate::proto::mig_commit_args) override {
    return 0;
  }
  std::int32_t mig_abort(cricket::xdr::Untrusted<std::uint64_t>) override {
    return 0;
  }
};

cricket::rpc::ServiceRegistry build_migrate_registry(
    NullMigrateService& service) {
  cricket::rpc::ServiceRegistry registry;
  registry.set_bounds(cricket::migrate::proto::bounds::kProcBounds);
  service.register_into(registry);
  return registry;
}

void consume_blob(const cricket::rpc::ServiceRegistry& registry,
                  std::span<const std::uint8_t> buf) {
  namespace mproto = cricket::migrate::proto;
  using namespace cricket::rpc;

  expect_clean_blob([&] { (void)cricket::core::decode_checkpoint(buf); });
  expect_clean_blob([&] { (void)cricket::migrate::decode_image(buf); });

  // Typed decoders over the generated migration messages.
  expect_clean([&] {
    cricket::xdr::Decoder dec(buf);
    mproto::mig_begin_args v;
    xdr_decode(dec, v);
  });
  expect_clean([&] {
    cricket::xdr::Decoder dec(buf);
    mproto::mig_chunk_args v;
    xdr_decode(dec, v);
  });
  expect_clean([&] {
    cricket::xdr::Decoder dec(buf);
    mproto::mig_commit_args v;
    xdr_decode(dec, v);
  });

  // Migration-target receive path: bounds pre-flight, then decode+dispatch,
  // exactly as MigrationTarget::serve runs it.
  expect_clean([&] {
    if (auto rejected = registry.preflight(buf)) {
      ++g_stats.preflight_rejects;
      (void)encode_reply(*rejected);
      return;
    }
    const CallMsg call = decode_call(buf);
    ++g_stats.dispatches;
    (void)encode_reply(registry.dispatch(call));
  });
}

void consume(const cricket::rpc::ServiceRegistry& registry,
             std::span<const std::uint8_t> buf, std::uint64_t interrupt_seed) {
  namespace proto = cricket::proto;
  using namespace cricket::rpc;

  expect_clean([&] { (void)peek_call_header(buf); });
  expect_clean([&] { (void)decode_call(buf); });
  expect_clean([&] { (void)decode_reply(buf); });

  // Server receive path exactly as serve_transport runs it: bounds
  // pre-flight first, full decode + dispatch only for records that pass.
  expect_clean([&] {
    if (auto rejected = registry.preflight(buf)) {
      ++g_stats.preflight_rejects;
      (void)encode_reply(*rejected);
      return;
    }
    const CallMsg call = decode_call(buf);
    ++g_stats.dispatches;
    (void)encode_reply(registry.dispatch(call));
  });

  // Typed decoders over the generated protocol structs.
  expect_clean([&] {
    cricket::xdr::Decoder dec(buf);
    proto::dev_props_result v;
    xdr_decode(dec, v);
  });
  expect_clean([&] {
    cricket::xdr::Decoder dec(buf);
    proto::data_result v;
    xdr_decode(dec, v);
  });
  expect_clean([&] {
    cricket::xdr::Decoder dec(buf);
    std::vector<std::uint32_t> v;
    xdr_decode(dec, v);
    dec.expect_exhausted();
  });
  // Record-marking layer: replay the buffer as an inbound byte stream with
  // exact reads and with read-ahead. A read interrupted by timeouts must
  // take exactly the records an uninterrupted one does.
  for (const std::size_t read_ahead : {std::size_t{0}, std::size_t{64}}) {
    const StreamRead clean = read_stream(buf, read_ahead, 0);
    if (clean.failed) {
      ++g_stats.record_errors;
    } else {
      ++g_stats.parsed;
    }
    if (read_stream(buf, read_ahead, interrupt_seed) != clean)
      throw std::logic_error("a receive timeout changed the records read");
  }

  expect_clean([&] {
    OpaqueAuth auth;
    auth.flavor = AuthFlavor::kSys;
    auth.body.assign(buf.begin(),
                     buf.begin() + static_cast<std::ptrdiff_t>(
                                       std::min<std::size_t>(buf.size(), 400)));
    (void)AuthSysParms::from_opaque(auth);
  });
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t iters = 10000;
  std::uint64_t seed = 0x5EED5EEDull;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--iters" && i + 1 < argc) {
      iters = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seed" && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 0);
    } else {
      std::fprintf(stderr, "usage: fuzz_decode [--iters N] [--seed S]\n");
      return 2;
    }
  }

  {
    // Pin the default record cap before fuzzing: a header advertising the
    // maximum 31-bit fragment length must be rejected from the 4 header
    // bytes alone — no payload read, no allocation.
    const std::uint8_t hostile[4] = {0xFF, 0xFF, 0xFF, 0xFF};
    SpanTransport t(std::span(hostile, 4));
    cricket::rpc::RecordReader reader(t);
    std::vector<std::uint8_t> record;
    bool rejected = false;
    try {
      (void)reader.read_record(record);
    } catch (const cricket::rpc::TransportError&) {
      rejected = true;
    }
    if (!rejected) {
      std::fprintf(stderr,
                   "fuzz_decode: hostile 2 GiB fragment header was NOT "
                   "rejected by the default record cap\n");
      return 1;
    }
  }

  NullMigrateService mig_service;
  const auto mig_registry = build_migrate_registry(mig_service);

  {
    // Pin the hostile chunk-length guards deterministically, before fuzzing.
    //
    // (a) A mig_chunk call whose opaque count word claims 2 GiB - 1 on a
    // 20-byte argument body. The record itself is within the proven
    // [20, 262164] interval, so pre-flight admits it; the xdr array-count
    // guard must then reject it from the count word alone — before the
    // vector allocation — surfacing as the typed GarbageArgsError reply.
    namespace mproto = cricket::migrate::proto;
    cricket::rpc::CallMsg call;
    call.xid = 1;
    call.prog = mproto::MIGRATE_PROG;
    call.vers = mproto::MIGRATEVERS_VERS;
    call.proc = mproto::MIG_CHUNK_PROC;
    {
      cricket::xdr::Encoder enc;
      enc.put_u64(1);           // ticket
      enc.put_u64(0);           // offset
      enc.put_u32(0x7FFFFFFF);  // data<> count with no data behind it
      call.args = enc.take();
    }
    {
      const auto record = cricket::rpc::encode_call(call);
      if (mig_registry.preflight(record)) {
        std::fprintf(stderr,
                     "fuzz_decode: in-bounds mig_chunk record rejected by "
                     "pre-flight\n");
        return 1;
      }
      const auto reply = mig_registry.dispatch(cricket::rpc::decode_call(record));
      if (reply.accept_stat != cricket::rpc::AcceptStat::kGarbageArgs) {
        std::fprintf(stderr,
                     "fuzz_decode: hostile 2 GiB chunk count was NOT "
                     "rejected by the xdr count guard\n");
        return 1;
      }
    }
    // (b) A chunk record carrying more than MIG_MAX_CHUNK actual bytes.
    // Its wire size exceeds the proven maximum, so the bounds pre-flight
    // must refuse it before any argument decoding happens at all.
    {
      cricket::xdr::Encoder enc;
      enc.put_u64(1);
      enc.put_u64(0);
      enc.put_opaque(std::vector<std::uint8_t>(
          static_cast<std::size_t>(mproto::MIG_MAX_CHUNK) + 4, 0x42));
      call.args = enc.take();
      if (!mig_registry.preflight(cricket::rpc::encode_call(call))) {
        std::fprintf(stderr,
                     "fuzz_decode: over-bound mig_chunk record was NOT "
                     "rejected by the bounds pre-flight\n");
        return 1;
      }
    }
    // (c) A future-versioned migration image must surface as the distinct
    // version error (upgrade-ordering signal), never generic corruption.
    {
      auto blob = cricket::migrate::encode_image(sample_image());
      blob[7] = 0x7F;
      bool versioned = false;
      try {
        (void)cricket::migrate::decode_image(blob);
      } catch (const cricket::migrate::MigrationVersionError&) {
        versioned = true;
      } catch (const cricket::migrate::MigrationError&) {
      }
      if (!versioned) {
        std::fprintf(stderr,
                     "fuzz_decode: future-versioned migration image did NOT "
                     "raise MigrationVersionError\n");
        return 1;
      }
    }
  }

  // Stage-3 consumer: a real MigrationTarget (no SessionManager behind it,
  // so nothing a fuzzed commit does can escape the transfer state machine).
  auto node = cricket::cuda::GpuNode::make_a100();
  cricket::core::CricketServer server(*node);
  cricket::migrate::MigrationTarget target(server,
                                           {.max_image_bytes = 1024});
  const auto live =
      target.begin("alice", cricket::xdr::Untrusted<std::uint64_t>(1024));
  if (live.err != cricket::migrate::kMigOk) {
    std::fprintf(stderr, "fuzz_decode: could not open the live ticket\n");
    return 1;
  }

  {
    // Pin the wiretaint exits deterministically before fuzzing.
    //
    // (a) A d2h length of UINT64_MAX dies in the generated default length
    // validator as the typed TaintError — and through a registry dispatch
    // the same hostile value surfaces as the kGarbageArgs reply, the escape
    // path a handler cannot opt out of.
    bool tainted = false;
    try {
      (void)cricket::proto::taint::validate_length(
          cricket::xdr::Untrusted<std::uint64_t>(~0ull), "pin.d2h.len");
    } catch (const cricket::xdr::TaintError&) {
      tainted = true;
    }
    if (!tainted) {
      std::fprintf(stderr,
                   "fuzz_decode: UINT64_MAX d2h length did NOT raise "
                   "TaintError in the default length validator\n");
      return 1;
    }
    cricket::rpc::ServiceRegistry reg;
    reg.register_typed<cricket::proto::u64_result,
                       cricket::xdr::Untrusted<std::uint64_t>>(
        cricket::proto::CRICKET_PROG, cricket::proto::CRICKETVERS_VERS,
        cricket::proto::RPC_MEMCPY_D2H_PROC,
        [](cricket::xdr::Untrusted<std::uint64_t> len) {
          return cricket::proto::u64_result{
              0, cricket::proto::taint::validate_length(len, "pin.d2h.len")};
        });
    cricket::rpc::CallMsg hostile_len;
    hostile_len.xid = 2;
    hostile_len.prog = cricket::proto::CRICKET_PROG;
    hostile_len.vers = cricket::proto::CRICKETVERS_VERS;
    hostile_len.proc = cricket::proto::RPC_MEMCPY_D2H_PROC;
    {
      cricket::xdr::Encoder enc;
      enc.put_u64(~0ull);
      hostile_len.args = enc.take();
    }
    if (reg.dispatch(hostile_len).accept_stat !=
        cricket::rpc::AcceptStat::kGarbageArgs) {
      std::fprintf(stderr,
                   "fuzz_decode: UINT64_MAX d2h length did NOT surface as "
                   "kGarbageArgs through dispatch\n");
      return 1;
    }
    // (b) A mig_chunk offset near UINT64_MAX: refused as out-of-order
    // (saturating taint arithmetic keeps it from masquerading as an
    // acknowledged retransmission), nothing appended, transfer resumable.
    const std::vector<std::uint8_t> sixteen(16, 0x11);
    if (target.chunk(cricket::xdr::Untrusted<std::uint64_t>(live.ticket),
                     cricket::xdr::Untrusted<std::uint64_t>(~0ull - 8),
                     sixteen) != cricket::migrate::kMigOutOfOrder ||
        target.chunk(cricket::xdr::Untrusted<std::uint64_t>(live.ticket),
                     cricket::xdr::Untrusted<std::uint64_t>(0),
                     sixteen) != cricket::migrate::kMigOk) {
      std::fprintf(stderr,
                   "fuzz_decode: near-UINT64_MAX chunk offset was NOT "
                   "refused cleanly\n");
      return 1;
    }
    // (c) Zero and UINT32_MAX launch dimensions both die in the geometry
    // seam as LaunchError — never a crash, never a wrapped extent.
    for (const std::uint32_t dim : {0u, 0xFFFFFFFFu}) {
      bool refused = false;
      try {
        (void)cricket::gpusim::validated_dim3(
            cricket::xdr::Untrusted<std::uint32_t>(dim),
            cricket::xdr::Untrusted<std::uint32_t>(1),
            cricket::xdr::Untrusted<std::uint32_t>(1), "pin.launch");
      } catch (const cricket::gpusim::LaunchError&) {
        refused = true;
      }
      if (!refused) {
        std::fprintf(stderr,
                     "fuzz_decode: hostile launch dim %u was NOT refused "
                     "by the geometry seam\n", dim);
        return 1;
      }
    }
  }

  {
    // Pin the module-ingest guards deterministically before fuzzing.
    //
    // (a) The ratio bomb must die at the output cap: a ~3 KB stream
    // implying ~131 KB of output is refused with peak allocation bounded
    // by the cap (4 KiB here), not by what the stream implies.
    const auto bomb = ratio_bomb(1000);
    bool capped = false;
    try {
      (void)cricket::fatbin::lz_decompress(bomb, 4096);
    } catch (const cricket::fatbin::LzError&) {
      capped = true;
    }
    if (!capped) {
      std::fprintf(stderr,
                   "fuzz_decode: LZ ratio bomb was NOT stopped at the "
                   "output cap\n");
      return 1;
    }
    try {
      (void)cricket::fatbin::extract_metadata(bomb, 75, 4096);
      capped = false;
    } catch (const cricket::fatbin::LzError&) {
    } catch (const cricket::fatbin::CubinError&) {
    }
    if (!capped) {
      std::fprintf(stderr,
                   "fuzz_decode: ratio bomb was NOT refused through "
                   "extract_metadata\n");
      return 1;
    }
    // (b) A fatbin whose uncompressed_len is forged beyond what any valid
    // token stream could produce (payload * kMaxExpansion) must be refused
    // at parse time — the declared length never authorizes an allocation.
    cricket::fatbin::Fatbin fb;
    fb.add_raw(75, cubin_serialize(sample_cubin()), /*compress=*/true);
    auto forged = fb.serialize();
    const std::uint64_t implausible =
        fb.entries()[0].payload.size() * cricket::fatbin::kMaxExpansion + 1;
    // uncompressed_len sits after the 12-byte container header and the
    // entry's sm_arch + flags words, little-endian.
    for (std::size_t i = 0; i < 8; ++i)
      forged[20 + i] = static_cast<std::uint8_t>(implausible >> (8 * i));
    bool refused = false;
    try {
      (void)cricket::fatbin::Fatbin::parse(forged);
    } catch (const cricket::fatbin::CubinError&) {
      refused = true;
    }
    if (!refused) {
      std::fprintf(stderr,
                   "fuzz_decode: forged fatbin uncompressed_len was NOT "
                   "refused at parse\n");
      return 1;
    }
  }

  const auto corpus = build_corpus();
  const auto registry = build_registry();
  const auto blob_corpus = build_blob_corpus();
  const auto taint_corpus = build_taint_corpus(live.ticket);
  const auto module_corpus = build_module_corpus();
  Xoshiro256ss rng(seed);

  std::uint64_t it = 0;
  const std::uint64_t total = 4 * iters;
  try {
    for (; it < total; ++it) {
      // Stage 1: the RPC decode surface. Stage 2: checkpoint blobs,
      // migration images, and MIGRATE transfer messages. Stage 3:
      // field-targeted mutation of the Untrusted<>-wrapped scalars.
      // Stage 4: the module-ingest surface (cubin/fatbin/LZ).
      if (it >= 3 * iters) {
        std::vector<std::uint8_t> buf =
            module_corpus[rng.next() % module_corpus.size()];
        const std::uint64_t rounds = 1 + rng.next() % 3;
        for (std::uint64_t m = 0; m < rounds; ++m) mutate(rng, buf);
        consume_module(buf);
        continue;
      }
      if (it >= 2 * iters) {
        TaintEntry entry = taint_corpus[rng.next() % taint_corpus.size()];
        const std::uint64_t raw = mutate_taint_field(rng, entry);
        consume_taint(target, entry);
        probe_scalar_seams(raw);
        continue;
      }
      const bool blob_stage = it >= iters;
      const auto& pool = blob_stage ? blob_corpus : corpus;
      std::vector<std::uint8_t> buf = pool[rng.next() % pool.size()];
      const std::uint64_t rounds = 1 + rng.next() % 3;
      for (std::uint64_t m = 0; m < rounds; ++m) mutate(rng, buf);
      if (blob_stage) {
        consume_blob(mig_registry, buf);
      } else {
        consume(registry, buf, (seed ^ (it * 0x9E3779B97F4A7C15ull)) | 1);
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr,
                 "fuzz_decode: UNEXPECTED %s at iteration %llu "
                 "(reproduce: fuzz_decode --seed 0x%llx --iters %llu)\n",
                 e.what(), static_cast<unsigned long long>(it),
                 static_cast<unsigned long long>(seed),
                 static_cast<unsigned long long>(iters));
    return 1;
  }

  std::printf(
      "fuzz_decode: %llu iterations clean (parsed %llu, xdr errors %llu, "
      "format errors %llu, preflight rejects %llu, dispatches %llu, "
      "record errors %llu, blob errors %llu, version errors %llu, "
      "taint probes %llu, module errors %llu)\n",
      static_cast<unsigned long long>(total),
      static_cast<unsigned long long>(g_stats.parsed),
      static_cast<unsigned long long>(g_stats.xdr_errors),
      static_cast<unsigned long long>(g_stats.format_errors),
      static_cast<unsigned long long>(g_stats.preflight_rejects),
      static_cast<unsigned long long>(g_stats.dispatches),
      static_cast<unsigned long long>(g_stats.record_errors),
      static_cast<unsigned long long>(g_stats.blob_errors),
      static_cast<unsigned long long>(g_stats.version_errors),
      static_cast<unsigned long long>(g_stats.taint_probes),
      static_cast<unsigned long long>(g_stats.module_errors));
  return 0;
}
