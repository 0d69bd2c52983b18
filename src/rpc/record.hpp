// RFC 5531 §11 record marking.
//
// ONC RPC over a byte stream delimits messages as a sequence of fragments,
// each preceded by a 4-byte header: MSB = "last fragment" flag, low 31 bits =
// fragment length. The paper explicitly rejects the existing Rust `onc_rpc`
// crate for *lacking fragmented-message support*, since Cricket ships
// GPU-memory payloads as RPC arguments; this implementation supports
// arbitrary-size records split across fragments in both directions.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "rpc/transport.hpp"

namespace cricket::rpc {

/// Writes one record (possibly as several fragments) per call.
/// `max_fragment` bounds each fragment's payload; libtirpc uses large
/// fragments, but tests shrink this to force multi-fragment paths.
class RecordWriter {
 public:
  explicit RecordWriter(Transport& transport,
                        std::uint32_t max_fragment = kDefaultMaxFragment)
      : transport_(&transport),
        // 0 can only be a misconfiguration; honouring it literally would
        // emit empty non-last fragments forever.
        max_fragment_(max_fragment == 0 ? kDefaultMaxFragment : max_fragment) {
  }

  void write_record(std::span<const std::uint8_t> record);

  static constexpr std::uint32_t kDefaultMaxFragment = 1u << 20;  // 1 MiB

 private:
  Transport* transport_;
  std::uint32_t max_fragment_;
};

/// Appends one record-marked message (header + fragments) to `out` without
/// touching any transport. The pipelined paths use this to coalesce several
/// back-to-back records into a single transport send, amortizing per-send
/// costs (syscall / virtqueue kick / wire latency) across all of them.
void append_record_marked(std::vector<std::uint8_t>& out,
                          std::span<const std::uint8_t> record,
                          std::uint32_t max_fragment =
                              RecordWriter::kDefaultMaxFragment);

/// Reads one complete record (reassembling fragments) per call.
///
/// `read_ahead` 0 issues exact reads: the first header, the rest of it, then
/// each fragment body straight into the record. A nonzero `read_ahead` pulls
/// up to that many bytes per recv into an internal buffer instead, so one
/// recv covers many small back-to-back records (pipelined calls, coalesced
/// replies); fragment bodies at least that large still go straight into the
/// record.
///
/// A TransportTimeout out of read_record() keeps the part of the record
/// already read: the next read_record() resumes where it stopped.
class RecordReader {
 public:
  explicit RecordReader(Transport& transport,
                        std::size_t max_record = kDefaultMaxRecord,
                        std::size_t read_ahead = 0)
      : transport_(&transport), max_record_(max_record),
        read_ahead_(read_ahead) {}

  /// Returns false on clean end-of-stream before any fragment; throws
  /// TransportError on mid-record EOF or an over-size record.
  [[nodiscard]] bool read_record(std::vector<std::uint8_t>& out);

  /// True when the read-ahead buffer already holds a whole record, so the
  /// next read_record() returns without touching the transport. Always
  /// false at read-ahead 0 and while a record is partly read.
  [[nodiscard]] bool has_record() const noexcept;

  /// Largest legitimate record: the CRICKET_MAX_PAYLOAD opaque bound
  /// (1 GiB, mirrored by rpclgen's kProcBudget) plus a 64 KiB envelope for
  /// the RPC header, auth blobs, and sibling fields. A peer claiming more
  /// is hostile or corrupted, and the cap stops fragment accumulation long
  /// before the bounds preflight would see the completed record.
  static constexpr std::size_t kDefaultMaxRecord =
      (std::size_t{1} << 30) + (std::size_t{64} << 10);

  /// The read-ahead the pipelined paths use.
  static constexpr std::size_t kPipelinedReadAhead = 64 * 1024;

 private:
  /// Fills `dst` from its `done`-th byte on, from the buffer, then the
  /// transport, counting each byte in `done` as it lands. Returns false when
  /// the stream ends before the first byte and `eof_ok`; throws on any
  /// other EOF.
  [[nodiscard]] bool take(std::span<std::uint8_t> dst, std::size_t& done,
                          bool eof_ok);

  Transport* transport_;
  std::size_t max_record_;
  std::size_t read_ahead_;
  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;  // consumed prefix of buf_
  // The record being read: its fragments so far (record_.size() includes
  // the whole current fragment), the bytes of them that have arrived, and
  // the next fragment header.
  std::vector<std::uint8_t> record_;
  std::size_t filled_ = 0;
  std::uint8_t header_[4] = {};
  std::size_t header_got_ = 0;
  bool last_ = false;     // the current fragment ends the record
  bool started_ = false;  // a header of this record was parsed
};

}  // namespace cricket::rpc
