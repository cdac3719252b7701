#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

namespace scalemd {
namespace wire {

/// Frame types of the process-backend wire protocol (parent <-> worker) and
/// the on-disk checkpoint container. Values are part of the wire format.
enum class FrameType : std::uint32_t {
  kTask = 1,        ///< serialized TaskMsg routed between workers
  kIdle = 2,        ///< worker -> parent: drained; payload = frames received
  kPing = 3,        ///< parent -> worker heartbeat probe
  kPong = 4,        ///< worker -> parent heartbeat reply
  kFlush = 5,       ///< parent -> worker: serialize and report state
  kState = 6,       ///< worker -> parent: end-of-run state blob
  kExit = 7,        ///< parent -> worker: terminate cleanly
  kCheckpoint = 8,  ///< on-disk coordinated checkpoint blob
};

/// Named decode outcomes. Every malformed input maps to one of these —
/// never UB, never an unbounded allocation (the 2000-iter mutation fuzz in
/// tests/test_wire.cpp holds the layer to that).
enum class WireError {
  kOk = 0,
  kTruncated,    ///< fewer bytes than the header/payload/checksum need
  kBadMagic,     ///< leading magic mismatch (stream out of sync)
  kBadVersion,   ///< unknown major version
  kBadType,      ///< frame type outside the known range
  kOversized,    ///< declared payload length above kMaxPayload
  kBadChecksum,  ///< payload checksum mismatch (corruption)
  kMalformed,    ///< payload structure inconsistent with its own counts
  kIo,           ///< read/write syscall failed (not EINTR/EAGAIN)
};

const char* wire_error_name(WireError e);

inline constexpr std::uint32_t kMagic = 0x57444D53u;  // "SMDW" little-endian
inline constexpr std::uint16_t kVersionMajor = 1;
inline constexpr std::uint16_t kVersionMinor = 0;
/// Header: magic u32, major u16, minor u16, type u32, payload length u64.
inline constexpr std::size_t kHeaderSize = 4 + 2 + 2 + 4 + 8;
/// Trailer: FNV-1a-64 checksum over the payload bytes.
inline constexpr std::size_t kTrailerSize = 8;
/// Hard cap on a declared payload length: a corrupt length field must not
/// turn into a multi-gigabyte allocation.
inline constexpr std::uint64_t kMaxPayload = 1ull << 30;

std::uint64_t fnv1a64(const std::uint8_t* data, std::size_t len);

/// Builds a complete frame (header + payload + checksum).
std::vector<std::uint8_t> encode_frame(FrameType type,
                                       const std::vector<std::uint8_t>& payload);

/// Decodes one frame from data[0..len). On kOk, fills type/payload and sets
/// `consumed` to the frame's total size. kTruncated means the prefix is
/// consistent but incomplete (feed more bytes); everything else is a hard
/// protocol error.
WireError decode_frame(const std::uint8_t* data, std::size_t len,
                       FrameType& type, std::vector<std::uint8_t>& payload,
                       std::size_t& consumed);

/// Incremental frame extraction over a byte stream (the parent's
/// non-blocking sockets deliver arbitrary chunks).
class FrameReader {
 public:
  void feed(const std::uint8_t* data, std::size_t n);
  /// kOk: one frame extracted into type/payload. kTruncated: need more
  /// bytes (not an error on a live stream). Anything else: the stream is
  /// corrupt and cannot be resynchronized.
  WireError next(FrameType& type, std::vector<std::uint8_t>& payload);

 private:
  std::vector<std::uint8_t> buf_;
  std::size_t off_ = 0;
};

// --- payload encoding ------------------------------------------------------

/// Append-only little-endian payload builder. Doubles cross the wire as raw
/// IEEE-754 bits, so trajectories stay bitwise identical across the process
/// boundary.
class Encoder {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v);
  void blob(const std::vector<std::uint8_t>& b);

  const std::vector<std::uint8_t>& bytes() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked payload reader: every accessor fails (and latches the
/// error) instead of reading past the end, and element counts are validated
/// against the bytes actually remaining before any allocation.
class Decoder {
 public:
  Decoder(const std::uint8_t* data, std::size_t len) : data_(data), len_(len) {}
  explicit Decoder(const std::vector<std::uint8_t>& b)
      : Decoder(b.data(), b.size()) {}

  bool u8(std::uint8_t& v);
  bool u32(std::uint32_t& v);
  bool u64(std::uint64_t& v);
  bool i64(std::int64_t& v);
  bool f64(double& v);
  bool blob(std::vector<std::uint8_t>& b);
  /// Reads an element count and validates count * elem_size against the
  /// remaining bytes, so a corrupt count cannot drive a huge resize.
  bool count(std::uint64_t& n, std::size_t elem_size);

  bool ok() const { return ok_; }
  /// True when the payload was consumed exactly (trailing garbage is a
  /// malformed payload, not a success).
  bool done() const { return ok_ && pos_ == len_; }
  std::size_t remaining() const { return len_ - pos_; }
  /// Latches a failure found above the byte level (a value out of range).
  void fail() { ok_ = false; }

 private:
  bool take(void* out, std::size_t n);

  const std::uint8_t* data_;
  std::size_t len_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// --- field-list codec ------------------------------------------------------
//
// Every record that crosses a process or disk boundary has exactly one field
// list, which Writer runs forwards and Reader runs backwards, so a record's
// encoding and decoding cannot disagree (Charm++'s PUP routine). A record
// opts in with a member
//     template <class Ar> void fields(Ar& ar) { ar(a, b, c); }
// or with a free `fields(Ar&, T&)` found by argument-dependent lookup.
//
// Values: bool (1 byte), integers and enums (8 bytes; the Reader rejects a
// value its target type cannot hold), double (raw IEEE-754 bits), pairs,
// fixed arrays (no count), byte vectors (count + bulk bytes) and vectors of
// anything else (count + elements).

namespace detail {

template <class T>
inline constexpr bool is_vector = false;
template <class T, class A>
inline constexpr bool is_vector<std::vector<T, A>> = true;
template <class T>
inline constexpr bool is_pair = false;
template <class A, class B>
inline constexpr bool is_pair<std::pair<A, B>> = true;
template <class T>
inline constexpr bool is_array = std::is_array_v<T>;
template <class T, std::size_t N>
inline constexpr bool is_array<std::array<T, N>> = true;

template <class Ar, class T>
void run_fields(Ar& ar, T& v) {
  if constexpr (requires { v.fields(ar); }) {
    v.fields(ar);
  } else {
    fields(ar, v);
  }
}

}  // namespace detail

class Writer {
 public:
  template <class... T>
  void operator()(const T&... v) {
    (put(v), ...);
  }
  const std::vector<std::uint8_t>& bytes() const { return e_.bytes(); }
  std::vector<std::uint8_t> take() { return e_.take(); }

 private:
  template <class T>
  void put(const T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      e_.u8(v ? 1 : 0);
    } else if constexpr (std::is_enum_v<T>) {
      put(static_cast<std::underlying_type_t<T>>(v));
    } else if constexpr (std::is_integral_v<T> && std::is_signed_v<T>) {
      e_.i64(v);
    } else if constexpr (std::is_integral_v<T>) {
      e_.u64(v);
    } else if constexpr (std::is_same_v<T, double>) {
      e_.f64(v);
    } else if constexpr (detail::is_array<T>) {
      for (const auto& x : v) put(x);
    } else if constexpr (detail::is_pair<T>) {
      put(v.first);
      put(v.second);
    } else if constexpr (std::is_same_v<T, std::vector<std::uint8_t>>) {
      e_.blob(v);
    } else if constexpr (detail::is_vector<T>) {
      e_.u64(v.size());
      for (const auto& x : v) put(x);
    } else {
      // Field lists are written once for both directions, so they take a
      // mutable record; writing only reads it.
      detail::run_fields(*this, const_cast<T&>(v));
    }
  }

  Encoder e_;
};

/// Bytes a default-constructed T encodes to (at least 1): the least any T
/// can take on the wire, so a vector count is checked against the bytes left
/// before the vector is sized.
template <class T>
std::size_t min_encoded_size() {
  static const std::size_t n = [] {
    Writer w;
    w(T{});
    return std::max<std::size_t>(1, w.bytes().size());
  }();
  return n;
}

/// Runs a field list backwards over a payload. The first failure (short
/// payload, count larger than the bytes left, value out of range) latches,
/// every later read is skipped, and the caller checks done() once.
class Reader {
 public:
  explicit Reader(const std::vector<std::uint8_t>& b) : d_(b) {}

  template <class... T>
  void operator()(T&... v) {
    (get(v), ...);
  }
  bool ok() const { return d_.ok(); }
  /// ok() and the payload consumed exactly.
  bool done() const { return d_.done(); }

 private:
  template <class T>
  void get(T& v) {
    if (!d_.ok()) return;
    if constexpr (std::is_same_v<T, bool>) {
      std::uint8_t b = 0;
      if (d_.u8(b) && b > 1) d_.fail();
      v = b != 0;
    } else if constexpr (std::is_enum_v<T>) {
      std::underlying_type_t<T> u{};
      get(u);
      v = static_cast<T>(u);
    } else if constexpr (std::is_integral_v<T> && std::is_signed_v<T>) {
      std::int64_t x = 0;
      if (d_.i64(x) && !std::in_range<T>(x)) d_.fail();
      v = static_cast<T>(x);
    } else if constexpr (std::is_integral_v<T>) {
      std::uint64_t x = 0;
      if (d_.u64(x) && !std::in_range<T>(x)) d_.fail();
      v = static_cast<T>(x);
    } else if constexpr (std::is_same_v<T, double>) {
      d_.f64(v);
    } else if constexpr (detail::is_array<T>) {
      for (auto& x : v) get(x);
    } else if constexpr (detail::is_pair<T>) {
      get(v.first);
      get(v.second);
    } else if constexpr (std::is_same_v<T, std::vector<std::uint8_t>>) {
      d_.blob(v);
    } else if constexpr (detail::is_vector<T>) {
      std::uint64_t n = 0;
      if (!d_.count(n, min_encoded_size<typename T::value_type>())) return;
      v.assign(static_cast<std::size_t>(n), typename T::value_type{});
      for (auto& x : v) get(x);
    } else {
      detail::run_fields(*this, v);
    }
  }

  Decoder d_;
};

/// One record's encoded bytes.
template <class T>
std::vector<std::uint8_t> encode(const T& record) {
  Writer w;
  w(record);
  return w.take();
}

/// Decodes `bytes` into `record`; true only when the bytes were exactly one
/// valid record. On false, `record` may be partly written.
template <class T>
bool decode(const std::vector<std::uint8_t>& bytes, T& record) {
  Reader r(bytes);
  r(record);
  return r.done();
}

// --- fd I/O ----------------------------------------------------------------

/// Writes all of buf, retrying on EINTR and waiting out EAGAIN; uses
/// MSG_NOSIGNAL on sockets (plain write on files) so a dead peer yields
/// EPIPE instead of SIGPIPE. False on any hard error.
bool write_all(int fd, const std::uint8_t* buf, std::size_t n);
inline bool write_all(int fd, const std::vector<std::uint8_t>& b) {
  return write_all(fd, b.data(), b.size());
}

/// Reads exactly n bytes, retrying on EINTR and blocking through EAGAIN.
/// False on EOF or hard error.
bool read_exact(int fd, std::uint8_t* buf, std::size_t n);

/// Writes one framed payload to fd / reads one back (checkpoint files and
/// the blocking worker side of the socketpair).
bool write_frame(int fd, FrameType type, const std::vector<std::uint8_t>& payload);
WireError read_frame(int fd, FrameType& type, std::vector<std::uint8_t>& payload);

}  // namespace wire
}  // namespace scalemd
