// Wire-layer tests: round-trip properties over randomized payloads,
// truncation at every prefix, a byte-flip mutation fuzz (named errors,
// never UB — run under ASan/UBSan in CI), version skew, the
// bounds-checked payload Decoder, and the field-list Writer/Reader codec.
#include <gtest/gtest.h>
#include <unistd.h>

#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <utility>
#include <vector>

#include "rts/wire.hpp"
#include "util/vec3.hpp"

namespace scalemd {
namespace {

using wire::Decoder;
using wire::Encoder;
using wire::FrameReader;
using wire::FrameType;
using wire::WireError;

std::vector<std::uint8_t> random_payload(std::mt19937_64& rng,
                                         std::size_t max_len) {
  std::uniform_int_distribution<std::size_t> len_dist(0, max_len);
  std::uniform_int_distribution<int> byte_dist(0, 255);
  std::vector<std::uint8_t> p(len_dist(rng));
  for (auto& b : p) b = static_cast<std::uint8_t>(byte_dist(rng));
  return p;
}

TEST(Wire, FrameRoundTripRandomPayloads) {
  std::mt19937_64 rng(0xC0FFEEull);
  const FrameType kinds[] = {FrameType::kTask, FrameType::kIdle,
                             FrameType::kPing, FrameType::kPong,
                             FrameType::kFlush, FrameType::kState,
                             FrameType::kExit, FrameType::kCheckpoint};
  for (int it = 0; it < 200; ++it) {
    const FrameType want_type = kinds[it % 8];
    const std::vector<std::uint8_t> want = random_payload(rng, 4096);
    const std::vector<std::uint8_t> frame = wire::encode_frame(want_type, want);
    ASSERT_EQ(frame.size(), wire::kHeaderSize + want.size() + wire::kTrailerSize);

    FrameType type{};
    std::vector<std::uint8_t> got;
    std::size_t consumed = 0;
    ASSERT_EQ(wire::decode_frame(frame.data(), frame.size(), type, got, consumed),
              WireError::kOk);
    EXPECT_EQ(type, want_type);
    EXPECT_EQ(got, want);
    EXPECT_EQ(consumed, frame.size());
  }
}

TEST(Wire, EveryTruncationPrefixIsNamedNotUB) {
  std::mt19937_64 rng(7u);
  const std::vector<std::uint8_t> payload = random_payload(rng, 96);
  const std::vector<std::uint8_t> frame =
      wire::encode_frame(FrameType::kTask, payload);
  for (std::size_t n = 0; n < frame.size(); ++n) {
    FrameType type{};
    std::vector<std::uint8_t> got;
    std::size_t consumed = 0;
    const WireError e = wire::decode_frame(frame.data(), n, type, got, consumed);
    // A strict prefix of a valid frame is always "feed me more", never a
    // hard error and never a bogus success.
    EXPECT_EQ(e, WireError::kTruncated) << "prefix length " << n;
  }
}

TEST(Wire, MutationFuzzYieldsNamedErrorsOnly) {
  std::mt19937_64 rng(0xFEEDFACEull);
  std::uniform_int_distribution<int> byte_dist(0, 255);
  for (int it = 0; it < 2000; ++it) {
    std::vector<std::uint8_t> frame =
        wire::encode_frame(FrameType::kState, random_payload(rng, 256));
    // Mutate: flip 1-4 bytes and/or truncate.
    std::uniform_int_distribution<std::size_t> pos_dist(0, frame.size() - 1);
    const int flips = 1 + static_cast<int>(rng() % 4);
    for (int f = 0; f < flips; ++f) {
      frame[pos_dist(rng)] = static_cast<std::uint8_t>(byte_dist(rng));
    }
    std::size_t len = frame.size();
    if (rng() % 3 == 0) len = rng() % (frame.size() + 1);

    FrameType type{};
    std::vector<std::uint8_t> got;
    std::size_t consumed = 0;
    const WireError e = wire::decode_frame(frame.data(), len, type, got, consumed);
    // Whatever the mutation did, the decoder must return a member of the
    // WireError enum (ASan/UBSan in CI catch anything worse). kOk is legal
    // only when the mutation happened to keep the frame self-consistent.
    switch (e) {
      case WireError::kOk:
        EXPECT_LE(consumed, len);
        break;
      case WireError::kTruncated:
      case WireError::kBadMagic:
      case WireError::kBadVersion:
      case WireError::kBadType:
      case WireError::kOversized:
      case WireError::kBadChecksum:
      case WireError::kMalformed:
        break;
      default:
        FAIL() << "unexpected wire error code " << static_cast<int>(e);
    }
    // Every error has a printable name.
    EXPECT_NE(wire::wire_error_name(e), nullptr);
  }
}

TEST(Wire, ChecksumCorruptionDetected) {
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<std::uint8_t> frame = wire::encode_frame(FrameType::kTask, payload);
  frame[wire::kHeaderSize + 3] ^= 0x40;  // flip a payload bit
  FrameType type{};
  std::vector<std::uint8_t> got;
  std::size_t consumed = 0;
  EXPECT_EQ(wire::decode_frame(frame.data(), frame.size(), type, got, consumed),
            WireError::kBadChecksum);
}

TEST(Wire, VersionSkewRejected) {
  std::vector<std::uint8_t> frame =
      wire::encode_frame(FrameType::kPing, {0xAB});
  // Major version lives at offset 4 (after the u32 magic), little-endian.
  const std::uint16_t future = wire::kVersionMajor + 1;
  std::memcpy(frame.data() + 4, &future, sizeof(future));
  FrameType type{};
  std::vector<std::uint8_t> got;
  std::size_t consumed = 0;
  EXPECT_EQ(wire::decode_frame(frame.data(), frame.size(), type, got, consumed),
            WireError::kBadVersion);
}

TEST(Wire, BadMagicAndBadTypeAndOversized) {
  std::vector<std::uint8_t> frame = wire::encode_frame(FrameType::kPing, {});
  FrameType type{};
  std::vector<std::uint8_t> got;
  std::size_t consumed = 0;

  std::vector<std::uint8_t> bad = frame;
  bad[0] ^= 0xFF;
  EXPECT_EQ(wire::decode_frame(bad.data(), bad.size(), type, got, consumed),
            WireError::kBadMagic);

  bad = frame;
  const std::uint32_t bogus_type = 0xDEADu;
  std::memcpy(bad.data() + 8, &bogus_type, sizeof(bogus_type));
  EXPECT_EQ(wire::decode_frame(bad.data(), bad.size(), type, got, consumed),
            WireError::kBadType);

  bad = frame;
  const std::uint64_t huge = wire::kMaxPayload + 1;
  std::memcpy(bad.data() + 12, &huge, sizeof(huge));
  EXPECT_EQ(wire::decode_frame(bad.data(), bad.size(), type, got, consumed),
            WireError::kOversized);
}

TEST(Wire, FrameReaderReassemblesChunkedStream) {
  std::mt19937_64 rng(42u);
  // Three frames concatenated, fed one byte at a time.
  std::vector<std::vector<std::uint8_t>> payloads = {
      random_payload(rng, 64), {}, random_payload(rng, 200)};
  const FrameType types[] = {FrameType::kTask, FrameType::kIdle,
                             FrameType::kState};
  std::vector<std::uint8_t> stream;
  for (int i = 0; i < 3; ++i) {
    const auto f = wire::encode_frame(types[i], payloads[static_cast<std::size_t>(i)]);
    stream.insert(stream.end(), f.begin(), f.end());
  }

  FrameReader reader;
  std::size_t decoded = 0;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    reader.feed(&stream[i], 1);
    FrameType type{};
    std::vector<std::uint8_t> payload;
    WireError e;
    while ((e = reader.next(type, payload)) == WireError::kOk) {
      ASSERT_LT(decoded, 3u);
      EXPECT_EQ(type, types[decoded]);
      EXPECT_EQ(payload, payloads[decoded]);
      ++decoded;
    }
    EXPECT_EQ(e, WireError::kTruncated);
  }
  EXPECT_EQ(decoded, 3u);
}

TEST(Wire, EncoderDecoderRoundTripWithNaNBits) {
  Encoder e;
  e.u8(0x7F);
  e.u32(0xDEADBEEFu);
  e.u64(~0ull);
  e.i64(-1234567890123456789ll);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  e.f64(nan);
  e.f64(inf);
  e.f64(-0.0);
  e.f64(3.141592653589793);
  e.blob({9, 8, 7});

  Decoder d(e.bytes());
  std::uint8_t a;
  std::uint32_t b;
  std::uint64_t c;
  std::int64_t i;
  double f1, f2, f3, f4;
  std::vector<std::uint8_t> blob;
  ASSERT_TRUE(d.u8(a));
  ASSERT_TRUE(d.u32(b));
  ASSERT_TRUE(d.u64(c));
  ASSERT_TRUE(d.i64(i));
  ASSERT_TRUE(d.f64(f1));
  ASSERT_TRUE(d.f64(f2));
  ASSERT_TRUE(d.f64(f3));
  ASSERT_TRUE(d.f64(f4));
  ASSERT_TRUE(d.blob(blob));
  EXPECT_TRUE(d.done());

  EXPECT_EQ(a, 0x7F);
  EXPECT_EQ(b, 0xDEADBEEFu);
  EXPECT_EQ(c, ~0ull);
  EXPECT_EQ(i, -1234567890123456789ll);
  // Doubles travel as raw bits: NaN payload and the sign of zero survive.
  std::uint64_t nan_bits_in, nan_bits_out;
  std::memcpy(&nan_bits_in, &nan, 8);
  std::memcpy(&nan_bits_out, &f1, 8);
  EXPECT_EQ(nan_bits_in, nan_bits_out);
  EXPECT_EQ(f2, inf);
  EXPECT_TRUE(std::signbit(f3));
  EXPECT_EQ(f4, 3.141592653589793);
  EXPECT_EQ(blob, (std::vector<std::uint8_t>{9, 8, 7}));
}

TEST(Wire, DecoderRefusesOverrunAndLatches) {
  Encoder e;
  e.u32(5);
  Decoder d(e.bytes());
  std::uint64_t v;
  EXPECT_FALSE(d.u64(v));  // only 4 bytes available
  EXPECT_FALSE(d.ok());
  // Latched: further reads keep failing even if bytes would fit.
  std::uint32_t w;
  EXPECT_FALSE(d.u32(w));
  EXPECT_FALSE(d.done());
}

TEST(Wire, DecoderCountRejectsCorruptLengths) {
  // A count field claiming billions of elements against a tiny payload must
  // fail before any allocation happens.
  Encoder e;
  e.u64(1ull << 40);  // absurd element count
  e.f64(1.0);
  Decoder d(e.bytes());
  std::uint64_t n;
  EXPECT_FALSE(d.count(n, sizeof(double)));
  EXPECT_FALSE(d.ok());

  // A consistent count passes.
  Encoder e2;
  e2.u64(3);
  e2.f64(1.0);
  e2.f64(2.0);
  e2.f64(3.0);
  Decoder d2(e2.bytes());
  ASSERT_TRUE(d2.count(n, sizeof(double)));
  EXPECT_EQ(n, 3u);
  double x;
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(d2.f64(x));
  EXPECT_TRUE(d2.done());
}

TEST(Wire, TrailingGarbageIsNotDone) {
  Encoder e;
  e.u32(1);
  e.u8(0xCC);  // extra byte a strict decoder must notice
  Decoder d(e.bytes());
  std::uint32_t v;
  ASSERT_TRUE(d.u32(v));
  EXPECT_TRUE(d.ok());
  EXPECT_FALSE(d.done());
  EXPECT_EQ(d.remaining(), 1u);
}

TEST(Wire, FdRoundTripThroughPipe) {
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  std::mt19937_64 rng(11u);
  const std::vector<std::uint8_t> payload = random_payload(rng, 512);
  ASSERT_TRUE(wire::write_frame(fds[1], FrameType::kCheckpoint, payload));
  FrameType type{};
  std::vector<std::uint8_t> got;
  EXPECT_EQ(wire::read_frame(fds[0], type, got), WireError::kOk);
  EXPECT_EQ(type, FrameType::kCheckpoint);
  EXPECT_EQ(got, payload);
  close(fds[0]);
  close(fds[1]);
}


// --- field-list codec ------------------------------------------------------

enum class Color : std::uint8_t { kRed = 1, kBlue = 7 };

/// A record with a member field list covering every value kind the codec
/// knows, nested vectors and a nested record (Vec3, free field list).
struct Sample {
  bool flag = false;
  int small = 0;
  std::int64_t wide = 0;
  std::uint64_t big = 0;
  Color color = Color::kRed;
  double nan = 0.0, neg_zero = 0.0;
  std::pair<int, double> pair{};
  std::array<std::int64_t, 3> arr{};
  std::uint64_t c_arr[2] = {0, 0};
  std::vector<std::uint8_t> bytes;
  std::vector<std::vector<int>> nested;
  std::vector<std::pair<int, std::vector<double>>> rows;
  std::vector<Vec3> points;

  template <class Ar>
  void fields(Ar& ar) {
    ar(flag, small, wide, big, color, nan, neg_zero, pair, arr, c_arr, bytes, nested,
       rows, points);
  }
};

Sample filled_sample() {
  Sample s;
  s.flag = true;
  s.small = -42;
  s.wide = std::numeric_limits<std::int64_t>::min();
  s.big = ~0ull;
  s.color = Color::kBlue;
  s.nan = std::numeric_limits<double>::quiet_NaN();
  s.neg_zero = -0.0;
  s.pair = {-3, 2.5};
  s.arr = {1, -2, 3};
  s.c_arr[0] = 0xDEADBEEFull;
  s.c_arr[1] = 5;
  s.bytes = {0, 255, 7};
  s.nested = {{}, {1, 2, 3}, {-4}};
  s.rows = {{0, {1.0, 2.0}}, {9, {}}};
  s.points = {{1.0, -2.0, 3.5}, {0.0, 1e-300, -1e300}};
  return s;
}

std::uint64_t bits(double x) {
  std::uint64_t b;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

TEST(WireCodec, WriterReaderRoundTripEveryValueKind) {
  const Sample want = filled_sample();
  const std::vector<std::uint8_t> bytes = wire::encode(want);
  Sample got;
  ASSERT_TRUE(wire::decode(bytes, got));
  EXPECT_EQ(got.flag, want.flag);
  EXPECT_EQ(got.small, want.small);
  EXPECT_EQ(got.wide, want.wide);
  EXPECT_EQ(got.big, want.big);
  EXPECT_EQ(got.color, want.color);
  // Doubles travel as raw bits: the NaN payload and the sign of zero survive.
  EXPECT_EQ(bits(got.nan), bits(want.nan));
  EXPECT_EQ(bits(got.neg_zero), bits(want.neg_zero));
  EXPECT_EQ(got.pair, want.pair);
  EXPECT_EQ(got.arr, want.arr);
  EXPECT_EQ(got.c_arr[0], want.c_arr[0]);
  EXPECT_EQ(got.c_arr[1], want.c_arr[1]);
  EXPECT_EQ(got.bytes, want.bytes);
  EXPECT_EQ(got.nested, want.nested);
  EXPECT_EQ(got.rows, want.rows);
  EXPECT_EQ(got.points, want.points);
  // Encoding is a pure function of the record.
  EXPECT_EQ(wire::encode(got), bytes);
}

TEST(WireCodec, EveryTruncationPrefixFailsDone) {
  const std::vector<std::uint8_t> bytes = wire::encode(filled_sample());
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    const std::vector<std::uint8_t> prefix(bytes.begin(),
                                           bytes.begin() + static_cast<std::ptrdiff_t>(n));
    Sample got;
    EXPECT_FALSE(wire::decode(prefix, got)) << "prefix of " << n << " bytes";
  }
  // One extra byte is trailing garbage, not a record.
  std::vector<std::uint8_t> longer = bytes;
  longer.push_back(0);
  Sample got;
  EXPECT_FALSE(wire::decode(longer, got));
}

TEST(WireCodec, CorruptCountFailsBeforeAnyAllocation) {
  // Counts beyond the bytes left: absurd, and merely too large for the
  // elements' smallest encoding (a Vec3 takes 24 bytes, so 3 bytes per
  // claimed element is not enough).
  for (const std::uint64_t count : {1ull << 60, 2ull}) {
    Encoder e;
    e.u64(count);
    for (int i = 0; i < 6; ++i) e.u8(0);
    std::vector<Vec3> v;
    EXPECT_FALSE(wire::decode(e.bytes(), v)) << count;
    EXPECT_EQ(v.capacity(), 0u) << count;
  }
  // Same for a vector of records and a byte vector.
  Encoder e;
  e.u64(1ull << 62);
  std::vector<std::vector<int>> nested;
  EXPECT_FALSE(wire::decode(e.bytes(), nested));
  EXPECT_EQ(nested.capacity(), 0u);
  std::vector<std::uint8_t> blob;
  EXPECT_FALSE(wire::decode(e.bytes(), blob));
  EXPECT_EQ(blob.capacity(), 0u);
}

TEST(WireCodec, OutOfRangeValuesFailAndLatch) {
  // An int field rejects a 64-bit value it cannot hold, a bool a byte other
  // than 0/1; the failure latches, so the reads after it are skipped.
  Encoder e;
  e.i64(std::int64_t{1} << 40);
  e.i64(5);
  wire::Reader r(e.bytes());
  int narrow = 0;
  std::int64_t next = 0;
  r(narrow, next);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(next, 0);

  Encoder eb;
  eb.u8(2);
  bool flag = false;
  EXPECT_FALSE(wire::decode(eb.bytes(), flag));
}

}  // namespace
}  // namespace scalemd
