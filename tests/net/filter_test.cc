#include "net/filters.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <utility>
#include <limits>
#include <vector>

#include "common/serde.h"
#include "linalg/kernels/kernels.h"
#include "net/filter_config.h"

namespace ps2 {
namespace {

std::vector<uint8_t> RandomBytes(size_t n, uint64_t seed) {
  std::vector<uint8_t> out(n);
  uint64_t x = seed;
  for (uint8_t& b : out) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    b = static_cast<uint8_t>(x >> 56);
  }
  return out;
}

// A request-shaped payload: [opcode][keys section][gap][f64 values section].
struct TestPayload {
  std::vector<uint8_t> bytes;
  std::vector<PayloadSection> sections;
};

TestPayload MakePayload(const std::vector<uint64_t>& keys,
                        const std::vector<double>& values) {
  BufferWriter w;
  w.WriteU8(7);  // opcode-style prefix byte; must survive verbatim
  w.BeginSection(SectionKind::kKeys);
  w.WriteVarint(keys.size());
  uint64_t prev = 0;
  for (uint64_t k : keys) {
    w.WriteVarint(k - prev);
    prev = k;
  }
  w.EndSection();
  w.WriteU32(0xFEEDFACE);  // unmarked bytes between the sections
  w.BeginSection(SectionKind::kF64Values);
  w.WriteF64Span(values.data(), values.size());
  w.EndSection();
  TestPayload p;
  p.sections = w.TakeSections();
  p.bytes = w.Release();
  return p;
}

std::vector<uint64_t> SomeKeys(size_t n) {
  std::vector<uint64_t> keys;
  for (size_t i = 0; i < n; ++i) keys.push_back(3 * i + (i % 5));
  return keys;
}

// ---- Config parsing --------------------------------------------------------

TEST(FilterConfigTest, ParseRoundTrip) {
  EXPECT_EQ(FilterConfig::Parse("off")->bits, 0);
  EXPECT_EQ(FilterConfig::Parse("")->bits, 0);
  EXPECT_EQ(FilterConfig::Parse("keycache")->bits, kFilterKeyCache);
  EXPECT_EQ(FilterConfig::Parse("delta,compress")->bits,
            kFilterDelta | kFilterCompress);
  EXPECT_EQ(FilterConfig::Parse("all")->bits, kFilterAll);
  EXPECT_EQ(FilterConfig::Parse("keycache,delta,compress")->bits, kFilterAll);
  EXPECT_FALSE(FilterConfig::Parse("keycache,bogus").ok());
  FilterConfig cfg = *FilterConfig::Parse("keycache,compress");
  EXPECT_EQ(FilterConfig::Parse(cfg.ToString())->bits, cfg.bits);
  EXPECT_TRUE(cfg.enabled());
  EXPECT_FALSE(FilterConfig().enabled());
  EXPECT_EQ(FilterConfig().ToString(), "off");
}

// ---- LZ codec --------------------------------------------------------------

TEST(LzTest, RoundTripRandomBytes) {
  for (size_t n : {0u, 1u, 3u, 17u, 255u, 4096u}) {
    std::vector<uint8_t> in = RandomBytes(n, 0x5EED + n);
    std::vector<uint8_t> blob = LzCompress(in);
    Result<std::vector<uint8_t>> out = LzDecompress(blob, in.size());
    ASSERT_TRUE(out.ok()) << out.status();
    EXPECT_EQ(*out, in);
  }
}

TEST(LzTest, RepetitiveInputShrinksAndRoundTrips) {
  std::vector<uint8_t> in;
  for (int i = 0; i < 200; ++i) {
    in.insert(in.end(), {0xAB, 0xCD, 0xEF, 0x01, 0x02});
  }
  std::vector<uint8_t> blob = LzCompress(in);
  EXPECT_LT(blob.size(), in.size() / 4);
  Result<std::vector<uint8_t>> out = LzDecompress(blob, in.size());
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, in);
}

TEST(LzTest, TruncatedStreamFailsCleanly) {
  std::vector<uint8_t> in = RandomBytes(512, 11);
  std::vector<uint8_t> blob = LzCompress(in);
  ASSERT_GT(blob.size(), 4u);
  blob.resize(blob.size() - 3);
  EXPECT_FALSE(LzDecompress(blob, in.size()).ok());
}

TEST(LzTest, WrongRawLengthFails) {
  std::vector<uint8_t> in(100, 0x42);
  std::vector<uint8_t> blob = LzCompress(in);
  EXPECT_FALSE(LzDecompress(blob, 40).ok());
}

TEST(LzTest, ForgedRawLengthRejectedBeforeAllocating) {
  // raw_len is an unchecked wire varint; reserving it would throw
  // std::bad_alloc (or allocate without bound) instead of failing.
  std::vector<uint8_t> blob = LzCompress(std::vector<uint8_t>(100, 0x42));
  for (size_t raw_len : {size_t{1} << 61, kLzMaxRawLen + 1}) {
    Result<std::vector<uint8_t>> out = LzDecompress(blob, raw_len);
    ASSERT_FALSE(out.ok());
    EXPECT_TRUE(out.status().IsOutOfRange()) << out.status();
  }
}

/// Byte-at-a-time reference decoder of the LZ op stream (the format comment
/// in filters.cc): false on any malformed or over-long stream.
bool ReferenceLzDecode(Slice in, size_t raw_len, std::vector<uint8_t>* out) {
  out->clear();
  BufferReader r(in);
  while (out->size() < raw_len) {
    Result<uint8_t> op = r.ReadU8();
    Result<uint64_t> len = op.ok() ? r.ReadVarint() : Result<uint64_t>(op.status());
    if (!len.ok() || *len > raw_len - out->size()) return false;
    if (*op == 0) {
      for (uint64_t k = 0; k < *len; ++k) {
        Result<uint8_t> b = r.ReadU8();
        if (!b.ok()) return false;
        out->push_back(*b);
      }
    } else if (*op == 1) {
      Result<uint64_t> dist = r.ReadVarint();
      if (!dist.ok() || *dist == 0 || *dist > out->size()) return false;
      for (uint64_t k = 0; k < *len; ++k) {
        out->push_back((*out)[out->size() - *dist]);
      }
    } else {
      return false;
    }
  }
  return r.AtEnd();
}

/// A random but well-formed op stream: literal runs and copies with
/// dist < len (overlapping), dist == len, dist == 1 (RLE) and far copies,
/// long enough to reach past the compressor's 64 KiB window.
std::vector<uint8_t> RandomLzOps(uint64_t seed, size_t target,
                                 size_t* raw_len) {
  std::vector<uint8_t> noise = RandomBytes(4 * target + 64, seed);
  size_t next = 0;
  auto rnd = [&]() -> uint64_t {
    uint64_t x = 0;
    for (int b = 0; b < 4; ++b) x = (x << 8) | noise[next++ % noise.size()];
    return x;
  };
  BufferWriter w;
  size_t produced = 0;
  while (produced < target) {
    const uint64_t pick = rnd() % 5;
    if (produced == 0 || pick == 0) {
      const size_t len = 1 + rnd() % 40;
      w.WriteU8(0);
      w.WriteVarint(len);
      for (size_t k = 0; k < len; ++k) w.WriteU8(static_cast<uint8_t>(rnd()));
      produced += len;
      continue;
    }
    size_t dist;
    size_t len = 1 + rnd() % 300;
    switch (pick) {
      case 1: dist = 1; break;
      case 2: dist = std::min(produced, len); len = dist; break;
      case 3: dist = 1 + rnd() % std::min<size_t>(produced, 16); break;
      default: dist = 1 + rnd() % produced; break;
    }
    w.WriteU8(1);
    w.WriteVarint(len);
    w.WriteVarint(dist);
    produced += len;
  }
  *raw_len = produced;
  return w.Release();
}

TEST(LzTest, DecoderMatchesByteAtATimeReference) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    size_t raw_len = 0;
    const size_t target = seed % 4 == 0 ? 150000 : 2000;
    const std::vector<uint8_t> ops = RandomLzOps(seed, target, &raw_len);
    std::vector<uint8_t> expected;
    ASSERT_TRUE(ReferenceLzDecode(ops, raw_len, &expected)) << seed;
    Result<std::vector<uint8_t>> got = LzDecompress(ops, raw_len);
    ASSERT_TRUE(got.ok()) << seed << ": " << got.status();
    EXPECT_EQ(*got, expected) << seed;
    // Damaged streams: the decoder fails exactly when the reference does,
    // and agrees with it byte for byte when both succeed.
    std::vector<uint8_t> damaged = ops;
    const std::vector<uint8_t> flips = RandomBytes(16, seed * 977);
    for (size_t f = 0; f + 1 < flips.size(); f += 2) {
      damaged[(flips[f] * 131 + flips[f + 1]) % damaged.size()] ^= 1 + flips[f];
      const bool ref_ok = ReferenceLzDecode(damaged, raw_len, &expected);
      Result<std::vector<uint8_t>> dec = LzDecompress(damaged, raw_len);
      ASSERT_EQ(dec.ok(), ref_ok) << seed << " flip " << f;
      if (ref_ok) {
        EXPECT_EQ(*dec, expected) << seed << " flip " << f;
      } else {
        EXPECT_TRUE(dec.status().IsOutOfRange()) << dec.status();
      }
    }
  }
}

TEST(LzTest, InputsWiderThanTheWindowRoundTrip) {
  // Repeats just inside and just outside the 64 KiB match window.
  std::vector<uint8_t> in = RandomBytes(70000, 0x3A3A);
  in.insert(in.end(), in.begin() + 5000, in.begin() + 9000);   // dist 65000
  in.insert(in.end(), in.begin(), in.begin() + 3000);          // dist 74000
  in.insert(in.end(), in.end() - 65536, in.end() - 60536);     // dist 65536
  in.insert(in.end(), 5000, 0x11);                             // RLE
  const std::vector<uint8_t> blob = LzCompress(in);
  std::vector<uint8_t> reference;
  ASSERT_TRUE(ReferenceLzDecode(blob, in.size(), &reference));
  EXPECT_EQ(reference, in);
  Result<std::vector<uint8_t>> out = LzDecompress(blob, in.size());
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(*out, in);
}

// ---- Hashing + caches ------------------------------------------------------

TEST(FilterTest, HashIsDeterministicAndContentSensitive) {
  std::vector<uint8_t> a{1, 2, 3, 4};
  std::vector<uint8_t> b{1, 2, 3, 5};
  EXPECT_EQ(HashBytes64(a), HashBytes64(a));
  EXPECT_NE(HashBytes64(a), HashBytes64(b));
}

TEST(FilterTest, ServerKeyCacheInstallIsIdempotent) {
  ServerKeyCache cache;
  std::vector<uint8_t> bytes{9, 8, 7};
  const uint64_t h = HashBytes64(bytes);
  EXPECT_EQ(cache.Lookup(h), nullptr);
  cache.Install(h, bytes);
  ASSERT_NE(cache.Lookup(h), nullptr);
  EXPECT_EQ(*cache.Lookup(h), bytes);
  cache.Install(h, bytes);  // replayed install: no-op
  EXPECT_EQ(cache.size(), 1u);
  cache.Clear();
  EXPECT_EQ(cache.Lookup(h), nullptr);
}

TEST(FilterTest, ServerKeyCacheEvictsOldestWhenFull) {
  // Past capacity an install replaces the oldest entry: the newest list is
  // always cached (a dropped install would make every later ref miss).
  ServerKeyCache cache;
  const size_t n = ServerKeyCache::kMaxEntries + 1;
  for (uint64_t h = 1; h <= n; ++h) {
    const std::vector<uint8_t> bytes{static_cast<uint8_t>(h), 1, 2};
    cache.Install(h, bytes);
  }
  EXPECT_EQ(cache.size(), ServerKeyCache::kMaxEntries);
  EXPECT_EQ(cache.Lookup(1), nullptr);  // the oldest went
  ASSERT_NE(cache.Lookup(2), nullptr);
  ASSERT_NE(cache.Lookup(n), nullptr);
  EXPECT_EQ((*cache.Lookup(n))[0], static_cast<uint8_t>(n));
  cache.Install(2, std::vector<uint8_t>{9});  // re-install: still a no-op
  EXPECT_EQ((*cache.Lookup(2))[0], 2);
  cache.Clear();
  cache.Install(7, std::vector<uint8_t>{7});
  EXPECT_EQ(cache.size(), 1u);
}

TEST(FilterTest, ClientKeyCacheTracksPerServerState) {
  using A = ClientKeyCache::Admission;
  constexpr size_t kBig = ClientKeyCache::kOptimisticInstallBytes;
  ClientKeyCache cache;
  // Large lists are worth the 8-byte bet: install on first sighting.
  EXPECT_EQ(cache.Admit(0, 111, kBig, false), A::kInstall);
  EXPECT_EQ(cache.Admit(0, 111, kBig, false), A::kRef);
  // Small lists must prove recurrence: verbatim, install, then refs.
  EXPECT_EQ(cache.Admit(0, 222, kBig - 1, false), A::kVerbatim);
  EXPECT_EQ(cache.Admit(0, 222, kBig - 1, false), A::kInstall);
  EXPECT_EQ(cache.Admit(0, 222, kBig - 1, false), A::kRef);
  EXPECT_EQ(cache.Admit(1, 111, kBig, false), A::kInstall);  // per server
  cache.InvalidateServer(0);
  EXPECT_EQ(cache.Admit(0, 111, kBig, false), A::kInstall);  // 0 forgotten
  EXPECT_EQ(cache.Admit(1, 111, kBig, false), A::kRef);      // 1 kept
  cache.SyncEpoch(5);
  EXPECT_EQ(cache.Admit(0, 111, kBig, false), A::kInstall);  // epoch clears
  cache.SyncEpoch(5);  // same epoch: no-op
  EXPECT_EQ(cache.Admit(0, 111, kBig, false), A::kRef);
  // Force (the miss-protocol retry) jumps straight to an install even for a
  // small first-sighted list, and leaves the hash hot for later refs.
  EXPECT_EQ(cache.Admit(1, 333, kBig - 1, true), A::kInstall);
  EXPECT_EQ(cache.Admit(1, 333, kBig - 1, false), A::kRef);
}

// ---- Chain round trips -----------------------------------------------------

TEST(FilterChainTest, EveryMaskRoundTrips) {
  FilterChain chain;
  const std::vector<uint64_t> keys = SomeKeys(200);
  std::vector<double> values;
  for (int i = 0; i < 300; ++i) values.push_back(0.01 * i - 1.5);
  const TestPayload p = MakePayload(keys, values);
  const size_t values_off = p.sections[1].offset;
  const size_t values_len = p.sections[1].len;

  for (uint8_t want = 0; want <= kFilterAll; ++want) {
    ClientKeyCache client_keys;
    ServerKeyCache server_keys;
    FilterContext ectx;
    ectx.dir = FilterDir::kClientToServer;
    ectx.server = 0;
    ectx.client_keys = &client_keys;
    EncodedPayload enc = chain.Encode(p.bytes, p.sections, want, 1, &ectx);
    EXPECT_EQ(enc.stats.logical_bytes, p.bytes.size());
    EXPECT_EQ(enc.mask & ~want, 0) << "applied a filter nobody asked for";
    const Slice wire = enc.mask == 0 ? Slice(p.bytes) : Slice(enc.wire);
    if (enc.mask == 0) {
      EXPECT_TRUE(enc.wire.empty());  // caller aliases the logical payload
      EXPECT_EQ(enc.stats.wire_bytes, p.bytes.size());
    } else {
      EXPECT_EQ(enc.stats.wire_bytes, enc.wire.size());
    }
    EXPECT_EQ(wire[0], p.bytes[0]) << "opcode byte must stay verbatim";

    FilterContext dctx;
    dctx.dir = FilterDir::kClientToServer;
    dctx.server_keys = &server_keys;
    Result<std::vector<uint8_t>> dec = chain.Decode(wire, enc.mask, 1, &dctx);
    ASSERT_TRUE(dec.ok()) << "mask " << int(want) << ": " << dec.status();
    ASSERT_EQ(dec->size(), p.bytes.size());
    if (enc.mask & kFilterDelta) {
      // Everything except the value span is bit-exact; values are within
      // step/2 of the originals.
      EXPECT_EQ(std::memcmp(dec->data(), p.bytes.data(), values_off), 0);
      EXPECT_EQ(std::memcmp(dec->data() + values_off + values_len,
                            p.bytes.data() + values_off + values_len,
                            p.bytes.size() - values_off - values_len),
                0);
      double max_abs = 0;
      for (double v : values) max_abs = std::max(max_abs, std::fabs(v));
      const double step = max_abs / 32767.0;
      for (size_t i = 0; i < values.size(); ++i) {
        double got;
        std::memcpy(&got, dec->data() + values_off + i * sizeof(double),
                    sizeof(double));
        EXPECT_NEAR(got, values[i], step / 2 + 1e-12);
      }
    } else {
      EXPECT_EQ(*dec, p.bytes) << "mask " << int(want)
                               << " must be bit-exact on decode";
    }
  }
}

TEST(FilterChainTest, DeltaQuantIsIdempotent) {
  // Integer-valued doubles spanning [-32767, 32767]: step is exactly 1.0, so
  // quantization is lossless after the first pass and the re-encoded wire
  // bytes must match exactly.
  FilterChain chain;
  std::vector<double> values;
  for (int i = 0; i < 100; ++i) {
    values.push_back(double((i * 991) % 65535) - 32767.0);
  }
  values[7] = 32767.0;  // pin max|v|
  const TestPayload p = MakePayload(SomeKeys(4), values);

  FilterContext ctx;
  EncodedPayload enc1 =
      chain.Encode(p.bytes, p.sections, kFilterDelta, 1, &ctx);
  ASSERT_EQ(enc1.mask, kFilterDelta);
  Result<std::vector<uint8_t>> dec1 =
      chain.Decode(Slice(enc1.wire), enc1.mask, 1, &ctx);
  ASSERT_TRUE(dec1.ok());

  EncodedPayload enc2 = chain.Encode(*dec1, p.sections, kFilterDelta, 1, &ctx);
  ASSERT_EQ(enc2.mask, kFilterDelta);
  EXPECT_EQ(enc2.wire, enc1.wire);  // idempotent: same wire bytes
  Result<std::vector<uint8_t>> dec2 =
      chain.Decode(Slice(enc2.wire), enc2.mask, 1, &ctx);
  ASSERT_TRUE(dec2.ok());
  EXPECT_EQ(*dec2, *dec1);  // and the same decoded payload
}

TEST(FilterChainTest, NonFiniteValuesTravelVerbatim) {
  FilterChain chain;
  std::vector<double> values{1.0, std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(), -3.5,
                             -std::numeric_limits<double>::infinity()};
  const TestPayload p = MakePayload(SomeKeys(3), values);
  FilterContext ctx;
  EncodedPayload enc =
      chain.Encode(p.bytes, p.sections, kFilterDelta, 1, &ctx);
  const Slice wire = enc.mask == 0 ? Slice(p.bytes) : Slice(enc.wire);
  Result<std::vector<uint8_t>> dec = chain.Decode(wire, enc.mask, 1, &ctx);
  ASSERT_TRUE(dec.ok());
  EXPECT_EQ(*dec, p.bytes);  // bit-exact, NaN payload bits included
}

TEST(FilterChainTest, SecondSendRefsTheKeyCache) {
  FilterChain chain;
  ClientKeyCache client_keys;
  ServerKeyCache server_keys;
  const TestPayload p = MakePayload(SomeKeys(500), {1.0, 2.0});

  auto encode = [&](bool force) {
    FilterContext ctx;
    ctx.server = 2;
    ctx.client_keys = &client_keys;
    ctx.force_key_install = force;
    return chain.Encode(p.bytes, p.sections, kFilterKeyCache, 1, &ctx);
  };
  auto decode = [&](const EncodedPayload& enc) {
    FilterContext ctx;
    ctx.server_keys = &server_keys;
    return chain.Decode(Slice(enc.wire), enc.mask, 1, &ctx);
  };

  // A 500-key list is far above the optimistic-install threshold, so the
  // first sighting installs right away.
  EncodedPayload first = encode(false);
  ASSERT_EQ(first.mask, kFilterKeyCache);
  EXPECT_EQ(first.stats.keycache_installs, 1u);
  EXPECT_EQ(first.stats.keycache_refs, 0u);
  ASSERT_TRUE(decode(first).ok());
  EXPECT_EQ(server_keys.size(), 1u);

  EncodedPayload second = encode(false);
  EXPECT_EQ(second.stats.keycache_refs, 1u);
  EXPECT_EQ(second.stats.keycache_installs, 0u);
  EXPECT_LT(second.wire.size(), first.wire.size());
  Result<std::vector<uint8_t>> dec = decode(second);
  ASSERT_TRUE(dec.ok());
  EXPECT_EQ(*dec, p.bytes);

  // A ref against a server that lost its cache is the miss protocol error...
  server_keys.Clear();
  EncodedPayload ref = encode(false);
  ASSERT_EQ(ref.stats.keycache_refs, 1u);
  Result<std::vector<uint8_t>> miss = decode(ref);
  ASSERT_FALSE(miss.ok());
  EXPECT_TRUE(IsKeyCacheMiss(miss.status()));
  EXPECT_FALSE(IsKeyCacheMiss(Status::FailedPrecondition("other")));

  // ...and a forced re-install repairs it without touching client state.
  EncodedPayload repaired = encode(true);
  EXPECT_EQ(repaired.stats.keycache_installs, 1u);
  Result<std::vector<uint8_t>> ok = decode(repaired);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, p.bytes);
}

TEST(FilterChainTest, CompressShrinksRepetitivePayloadAndReportsStats) {
  FilterChain chain;
  std::vector<double> values(400, 0.125);  // very compressible
  const TestPayload p = MakePayload(SomeKeys(100), values);
  FilterContext ctx;
  EncodedPayload enc =
      chain.Encode(p.bytes, p.sections, kFilterCompress, 1, &ctx);
  ASSERT_EQ(enc.mask, kFilterCompress);
  EXPECT_LT(enc.stats.wire_bytes, enc.stats.logical_bytes / 2);
  Result<std::vector<uint8_t>> dec =
      chain.Decode(Slice(enc.wire), enc.mask, 1, &ctx);
  ASSERT_TRUE(dec.ok());
  EXPECT_EQ(*dec, p.bytes);
}

TEST(FilterChainTest, IncompressiblePayloadFallsBackToMaskZero) {
  FilterChain chain;
  std::vector<uint8_t> noise = RandomBytes(256, 77);
  noise[0] = 7;  // opcode slot
  FilterContext ctx;
  EncodedPayload enc = chain.Encode(noise, {}, kFilterCompress, 1, &ctx);
  EXPECT_EQ(enc.mask, 0);  // compression would have grown the payload
  EXPECT_TRUE(enc.wire.empty());
  EXPECT_EQ(enc.stats.wire_bytes, noise.size());
}

TEST(FilterChainTest, TruncatedWireFailsCleanly) {
  FilterChain chain;
  const TestPayload p = MakePayload(SomeKeys(50), std::vector<double>(64, 1.0));
  FilterContext ctx;
  EncodedPayload enc = chain.Encode(p.bytes, p.sections, kFilterAll, 1, &ctx);
  ASSERT_NE(enc.mask, 0);
  for (size_t cut : {size_t{0}, enc.wire.size() / 2, enc.wire.size() - 1}) {
    Slice truncated(enc.wire.data(), cut);
    EXPECT_FALSE(chain.Decode(truncated, enc.mask, 1, &ctx).ok());
  }
}

// A delta-filtered frame holding one kValuesQuant chunk that claims 2^40
// values over a 3-byte body (a mode byte plus two varints).
std::vector<uint8_t> ForgedQuantFrame() {
  BufferWriter w;
  w.WriteU8(7);  // prefix
  w.WriteVarint(1);  // one chunk
  w.WriteU8(FilterChunk::kValuesQuant);
  w.WriteVarint(uint64_t{1} << 40);  // count
  w.WriteF64(1.0);                   // scale
  w.WriteVarint(3);                  // body length
  w.WriteU8(0);                      // delta-varint coding
  w.WriteU8(1);
  w.WriteU8(1);
  return w.Release();
}

TEST(FilterChainTest, ForgedQuantCountRejectedBeforeAllocating) {
  FilterChain chain;
  FilterContext ctx;
  const std::vector<uint8_t> forged = ForgedQuantFrame();
  Result<std::vector<uint8_t>> dec =
      chain.Decode(Slice(forged), kFilterDelta, 1, &ctx);
  ASSERT_FALSE(dec.ok());
  // Rejected by the count check, not by running out of bytes after sizing
  // an output for 2^40 values.
  EXPECT_TRUE(dec.status().IsOutOfRange());
  EXPECT_NE(dec.status().message().find("count exceeds"), std::string::npos)
      << dec.status();
}

/// A delta-filtered frame holding one kValuesQuant chunk of `count` values
/// whose coded stream (mode byte included) is `coded`.
std::vector<uint8_t> QuantFrame(uint64_t count,
                                const std::vector<uint8_t>& coded) {
  BufferWriter w;
  w.WriteU8(7);  // prefix
  w.WriteVarint(1);
  w.WriteU8(FilterChunk::kValuesQuant);
  w.WriteVarint(count);
  w.WriteF64(0.5);
  w.WriteVarint(coded.size());
  w.WriteBytes(Slice(coded));
  return w.Release();
}

TEST(FilterChainTest, MalformedQuantChunksFailCleanly) {
  FilterChain chain;
  FilterContext ctx;
  const struct {
    const char* what;
    uint64_t count;
    std::vector<uint8_t> coded;
  } cases[] = {
      {"empty stream", 0, {}},
      {"unknown coding", 1, {2, 0}},
      {"truncated varint", 2, {0, 0x02, 0x80}},
      {"over-long varint",
       1,
       {0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}},
      {"varint trailing bytes", 1, {0, 0x02, 0x02}},
      {"fixed16 odd length", 1, {1, 0x02, 0x00, 0x07}},
      {"fixed16 trailing pair", 1, {1, 0x02, 0x00, 0x04, 0x00}},
  };
  for (const auto& c : cases) {
    const std::vector<uint8_t> frame = QuantFrame(c.count, c.coded);
    Result<std::vector<uint8_t>> dec =
        chain.Decode(Slice(frame), kFilterDelta, 1, &ctx);
    ASSERT_FALSE(dec.ok()) << c.what;
    EXPECT_TRUE(dec.status().IsOutOfRange()) << c.what << ": " << dec.status();
  }
  // The well-formed neighbours decode: q = 1, then 1 + 1 (varint deltas),
  // and q = 1 (fixed16 zigzag 2), each times the 0.5 scale.
  const std::vector<uint8_t> ok[] = {QuantFrame(2, {0, 0x02, 0x02}),
                                     QuantFrame(1, {1, 0x02, 0x00})};
  const std::vector<double> expected[] = {{0.5, 1.0}, {0.5}};
  for (int k = 0; k < 2; ++k) {
    Result<std::vector<uint8_t>> dec =
        chain.Decode(Slice(ok[k]), kFilterDelta, 1, &ctx);
    ASSERT_TRUE(dec.ok()) << dec.status();
    ASSERT_EQ(dec->size(), 1 + 8 * expected[k].size());
    for (size_t i = 0; i < expected[k].size(); ++i) {
      double v;
      std::memcpy(&v, dec->data() + 1 + 8 * i, 8);
      EXPECT_EQ(v, expected[k][i]);
    }
  }
}

TEST(FilterChainTest, EmptyAndPrefixOnlyPayloadsPassThrough) {
  FilterChain chain;
  FilterContext ctx;
  std::vector<uint8_t> prefix_only{9};
  EncodedPayload enc =
      chain.Encode(Slice(prefix_only), {}, kFilterAll, 1, &ctx);
  EXPECT_EQ(enc.mask, 0);
  EncodedPayload empty = chain.Encode(Slice(), {}, kFilterAll, 0, &ctx);
  EXPECT_EQ(empty.mask, 0);
  EXPECT_EQ(empty.stats.logical_bytes, 0u);
}

// ---- Golden wire bytes -----------------------------------------------------
//
// The filter codecs may be rewritten for speed, but never so that one wire
// byte moves: the wire form is a protocol and the cost model prices it. This
// corpus covers every chunk tag (verbatim, install, ref, quant), both quant
// codings, an LZ-kept and an LZ-rejected body, non-finite spans, an all-zero
// span, exact .5 ties, denormals, empty and 17-byte payloads and an LZ input
// wider than the match window. Each case pins the FNV-1a-64 of
// [mask][wire bytes] and of the decoded payload, under every kernel backend.

/// FNV-1a-64, written out here so the pins do not depend on the code under
/// test (HashBytes64 is the key-cache content address).
uint64_t Fnv1a64(uint8_t lead, Slice bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](uint8_t b) {
    h ^= b;
    h *= 0x100000001b3ULL;
  };
  mix(lead);
  for (size_t i = 0; i < bytes.size(); ++i) mix(bytes[i]);
  return h;
}

struct GoldenCase {
  const char* name;
  TestPayload payload;
  uint8_t want_mask;
  size_t prefix;
};

std::vector<double> RandomValues(size_t n, uint64_t seed, double scale) {
  const std::vector<uint8_t> bits = RandomBytes(n * 8, seed);
  std::vector<double> out(n);
  for (size_t i = 0; i < n; ++i) {
    uint64_t x;
    std::memcpy(&x, bits.data() + i * 8, 8);
    out[i] = scale * (static_cast<double>(x >> 11) / 9007199254740992.0 - 0.5);
  }
  return out;
}

TestPayload RawPayload(std::vector<uint8_t> bytes) {
  TestPayload p;
  p.bytes = std::move(bytes);
  return p;
}

std::vector<GoldenCase> GoldenCorpus() {
  constexpr uint8_t kKD = kFilterKeyCache | kFilterDelta;
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  const double kDenorm = std::numeric_limits<double>::denorm_min();
  std::vector<double> ramp, ties, zeros, denorms, tiny_denorms, huge;
  for (int i = 0; i < 300; ++i) ramp.push_back(1.0 + 1e-4 * i);
  // max|v| = 32767 makes the step exactly 1, so every k + 0.5 is a tie.
  ties.push_back(32767.0);
  for (int k = -40; k <= 40; ++k) ties.push_back(k + (k < 0 ? -0.5 : 0.5));
  zeros = {0.0, -0.0, 0.0, -0.0, 0.0};
  for (int i = 0; i < 40; ++i) {
    tiny_denorms.push_back(kDenorm * (i * 37 % 101));  // step underflows to 0
    denorms.push_back(kDenorm * (i * 37 % 101) * 100003);
  }
  for (int i = 0; i < 40; ++i) huge.push_back(1e300 * ((i * 13 % 29) - 14));
  const std::vector<double> noise = RandomValues(257, 0xA11CE, 2.0);
  std::vector<double> non_finite = RandomValues(33, 0xBEEF, 1.0);
  non_finite[5] = kNaN;
  non_finite[20] = -kInf;

  std::vector<uint8_t> repetitive;
  for (int i = 0; i < 800; ++i) {
    repetitive.insert(repetitive.end(), {7, 0xAB, 0xCD, 0xEF, 0x01});
  }
  // Wider than the 64 KiB window: a random block, a near repeat that LZ can
  // reach, then a far repeat of the head that it cannot.
  std::vector<uint8_t> wide = RandomBytes(70000, 0x71DE);
  wide.insert(wide.end(), wide.begin() + 60000, wide.begin() + 64000);
  wide.insert(wide.end(), wide.begin(), wide.begin() + 3000);
  std::vector<uint8_t> tiny_random = RandomBytes(17, 0x17);
  tiny_random[0] = 7;

  std::vector<GoldenCase> corpus;
  // Long key list: installed on first sighting, a ref after; smooth values
  // take the delta-varint coding.
  corpus.push_back({"install+varint", MakePayload(SomeKeys(200), ramp), kKD, 1});
  corpus.push_back({"ref+varint", MakePayload(SomeKeys(200), ramp), kKD, 1});
  // Short key list: verbatim on first sighting, installed on the second;
  // noisy values take the fixed16 coding.
  corpus.push_back({"verbatim+fixed16", MakePayload(SomeKeys(3), noise), kKD, 1});
  corpus.push_back({"install+fixed16", MakePayload(SomeKeys(3), noise), kKD, 1});
  corpus.push_back(
      {"ref+nonfinite", MakePayload(SomeKeys(200), non_finite), kFilterAll, 1});
  corpus.push_back({"zeros", MakePayload(SomeKeys(5), zeros), kFilterDelta, 1});
  corpus.push_back({"ties", MakePayload(SomeKeys(5), ties), kFilterDelta, 1});
  corpus.push_back({"denorms", MakePayload(SomeKeys(5), denorms), kFilterDelta, 1});
  corpus.push_back(
      {"tiny-denorms", MakePayload(SomeKeys(5), tiny_denorms), kFilterDelta, 1});
  corpus.push_back({"huge", MakePayload(SomeKeys(5), huge), kFilterDelta, 1});
  corpus.push_back({"lz-kept", RawPayload(repetitive), kFilterCompress, 1});
  corpus.push_back({"lz-rejected+delta", MakePayload(SomeKeys(2), noise),
                    kFilterDelta | kFilterCompress, 1});
  corpus.push_back({"lz-wide", RawPayload(wide), kFilterCompress, 0});
  corpus.push_back({"empty", RawPayload({}), kFilterAll, 0});
  corpus.push_back({"17-random-prefixed", RawPayload(tiny_random), kFilterAll, 1});
  corpus.push_back({"17-random", RawPayload(tiny_random), kFilterCompress, 0});
  corpus.push_back(
      {"17-zeros", RawPayload(std::vector<uint8_t>(17, 0)), kFilterCompress, 0});
  for (uint8_t mask = 0; mask <= kFilterAll; ++mask) {
    corpus.push_back({"every-mask", MakePayload(SomeKeys(60 + mask), ramp),
                      mask, 1});
  }
  return corpus;
}

/// Encodes the corpus in order through one client/server key-cache pair and
/// returns {FNV(mask + wire), FNV(decoded)} per case; round trips checked.
std::vector<std::pair<uint64_t, uint64_t>> EncodeGoldenCorpus() {
  FilterChain chain;
  ClientKeyCache client_keys;
  ServerKeyCache server_keys;
  std::vector<std::pair<uint64_t, uint64_t>> out;
  for (const GoldenCase& c : GoldenCorpus()) {
    SCOPED_TRACE(c.name);
    FilterContext ectx;
    ectx.server = 0;
    ectx.client_keys = &client_keys;
    const TestPayload& p = c.payload;
    EncodedPayload enc =
        chain.Encode(p.bytes, p.sections, c.want_mask, c.prefix, &ectx);
    const Slice wire = enc.mask == 0 ? Slice(p.bytes) : Slice(enc.wire);
    FilterContext dctx;
    dctx.server_keys = &server_keys;
    Result<std::vector<uint8_t>> dec =
        chain.Decode(wire, enc.mask, c.prefix, &dctx);
    EXPECT_TRUE(dec.ok()) << dec.status();
    if (!dec.ok()) {
      out.emplace_back(0, 0);
      continue;
    }
    EXPECT_EQ(dec->size(), p.bytes.size());
    if (!(enc.mask & kFilterDelta)) {
      EXPECT_EQ(*dec, p.bytes);  // everything but delta is lossless
    }
    out.emplace_back(Fnv1a64(enc.mask, wire), Fnv1a64(0, Slice(*dec)));
  }
  return out;
}

TEST(FilterChainTest, WireBytesMatchGolden) {
  // {FNV(mask + wire), FNV(decoded)} per GoldenCorpus() case, recorded from
  // the reference implementation of the filter codecs.
  static constexpr std::pair<uint64_t, uint64_t> kGolden[] = {
      {0x44e394734020b19eULL, 0x80caf4a23fe84c55ULL},
      {0x70427cc2044480b6ULL, 0x80caf4a23fe84c55ULL},
      {0x028affbe89a7934eULL, 0x6009861d8edd3b95ULL},
      {0xcf32284aba02678cULL, 0x6009861d8edd3b95ULL},
      {0x7c957a5ecdde2089ULL, 0xbc38440422499b63ULL},
      {0xdcfb8eb8f6661793ULL, 0x989e20f4e449a6ceULL},
      {0x32ef27ad0d575629ULL, 0x568a6a7d2c0148fdULL},
      {0x055a1e5163a80706ULL, 0xadf6a3b8c2e1770fULL},
      {0x5ae32ad35d785b69ULL, 0xe6d50e3accfcb80eULL},
      {0xfd691b3b8b119520ULL, 0x1fa1284867cf02c4ULL},
      {0xd96c56eb104e9a25ULL, 0x6655190530b57bffULL},
      {0x39b01442842b65d2ULL, 0xa737427e87fb20d8ULL},
      {0x257abcb2dfd20a7cULL, 0x30d8190e3b27b176ULL},
      {0xaf63bd4c8601b7dfULL, 0xaf63bd4c8601b7dfULL},
      {0x226edd948040b4c4ULL, 0x226edd948040b4c4ULL},
      {0x226edd948040b4c4ULL, 0x226edd948040b4c4ULL},
      {0x1631b10905854b91ULL, 0x77e875b1c7b6a32dULL},
      {0x060d9f39f41375c1ULL, 0x060d9f39f41375c1ULL},
      {0xc9962a60dc82854eULL, 0xb06d1ecd77d0e8b8ULL},
      {0x8d6f6233d4f1b5a4ULL, 0x40149ecc5fbbd116ULL},
      {0x53b30a1c41287b76ULL, 0x47d0fb8b75d3d7dfULL},
      {0x3ba8fbe3a91dcdc5ULL, 0x3ba8fbe3a91dcdc5ULL},
      {0xed39e7cc202c34c8ULL, 0x01a17a101f172aacULL},
      {0xbdbb09e4a1e20080ULL, 0x6b3a9866e38a142aULL},
      {0x1e1c20d73ff0fac7ULL, 0x00c428fbb35d78fdULL},
  };
  const std::vector<GoldenCase> corpus = GoldenCorpus();
  ASSERT_EQ(corpus.size(), std::size(kGolden));
  const kernels::SimdMode before = kernels::ActiveMode();
  for (kernels::SimdMode mode :
       {kernels::SimdMode::kScalar, kernels::SimdMode::kAvx2}) {
    if (!kernels::SetSimdMode(mode)) continue;  // AVX2 absent
    SCOPED_TRACE(kernels::SimdModeName(mode));
    const std::vector<std::pair<uint64_t, uint64_t>> got = EncodeGoldenCorpus();
    ASSERT_EQ(got.size(), corpus.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].first, kGolden[i].first)
          << "wire bytes moved: case " << i << " (" << corpus[i].name << ")";
      EXPECT_EQ(got[i].second, kGolden[i].second)
          << "decoded bytes moved: case " << i << " (" << corpus[i].name
          << ")";
    }
  }
  kernels::SetSimdMode(before);
}

}  // namespace
}  // namespace ps2
