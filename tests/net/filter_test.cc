#include "net/filters.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/serde.h"
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

}  // namespace
}  // namespace ps2
