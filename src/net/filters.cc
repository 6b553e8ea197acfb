#include "net/filters.h"

#include <cmath>
#include <cstring>

namespace ps2 {

namespace {

constexpr const char* kKeyCacheMissPrefix = "keycache miss";

// Leading byte of a kValuesQuant chunk's coded stream.
constexpr uint8_t kQuantModeDeltaVarint = 0;
constexpr uint8_t kQuantModeFixed16 = 1;

// Varint-encoded length of `v` (for "is compression worth it" arithmetic).
size_t VarintLen(uint64_t v) {
  size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

}  // namespace

uint64_t HashBytes64(Slice bytes) {
  // FNV-1a 64.
  uint64_t h = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < bytes.size(); ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

// ---- LZ byte codec ---------------------------------------------------------
//
// Ops: 0x00 <varint len> <len literal bytes>
//      0x01 <varint len> <varint dist>      (copy `len` from `dist` back)
// Greedy 4-byte-hash matcher; deterministic (no heuristics depend on
// anything but the input bytes).

namespace {

constexpr size_t kLzHashBits = 15;
constexpr size_t kLzMinMatch = 4;
constexpr size_t kLzMaxDist = 1u << 16;

inline uint32_t LzHash4(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> (32 - kLzHashBits);
}

}  // namespace

std::vector<uint8_t> LzCompress(Slice in) {
  BufferWriter out(in.size() / 2 + 16);
  const uint8_t* p = in.data();
  const size_t n = in.size();
  std::vector<int64_t> table(size_t{1} << kLzHashBits, -1);

  size_t lit_start = 0;
  auto flush_literals = [&](size_t end) {
    if (end <= lit_start) return;
    out.WriteU8(0);
    out.WriteVarint(end - lit_start);
    out.WriteBytes(Slice(p + lit_start, end - lit_start));
  };

  size_t i = 0;
  while (i + kLzMinMatch <= n) {
    const uint32_t h = LzHash4(p + i);
    const int64_t cand = table[h];
    table[h] = static_cast<int64_t>(i);
    if (cand >= 0 && i - static_cast<size_t>(cand) <= kLzMaxDist &&
        std::memcmp(p + cand, p + i, kLzMinMatch) == 0) {
      size_t len = kLzMinMatch;
      while (i + len < n && p[cand + len] == p[i + len]) ++len;
      flush_literals(i);
      out.WriteU8(1);
      out.WriteVarint(len);
      out.WriteVarint(i - static_cast<size_t>(cand));
      const size_t end = i + len;
      ++i;  // position i itself is already in the table
      while (i < end && i + kLzMinMatch <= n) {
        table[LzHash4(p + i)] = static_cast<int64_t>(i);
        ++i;
      }
      i = end;
      lit_start = i;
    } else {
      ++i;
    }
  }
  flush_literals(n);
  return out.Release();
}

Result<std::vector<uint8_t>> LzDecompress(Slice in, size_t raw_len) {
  // `raw_len` arrives off the wire, and a match op expands without bound
  // (RLE), so the stream itself cannot vouch for it: cap it before sizing
  // anything from it.
  if (raw_len > kLzMaxRawLen) {
    return Status::OutOfRange("lz raw length exceeds frame limit");
  }
  std::vector<uint8_t> out;
  out.reserve(raw_len);
  BufferReader r(in);
  while (out.size() < raw_len) {
    PS2_ASSIGN_OR_RETURN(uint8_t op, r.ReadU8());
    if (op == 0) {
      PS2_ASSIGN_OR_RETURN(uint64_t len, r.ReadVarint());
      if (len > raw_len - out.size()) {
        return Status::OutOfRange("lz literal run exceeds raw length");
      }
      PS2_ASSIGN_OR_RETURN(Slice lit, r.ReadBytes(len));
      out.insert(out.end(), lit.data(), lit.data() + lit.size());
    } else if (op == 1) {
      PS2_ASSIGN_OR_RETURN(uint64_t len, r.ReadVarint());
      PS2_ASSIGN_OR_RETURN(uint64_t dist, r.ReadVarint());
      if (dist == 0 || dist > out.size()) {
        return Status::OutOfRange("lz match distance out of range");
      }
      if (len > raw_len - out.size()) {
        return Status::OutOfRange("lz match exceeds raw length");
      }
      // Byte-by-byte: overlapping matches (RLE) are the point.
      size_t src = out.size() - dist;
      for (uint64_t k = 0; k < len; ++k) out.push_back(out[src + k]);
    } else {
      return Status::OutOfRange("unknown lz op");
    }
  }
  if (!r.AtEnd()) return Status::OutOfRange("trailing bytes after lz stream");
  return out;
}

// ---- Key caches ------------------------------------------------------------

void ServerKeyCache::Install(uint64_t hash, Slice bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  if (entries_.count(hash)) return;  // idempotent (replay-safe)
  if (entries_.size() >= kMaxEntries) return;  // install is advisory
  entries_.emplace(hash, bytes.ToVector());
}

const std::vector<uint8_t>* ServerKeyCache::Lookup(uint64_t hash) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(hash);
  return it == entries_.end() ? nullptr : &it->second;
}

void ServerKeyCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
}

size_t ServerKeyCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

ClientKeyCache::Admission ClientKeyCache::Admit(int server, uint64_t hash,
                                                size_t len, bool force) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, first_sighting] = state_[server].emplace(hash, false);
  if (!force) {
    if (it->second) return Admission::kRef;
    if (first_sighting && len < kOptimisticInstallBytes) {
      return Admission::kVerbatim;  // remembered; install on next sighting
    }
  }
  it->second = true;
  return Admission::kInstall;
}

void ClientKeyCache::InvalidateServer(int server) {
  std::lock_guard<std::mutex> lock(mu_);
  state_.erase(server);
}

void ClientKeyCache::SyncEpoch(uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  if (epoch == epoch_) return;
  epoch_ = epoch;
  state_.clear();
}

// ---- Structural filters ----------------------------------------------------

Status KeyCacheFilter::Encode(FilterContext* ctx,
                              std::vector<FilterChunk>* chunks,
                              bool* applied) const {
  for (FilterChunk& c : *chunks) {
    if (!c.marked || c.kind != SectionKind::kKeys ||
        c.tag != FilterChunk::kVerbatim || c.view.empty()) {
      continue;
    }
    // No client cache means no way to track recurrence — leave verbatim.
    if (ctx->client_keys == nullptr) continue;
    c.hash = HashBytes64(c.view);
    switch (ctx->client_keys->Admit(ctx->server, c.hash, c.view.size(),
                                    ctx->force_key_install)) {
      case ClientKeyCache::Admission::kVerbatim:
        continue;  // one sighting so far; literal bytes, no wire overhead
      case ClientKeyCache::Admission::kRef:
        c.tag = FilterChunk::kKeysRef;
        c.count = c.view.size();
        if (ctx->stats) ++ctx->stats->keycache_refs;
        break;
      case ClientKeyCache::Admission::kInstall:
        c.tag = FilterChunk::kKeysInstall;
        if (ctx->stats) ++ctx->stats->keycache_installs;
        break;
    }
    *applied = true;
  }
  return Status::OK();
}

Status KeyCacheFilter::DecodeChunk(FilterContext* ctx,
                                   const FilterChunk& chunk,
                                   std::vector<uint8_t>* out) const {
  if (chunk.tag == FilterChunk::kKeysInstall) {
    if (ctx->server_keys) ctx->server_keys->Install(chunk.hash, chunk.view);
    out->insert(out->end(), chunk.view.data(),
                chunk.view.data() + chunk.view.size());
    return Status::OK();
  }
  // kKeysRef
  const std::vector<uint8_t>* cached =
      ctx->server_keys ? ctx->server_keys->Lookup(chunk.hash) : nullptr;
  if (cached == nullptr || cached->size() != chunk.count) {
    return Status::FailedPrecondition(std::string(kKeyCacheMissPrefix) +
                                      ": hash " + std::to_string(chunk.hash));
  }
  out->insert(out->end(), cached->begin(), cached->end());
  return Status::OK();
}

Status DeltaQuantFilter::Encode(FilterContext* ctx,
                                std::vector<FilterChunk>* chunks,
                                bool* applied) const {
  (void)ctx;
  for (FilterChunk& c : *chunks) {
    if (!c.marked || c.kind != SectionKind::kF64Values ||
        c.tag != FilterChunk::kVerbatim || c.view.empty() ||
        c.view.size() % sizeof(double) != 0) {
      continue;
    }
    const size_t n = c.view.size() / sizeof(double);
    // One pass for the scale; bail verbatim on any non-finite value so
    // NaN/Inf payloads round-trip bit-exact.
    double max_abs = 0.0;
    bool finite = true;
    for (size_t i = 0; i < n; ++i) {
      double v;
      std::memcpy(&v, c.view.data() + i * sizeof(double), sizeof(double));
      if (!std::isfinite(v)) {
        finite = false;
        break;
      }
      max_abs = std::max(max_abs, std::fabs(v));
    }
    if (!finite) continue;
    const double step = max_abs / 32767.0;
    std::vector<int64_t> qs(n);
    for (size_t i = 0; i < n; ++i) {
      double v;
      std::memcpy(&v, c.view.data() + i * sizeof(double), sizeof(double));
      qs[i] = step == 0.0 ? 0 : std::llround(v / step);
    }
    // Two codings share the quantized stream: delta+zigzag varints win on
    // smooth spans (counts, sorted content), fixed 16-bit wins on noisy
    // gradient spans where consecutive deltas span the whole range. Pick
    // the smaller; the leading mode byte tells the decoder which.
    size_t varint_len = 0;
    int64_t prev = 0;
    for (int64_t q : qs) {
      const int64_t d = q - prev;
      varint_len += VarintLen((static_cast<uint64_t>(d) << 1) ^
                              static_cast<uint64_t>(d >> 63));
      prev = q;
    }
    BufferWriter w(1 + std::min(varint_len, 2 * n));
    if (varint_len <= 2 * n) {
      w.WriteU8(kQuantModeDeltaVarint);
      prev = 0;
      for (int64_t q : qs) {
        w.WriteSignedVarint(q - prev);
        prev = q;
      }
    } else {
      w.WriteU8(kQuantModeFixed16);
      for (int64_t q : qs) {
        const uint16_t z = static_cast<uint16_t>(
            (static_cast<uint64_t>(q) << 1) ^ static_cast<uint64_t>(q >> 63));
        w.WriteU8(static_cast<uint8_t>(z));
        w.WriteU8(static_cast<uint8_t>(z >> 8));
      }
    }
    c.tag = FilterChunk::kValuesQuant;
    c.count = n;
    c.scale = step;
    c.owned = w.Release();
    *applied = true;
  }
  return Status::OK();
}

Status DeltaQuantFilter::DecodeChunk(FilterContext* ctx,
                                     const FilterChunk& chunk,
                                     std::vector<uint8_t>* out) const {
  (void)ctx;
  BufferReader r(chunk.data());
  PS2_ASSIGN_OR_RETURN(uint8_t mode, r.ReadU8());
  if (mode != kQuantModeDeltaVarint && mode != kQuantModeFixed16) {
    return Status::OutOfRange("unknown quantized value coding");
  }
  // A value takes at least one byte (a varint) or exactly two (fixed16):
  // reject a count the chunk cannot hold before sizing the output from it.
  const size_t min_bytes = mode == kQuantModeDeltaVarint ? 1 : 2;
  if (chunk.count > r.remaining() / min_bytes) {
    return Status::OutOfRange("quantized value count exceeds its chunk");
  }
  const size_t base = out->size();
  out->resize(base + chunk.count * sizeof(double));
  uint8_t* dst = out->data() + base;
  int64_t q = 0;
  for (uint64_t i = 0; i < chunk.count; ++i) {
    if (mode == kQuantModeDeltaVarint) {
      PS2_ASSIGN_OR_RETURN(int64_t delta, r.ReadSignedVarint());
      q += delta;
    } else {
      PS2_ASSIGN_OR_RETURN(uint8_t lo, r.ReadU8());
      PS2_ASSIGN_OR_RETURN(uint8_t hi, r.ReadU8());
      const uint16_t z = static_cast<uint16_t>(lo | (hi << 8));
      q = static_cast<int64_t>(z >> 1) ^ -static_cast<int64_t>(z & 1);
    }
    const double v = static_cast<double>(q) * chunk.scale;
    std::memcpy(dst + i * sizeof(double), &v, sizeof(double));
  }
  if (!r.AtEnd()) {
    return Status::OutOfRange("trailing bytes in quantized value chunk");
  }
  return Status::OK();
}

// ---- Chain -----------------------------------------------------------------

FilterChain::FilterChain() : structural_{&keycache_, &delta_} {}

EncodedPayload FilterChain::Encode(Slice payload,
                                   const std::vector<PayloadSection>& sections,
                                   uint8_t want_mask, size_t prefix,
                                   FilterContext* ctx) const {
  EncodedPayload out;
  out.stats.logical_bytes = payload.size();
  out.stats.wire_bytes = payload.size();
  if (want_mask == 0 || payload.size() <= prefix) return out;
  EncodeStats* caller_stats = ctx->stats;
  ctx->stats = &out.stats;

  // --- Structural stage: split at the section marks, run the filters.
  std::vector<uint8_t> framed;
  bool framed_valid = false;
  if ((want_mask & (kFilterKeyCache | kFilterDelta)) && !sections.empty()) {
    std::vector<FilterChunk> chunks;
    size_t pos = prefix;
    bool sections_ok = true;
    for (const PayloadSection& s : sections) {
      if (s.offset < pos || s.len > payload.size() - s.offset) {
        sections_ok = false;  // overlapping/out-of-bounds marks: skip stage
        break;
      }
      if (s.offset > pos) {
        FilterChunk gap;
        gap.view = payload.subslice(pos, s.offset - pos);
        chunks.push_back(gap);
      }
      FilterChunk c;
      c.kind = s.kind;
      c.marked = true;
      c.view = payload.subslice(s.offset, s.len);
      chunks.push_back(std::move(c));
      pos = s.offset + s.len;
    }
    if (sections_ok) {
      if (pos < payload.size()) {
        FilterChunk tail;
        tail.view = payload.subslice(pos, payload.size() - pos);
        chunks.push_back(tail);
      }
      bool any = false;
      for (const IFilter* f : structural_) {
        if (!(want_mask & f->bit())) continue;
        bool applied = false;
        if (f->Encode(ctx, &chunks, &applied).ok() && applied) {
          out.mask |= f->bit();
          any = true;
        }
      }
      if (any) {
        BufferWriter w(payload.size());
        w.WriteVarint(chunks.size());
        for (const FilterChunk& c : chunks) {
          w.WriteU8(c.tag);
          switch (c.tag) {
            case FilterChunk::kVerbatim:
              w.WriteVarint(c.view.size());
              w.WriteBytes(c.view);
              break;
            case FilterChunk::kKeysInstall:
              w.WriteU64(c.hash);
              w.WriteVarint(c.view.size());
              w.WriteBytes(c.view);
              break;
            case FilterChunk::kKeysRef:
              w.WriteU64(c.hash);
              w.WriteVarint(c.count);
              break;
            case FilterChunk::kValuesQuant:
              w.WriteVarint(c.count);
              w.WriteF64(c.scale);
              w.WriteVarint(c.owned.size());
              w.WriteBytes(Slice(c.owned));
              break;
          }
        }
        framed = w.Release();
        framed_valid = true;
      }
    }
  }

  // --- Byte stage: compress whichever body survives the structural stage.
  const Slice body = framed_valid
                         ? Slice(framed)
                         : payload.subslice(prefix, payload.size() - prefix);
  std::vector<uint8_t> compressed;
  bool compressed_valid = false;
  if ((want_mask & kFilterCompress) && body.size() > 16) {
    std::vector<uint8_t> blob = LzCompress(body);
    if (VarintLen(body.size()) + blob.size() < body.size()) {
      compressed = std::move(blob);
      compressed_valid = true;
      out.mask |= kFilterCompress;
    }
  }

  ctx->stats = caller_stats;
  if (out.mask == 0) return out;  // nothing applied: alias the original

  BufferWriter w(prefix + (compressed_valid ? compressed.size() : body.size()) +
                 8);
  w.WriteBytes(payload.subslice(0, prefix));
  if (compressed_valid) {
    w.WriteVarint(body.size());
    w.WriteBytes(Slice(compressed));
  } else {
    w.WriteBytes(body);
  }
  out.wire = w.Release();
  out.stats.wire_bytes = out.wire.size();
  // Framing overhead can exceed the savings on small payloads. If the
  // filtered form failed to shrink, fall back to the verbatim payload — safe
  // unless this encode touched the key caches, whose state the wire bytes
  // must now carry (a dropped install would orphan the client-side record).
  if (out.wire.size() >= payload.size() && out.stats.keycache_installs == 0 &&
      out.stats.keycache_refs == 0) {
    out.mask = 0;
    out.wire.clear();
    out.stats = EncodeStats{};
    out.stats.logical_bytes = payload.size();
    out.stats.wire_bytes = payload.size();
  }
  return out;
}

Result<std::vector<uint8_t>> FilterChain::Decode(Slice wire, uint8_t mask,
                                                 size_t prefix,
                                                 FilterContext* ctx) const {
  if (wire.size() < prefix) {
    return Status::OutOfRange("filtered payload shorter than its prefix");
  }
  std::vector<uint8_t> out(wire.data(), wire.data() + prefix);
  if (mask == 0) {
    out.insert(out.end(), wire.data() + prefix, wire.data() + wire.size());
    return out;
  }

  Slice body = wire.subslice(prefix, wire.size() - prefix);
  std::vector<uint8_t> decompressed;
  if (mask & kFilterCompress) {
    BufferReader r(body);
    PS2_ASSIGN_OR_RETURN(uint64_t raw_len, r.ReadVarint());
    PS2_ASSIGN_OR_RETURN(Slice blob, r.ReadBytes(r.remaining()));
    PS2_ASSIGN_OR_RETURN(decompressed, LzDecompress(blob, raw_len));
    body = decompressed;
  }

  if ((mask & (kFilterKeyCache | kFilterDelta)) == 0) {
    out.insert(out.end(), body.data(), body.data() + body.size());
    return out;
  }

  BufferReader r(body);
  // Each chunk: a tag byte plus at least a one-byte varint.
  PS2_ASSIGN_OR_RETURN(uint64_t n_chunks, r.ReadCount(2));
  for (uint64_t i = 0; i < n_chunks; ++i) {
    PS2_ASSIGN_OR_RETURN(uint8_t tag, r.ReadU8());
    FilterChunk c;
    c.tag = static_cast<FilterChunk::Tag>(tag);
    switch (c.tag) {
      case FilterChunk::kVerbatim: {
        PS2_ASSIGN_OR_RETURN(uint64_t len, r.ReadVarint());
        PS2_ASSIGN_OR_RETURN(Slice bytes, r.ReadBytes(len));
        out.insert(out.end(), bytes.data(), bytes.data() + bytes.size());
        break;
      }
      case FilterChunk::kKeysInstall: {
        PS2_ASSIGN_OR_RETURN(c.hash, r.ReadU64());
        PS2_ASSIGN_OR_RETURN(uint64_t len, r.ReadVarint());
        PS2_ASSIGN_OR_RETURN(c.view, r.ReadBytes(len));
        PS2_RETURN_NOT_OK(keycache_.DecodeChunk(ctx, c, &out));
        break;
      }
      case FilterChunk::kKeysRef: {
        PS2_ASSIGN_OR_RETURN(c.hash, r.ReadU64());
        PS2_ASSIGN_OR_RETURN(c.count, r.ReadVarint());
        PS2_RETURN_NOT_OK(keycache_.DecodeChunk(ctx, c, &out));
        break;
      }
      case FilterChunk::kValuesQuant: {
        PS2_ASSIGN_OR_RETURN(c.count, r.ReadVarint());
        PS2_ASSIGN_OR_RETURN(c.scale, r.ReadF64());
        PS2_ASSIGN_OR_RETURN(uint64_t len, r.ReadVarint());
        PS2_ASSIGN_OR_RETURN(c.view, r.ReadBytes(len));
        PS2_RETURN_NOT_OK(delta_.DecodeChunk(ctx, c, &out));
        break;
      }
      default:
        return Status::OutOfRange("unknown filter chunk tag");
    }
  }
  if (!r.AtEnd()) {
    return Status::OutOfRange("trailing bytes after chunk stream");
  }
  return out;
}

bool IsKeyCacheMiss(const Status& status) {
  return status.IsFailedPrecondition() &&
         status.message().rfind(kKeyCacheMissPrefix, 0) == 0;
}

}  // namespace ps2
