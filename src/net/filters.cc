#include "net/filters.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"
#include "linalg/kernels/kernels.h"

namespace ps2 {

namespace {

constexpr const char* kKeyCacheMissPrefix = "keycache miss";

// Leading byte of a kValuesQuant chunk's coded stream.
constexpr uint8_t kQuantModeDeltaVarint = 0;
constexpr uint8_t kQuantModeFixed16 = 1;

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

inline uint32_t Load32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

inline uint64_t Load64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

inline uint32_t LzHash4(const uint8_t* p) {
  return (Load32(p) * 2654435761u) >> (32 - kLzHashBits);
}

/// The matcher's hash table, reused by every call on one thread. Slots hold
/// positions in a per-thread stream that each call extends by its input
/// length plus one, so a slot last written by an earlier call reads as
/// below the current call's base — empty — and no call has to clear the
/// table; it is zeroed only when the 32-bit stream position would wrap.
/// 32-bit slots keep it at 128 KiB.
struct LzTable {
  std::vector<uint32_t> slots = std::vector<uint32_t>(size_t{1} << kLzHashBits);
  uint64_t next_base = 1;  // slots start at 0: empty for every call
};

/// Extends a match whose first `len` bytes of a and b agree to the first
/// byte where they differ, or to n: eight bytes per step, then one at a time.
inline size_t ExtendMatch(const uint8_t* a, const uint8_t* b, size_t len,
                          size_t n) {
  while (len + 8 <= n) {
    const uint64_t diff = Load64(a + len) ^ Load64(b + len);
    if (diff != 0) {
#if __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
      return len + static_cast<size_t>(__builtin_ctzll(diff)) / 8;
#else
      return len + static_cast<size_t>(__builtin_clzll(diff)) / 8;
#endif
    }
    len += 8;
  }
  while (len < n && a[len] == b[len]) ++len;
  return len;
}

/// Appends the LZ ops of `in` to `out` (LzCompress's body).
void LzCompressTo(Slice in, BufferWriter* out) {
  const uint8_t* p = in.data();
  const size_t n = in.size();
  PS2_CHECK(n <= kLzMaxRawLen);  // every position fits a 32-bit slot
  thread_local LzTable table;
  if (table.next_base + n + 1 > (uint64_t{1} << 32)) {
    std::fill(table.slots.begin(), table.slots.end(), 0u);
    table.next_base = 1;
  }
  const auto base = static_cast<uint32_t>(table.next_base);
  table.next_base += n + 1;
  uint32_t* slots = table.slots.data();

  size_t lit_start = 0;
  auto flush_literals = [&](size_t end) {
    if (end <= lit_start) return;
    out->WriteU8(0);
    out->WriteVarint(end - lit_start);
    out->WriteBytes(Slice(p + lit_start, end - lit_start));
  };

  size_t i = 0;
  while (i + kLzMinMatch <= n) {
    const uint32_t h = LzHash4(p + i);
    const uint32_t cand = slots[h];
    slots[h] = base + static_cast<uint32_t>(i);
    const size_t from = cand - base;  // meaningful only if cand >= base
    if (cand >= base && i - from <= kLzMaxDist &&
        Load32(p + from) == Load32(p + i)) {
      const size_t len = ExtendMatch(p + from, p + i, kLzMinMatch, n - i);
      flush_literals(i);
      out->WriteU8(1);
      out->WriteVarint(len);
      out->WriteVarint(i - from);
      const size_t end = i + len;
      ++i;  // position i itself is already in the table
      while (i < end && i + kLzMinMatch <= n) {
        slots[LzHash4(p + i)] = base + static_cast<uint32_t>(i);
        ++i;
      }
      i = end;
      lit_start = i;
    } else {
      ++i;
    }
  }
  flush_literals(n);
}

/// Appends the `raw_len` bytes `in` expands to onto `out`.
Status LzDecompressTo(Slice in, size_t raw_len, std::vector<uint8_t>* out) {
  // `raw_len` arrives off the wire, and a match op expands without bound
  // (RLE), so the stream itself cannot vouch for it: cap it before sizing
  // anything from it.
  if (raw_len > kLzMaxRawLen) {
    return Status::OutOfRange("lz raw length exceeds frame limit");
  }
  const size_t base = out->size();
  out->reserve(base + raw_len);
  size_t done = 0;  // bytes produced so far
  BufferReader r(in);
  while (done < raw_len) {
    PS2_ASSIGN_OR_RETURN(uint8_t op, r.ReadU8());
    if (op == 0) {
      PS2_ASSIGN_OR_RETURN(uint64_t len, r.ReadVarint());
      if (len > raw_len - done) {
        return Status::OutOfRange("lz literal run exceeds raw length");
      }
      PS2_ASSIGN_OR_RETURN(Slice lit, r.ReadBytes(len));
      out->insert(out->end(), lit.data(), lit.data() + lit.size());
      done += len;
    } else if (op == 1) {
      PS2_ASSIGN_OR_RETURN(uint64_t len, r.ReadVarint());
      PS2_ASSIGN_OR_RETURN(uint64_t dist, r.ReadVarint());
      if (dist == 0 || dist > done) {
        return Status::OutOfRange("lz match distance out of range");
      }
      if (len > raw_len - done) {
        return Status::OutOfRange("lz match exceeds raw length");
      }
      out->resize(base + done + len);  // within the reservation: no move
      uint8_t* dst = out->data() + base + done;
      const uint8_t* src = dst - dist;
      if (dist >= len) {
        std::memcpy(dst, src, len);
      } else {
        // Overlapping (RLE): each byte may be one this op just wrote.
        for (uint64_t k = 0; k < len; ++k) dst[k] = src[k];
      }
      done += len;
    } else {
      return Status::OutOfRange("unknown lz op");
    }
  }
  if (!r.AtEnd()) return Status::OutOfRange("trailing bytes after lz stream");
  return Status::OK();
}

}  // namespace

std::vector<uint8_t> LzCompress(Slice in) {
  BufferWriter out(in.size() / 2 + 16);
  LzCompressTo(in, &out);
  return out.Release();
}

Result<std::vector<uint8_t>> LzDecompress(Slice in, size_t raw_len) {
  std::vector<uint8_t> out;
  PS2_RETURN_NOT_OK(LzDecompressTo(in, raw_len, &out));
  return out;
}

// ---- Key caches ------------------------------------------------------------

void ServerKeyCache::Install(uint64_t hash, Slice bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  if (entries_.count(hash)) return;  // idempotent (replay-safe)
  if (entries_.size() >= kMaxEntries) {
    entries_.erase(order_.front());  // FIFO: the oldest install goes
    order_.pop_front();
  }
  entries_.emplace(hash, bytes.ToVector());
  order_.push_back(hash);
}

const std::vector<uint8_t>* ServerKeyCache::Lookup(uint64_t hash) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(hash);
  return it == entries_.end() ? nullptr : &it->second;
}

void ServerKeyCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  order_.clear();
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
  const kernels::KernelTable& k = kernels::Active();
  // Quantized values of the current span; reused so a large span costs no
  // allocation (or page faults) per call.
  thread_local std::vector<int64_t> qs;
  for (FilterChunk& c : *chunks) {
    if (!c.marked || c.kind != SectionKind::kF64Values ||
        c.tag != FilterChunk::kVerbatim || c.view.empty() ||
        c.view.size() % sizeof(double) != 0) {
      continue;
    }
    const size_t n = c.view.size() / sizeof(double);
    // The scale; a span with a non-finite value stays verbatim so NaN/Inf
    // payloads round-trip bit-exact.
    double max_abs = 0.0;
    if (!k.absmax(c.view.data(), n, &max_abs)) continue;
    const double step = max_abs / 32767.0;
    if (qs.size() < n) qs.resize(n);
    const size_t varint_len = k.quantize(c.view.data(), n, step, qs.data());
    // Two codings share the quantized stream: delta+zigzag varints win on
    // smooth spans (counts, sorted content), fixed 16-bit wins on noisy
    // gradient spans where consecutive deltas span the whole range. Pick
    // the smaller; the leading mode byte tells the decoder which.
    if (varint_len <= 2 * n) {
      c.owned.resize(1 + varint_len);
      uint8_t* p = c.owned.data();
      *p++ = kQuantModeDeltaVarint;
      uint64_t prev = 0;
      for (size_t i = 0; i < n; ++i) {
        const auto q = static_cast<uint64_t>(qs[i]);
        uint64_t z = kernels::ZigZag(q - prev);
        prev = q;
        while (z >= 0x80) {
          *p++ = static_cast<uint8_t>(z) | 0x80;
          z >>= 7;
        }
        *p++ = static_cast<uint8_t>(z);
      }
    } else {
      c.owned.resize(1 + 2 * n);
      c.owned[0] = kQuantModeFixed16;
      k.pack_fixed16(qs.data(), n, c.owned.data() + 1);
    }
    c.tag = FilterChunk::kValuesQuant;
    c.count = n;
    c.scale = step;
    *applied = true;
  }
  return Status::OK();
}

namespace {

/// Decodes `count` delta-zigzag varints from [p, end) into doubles q * scale
/// at dst. Fails on a truncated or over-long varint or on trailing bytes —
/// the errors BufferReader::ReadSignedVarint and AtEnd() would give.
Status DecodeDeltaVarints(const uint8_t* p, const uint8_t* end, uint64_t count,
                          double scale, uint8_t* dst) {
  uint64_t q = 0;
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t raw = 0;
    for (int shift = 0;; shift += 7) {
      if (p == end) return Status::OutOfRange("truncated varint");
      if (shift >= 64) return Status::OutOfRange("varint too long");
      const uint8_t byte = *p++;
      raw |= static_cast<uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) break;
    }
    q += (raw >> 1) ^ (0 - (raw & 1));  // wraps like the encoder's deltas
    const double v = static_cast<double>(static_cast<int64_t>(q)) * scale;
    std::memcpy(dst + i * sizeof(double), &v, sizeof(v));
  }
  if (p != end) {
    return Status::OutOfRange("trailing bytes in quantized value chunk");
  }
  return Status::OK();
}

}  // namespace

Status DeltaQuantFilter::DecodeChunk(FilterContext* ctx,
                                     const FilterChunk& chunk,
                                     std::vector<uint8_t>* out) const {
  (void)ctx;
  const Slice data = chunk.data();
  if (data.empty()) return Status::OutOfRange("read past end of buffer");
  const uint8_t mode = data[0];
  if (mode != kQuantModeDeltaVarint && mode != kQuantModeFixed16) {
    return Status::OutOfRange("unknown quantized value coding");
  }
  // A value takes at least one byte (a varint) or exactly two (fixed16):
  // reject a count the chunk cannot hold before sizing the output from it.
  const size_t body = data.size() - 1;
  const size_t min_bytes = mode == kQuantModeDeltaVarint ? 1 : 2;
  if (chunk.count > body / min_bytes) {
    return Status::OutOfRange("quantized value count exceeds its chunk");
  }
  if (mode == kQuantModeFixed16 && body != 2 * chunk.count) {
    return Status::OutOfRange("trailing bytes in quantized value chunk");
  }
  const size_t base = out->size();
  out->resize(base + chunk.count * sizeof(double));
  uint8_t* dst = out->data() + base;
  if (mode == kQuantModeFixed16) {
    kernels::Active().dequant_fixed16(data.data() + 1, chunk.count,
                                      chunk.scale, dst);
    return Status::OK();
  }
  return DecodeDeltaVarints(data.data() + 1, data.data() + data.size(),
                            chunk.count, chunk.scale, dst);
}

// ---- Chain -----------------------------------------------------------------

namespace {

/// Bytes `c` takes in the framed chunk stream (FilterChain::Encode).
size_t FramedChunkSize(const FilterChunk& c) {
  using kernels::VarintBytes;
  switch (c.tag) {
    case FilterChunk::kVerbatim:
      return 1 + VarintBytes(c.view.size()) + c.view.size();
    case FilterChunk::kKeysInstall:
      return 1 + 8 + VarintBytes(c.view.size()) + c.view.size();
    case FilterChunk::kKeysRef:
      return 1 + 8 + VarintBytes(c.count);
    case FilterChunk::kValuesQuant:
      return 1 + VarintBytes(c.count) + 8 + VarintBytes(c.owned.size()) +
             c.owned.size();
  }
  return 0;
}

}  // namespace

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
  const Slice head = payload.subslice(0, prefix);

  // --- Structural stage: split at the section marks, run the filters, and
  // frame the chunks behind the prefix: [prefix][varint n_chunks][chunks].
  std::vector<uint8_t> framed;  // empty unless a structural filter applied
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
        size_t size = prefix + kernels::VarintBytes(chunks.size());
        for (const FilterChunk& c : chunks) size += FramedChunkSize(c);
        BufferWriter w(size);
        w.WriteBytes(head);
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
      }
    }
  }

  // --- Byte stage: compress whichever body survives the structural stage,
  // as [prefix][varint raw_len][LZ ops], kept only if it shrinks the body.
  const Slice body =
      framed.empty() ? payload.subslice(prefix, payload.size() - prefix)
                     : Slice(framed).subslice(prefix, framed.size() - prefix);
  std::vector<uint8_t> compressed;  // empty unless kept
  if ((want_mask & kFilterCompress) && body.size() > 16 &&
      body.size() <= kLzMaxRawLen) {
    BufferWriter w(prefix + kMaxVarintBytes + body.size() + body.size() / 8);
    w.WriteBytes(head);
    w.WriteVarint(body.size());
    LzCompressTo(body, &w);
    if (w.size() - prefix < body.size()) {
      compressed = w.Release();
      out.mask |= kFilterCompress;
    }
  }

  ctx->stats = caller_stats;
  if (out.mask == 0) return out;  // nothing applied: alias the original

  out.wire = compressed.empty() ? std::move(framed) : std::move(compressed);
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
  const bool structural = (mask & (kFilterKeyCache | kFilterDelta)) != 0;
  if (mask == 0) {
    return std::vector<uint8_t>(wire.data(), wire.data() + wire.size());
  }
  std::vector<uint8_t> out(wire.data(), wire.data() + prefix);
  Slice body = wire.subslice(prefix, wire.size() - prefix);
  std::vector<uint8_t> decompressed;
  if (mask & kFilterCompress) {
    BufferReader r(body);
    PS2_ASSIGN_OR_RETURN(uint64_t raw_len, r.ReadVarint());
    PS2_ASSIGN_OR_RETURN(Slice blob, r.ReadBytes(r.remaining()));
    if (!structural) {  // the raw bytes are the payload body itself
      PS2_RETURN_NOT_OK(LzDecompressTo(blob, raw_len, &out));
      return out;
    }
    PS2_RETURN_NOT_OK(LzDecompressTo(blob, raw_len, &decompressed));
    body = decompressed;
  }

  if (!structural) {
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
