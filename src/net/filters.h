#pragma once

// Wire-level filter chain: key-set caching, delta/fixed-point value coding,
// and byte compression applied to serialized RPC payloads.
//
// Pipeline (encode; decode is the exact mirror):
//
//   logical payload + PayloadSection marks
//     -> chunk stream        (split at the marked key/value sections)
//     -> structural filters  (keycache rewrites kKeys chunks,
//                             delta/quant rewrites kF64Values chunks)
//     -> framed bytes        ([prefix][varint n_chunks][chunks...])
//     -> compress filter     ([prefix][varint raw_len][LZ ops])
//
// The first `prefix` bytes (the opcode byte of a request; 0 for responses)
// stay verbatim at offset 0 of the wire form, so the server's dedup peek and
// opcode dispatch never decode anything. The applied-filter mask travels
// out-of-band in the WireFrame (net/message.h) — the same fixed-header slot
// convention the RpcHeader already uses — so a filters-off payload is
// byte-identical to the unfiltered wire format.
//
// Filter contracts:
//   * keycache and compress are bit-exact on decode.
//   * delta quantizes each marked f64 span to 16-bit fixed point with a
//     per-span scale (step = max|v| / 32767): |decoded - v| <= step / 2,
//     deterministic, and idempotent (re-encoding a decoded span reproduces
//     the same wire bytes). Spans containing non-finite values travel
//     verbatim so NaN/Inf round-trip exactly.
//   * a replayed request cannot corrupt key-cache state: installs are
//     content-addressed (hash -> exact bytes) and therefore idempotent, and
//     the server consults its dedup table before decoding.

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <vector>

#include "common/result.h"
#include "common/serde.h"
#include "common/slice.h"
#include "net/filter_config.h"

namespace ps2 {

/// 64-bit FNV-1a over `bytes` (the key-cache content address).
uint64_t HashBytes64(Slice bytes);

// ---- Byte compressor (the `compress` filter's codec) ----------------------

/// Largest raw length LzDecompress accepts (1 GiB, far above any frame the
/// system builds); a claimed length above it is rejected unallocated.
constexpr size_t kLzMaxRawLen = size_t{1} << 30;

/// Greedy LZ with a 4-byte hash dictionary (2^15 slots, 64 KiB window) and
/// literal runs. Output is self-contained ops; decompression needs the
/// expected raw length. Deterministic: the ops depend on the input alone.
/// `in` must not exceed kLzMaxRawLen (LzDecompress would refuse it).
std::vector<uint8_t> LzCompress(Slice in);
Result<std::vector<uint8_t>> LzDecompress(Slice in, size_t raw_len);

// ---- Key caches -----------------------------------------------------------

/// \brief Server-side content-addressed cache of sparse key lists.
///
/// Bounded; when full, an install evicts the oldest entry (FIFO). A ref to
/// an evicted hash is an ordinary key-cache miss: the client re-sends the
/// install. Cleared by PsServer::DropAllState — a recovered server forgets
/// everything and the client's next ref faults in a fresh install via the
/// miss protocol.
class ServerKeyCache {
 public:
  static constexpr size_t kMaxEntries = 4096;

  /// Idempotent: re-installing an existing hash is a no-op, which is what
  /// makes duplicate-delivered installs (PR-3 retries) safe.
  void Install(uint64_t hash, Slice bytes);
  /// The cached bytes, or nullptr (a key-cache miss). Valid until the next
  /// Install or Clear (PsServer decodes requests under its own lock).
  const std::vector<uint8_t>* Lookup(uint64_t hash) const;
  void Clear();
  size_t size() const;

 private:
  mutable std::mutex mu_;
  std::map<uint64_t, std::vector<uint8_t>> entries_;
  std::deque<uint64_t> order_;  ///< install order, oldest first
};

/// \brief Client-side record of which key-list hashes each server holds.
///
/// Decisions happen at request-stamp time on the issuing thread (program
/// order), so whether a request carries an install or a ref — and therefore
/// its wire byte count — is deterministic. Epoch-invalidated alongside the
/// hotspot epochs: any epoch change clears the installed sets (the epoch
/// bumps exactly when servers were recovered or the hot set moved).
class ClientKeyCache {
 public:
  /// What the encoder should do with a key list hashing to some value.
  enum class Admission {
    kVerbatim,  ///< first sighting: send the literal bytes, remember the hash
    kInstall,   ///< second sighting: the list recurs, install it
    kRef,       ///< installed: replace the list with its hash
  };

  /// Lists at least this long are installed on first sighting: the 8-byte
  /// install hash is a cheap bet against a potential `len` saving per ref.
  /// Shorter lists must be sighted twice first, so one-shot key lists (SGD
  /// batches that never repeat) cost nothing on the wire.
  static constexpr size_t kOptimisticInstallBytes = 24;

  /// Size-tiered admission for a key list of `len` bytes hashing to `hash`,
  /// bound for `server`. Installs mark the hash installed optimistically —
  /// the miss protocol repairs the optimism if the request never lands —
  /// and later sightings emit refs. `force` skips straight to an install
  /// (key-cache miss retry).
  Admission Admit(int server, uint64_t hash, size_t len, bool force);
  /// Drops everything believed installed on `server` (key-cache miss — the
  /// server evidently lost state).
  void InvalidateServer(int server);
  /// Clears all installed sets when `epoch` differs from the last seen.
  void SyncEpoch(uint64_t epoch);

 private:
  std::mutex mu_;
  uint64_t epoch_ = 0;
  /// hash -> installed? (false = seen once, awaiting a second sighting)
  std::map<int, std::map<uint64_t, bool>> state_;
};

// ---- The chain ------------------------------------------------------------

/// Which way a payload is travelling (key caching is request-only).
enum class FilterDir { kClientToServer, kServerToClient };

/// \brief Per-payload byte accounting produced by an encode.
struct EncodeStats {
  uint64_t logical_bytes = 0;      ///< pre-filter payload size
  uint64_t wire_bytes = 0;         ///< post-filter payload size
  uint64_t keycache_refs = 0;      ///< key lists replaced by a hash
  uint64_t keycache_installs = 0;  ///< key lists sent with an install hash
};

/// \brief Everything a filter needs besides the payload itself.
struct FilterContext {
  FilterDir dir = FilterDir::kClientToServer;
  int server = -1;                        ///< destination server (encode)
  bool force_key_install = false;         ///< retry after a key-cache miss
  ClientKeyCache* client_keys = nullptr;  ///< encode side (requests)
  ServerKeyCache* server_keys = nullptr;  ///< decode side (requests)
  EncodeStats* stats = nullptr;
};

/// \brief One chunk of the structural stream between filters.
struct FilterChunk {
  /// Wire tags. kKeys / kF64Values never hit the wire — they are the
  /// pre-transform section kinds; untransformed chunks serialize as
  /// kVerbatim.
  enum Tag : uint8_t {
    kVerbatim = 0,
    kKeysInstall = 1,
    kKeysRef = 2,
    kValuesQuant = 3,
  };
  Tag tag = kVerbatim;
  SectionKind kind = SectionKind::kKeys;  ///< pre-transform meaning
  bool marked = false;          ///< came from a PayloadSection mark
  Slice view;                   ///< literal bytes (into the logical payload)
  std::vector<uint8_t> owned;   ///< transformed bytes (quant varint stream)
  uint64_t hash = 0;            ///< kKeysInstall / kKeysRef
  uint64_t count = 0;           ///< kKeysRef: byte length; kValuesQuant: n
  double scale = 0.0;           ///< kValuesQuant quantization step

  Slice data() const { return owned.empty() ? view : Slice(owned); }
};

/// \brief A structural filter: rewrites chunks on encode, restores the
/// original bytes on decode. (The compress filter is byte-level and lives in
/// the chain's framing step instead.)
class IFilter {
 public:
  virtual ~IFilter() = default;
  virtual uint8_t bit() const = 0;
  virtual const char* name() const = 0;
  /// Rewrites chunks in place; sets *applied if any chunk was transformed.
  virtual Status Encode(FilterContext* ctx, std::vector<FilterChunk>* chunks,
                        bool* applied) const = 0;
  /// Inverse of Encode for the tags this filter owns; appends the restored
  /// bytes of `chunk` to `out`.
  virtual Status DecodeChunk(FilterContext* ctx, const FilterChunk& chunk,
                             std::vector<uint8_t>* out) const = 0;
};

class KeyCacheFilter : public IFilter {
 public:
  uint8_t bit() const override { return kFilterKeyCache; }
  const char* name() const override { return "keycache"; }
  Status Encode(FilterContext* ctx, std::vector<FilterChunk>* chunks,
                bool* applied) const override;
  Status DecodeChunk(FilterContext* ctx, const FilterChunk& chunk,
                     std::vector<uint8_t>* out) const override;
};

class DeltaQuantFilter : public IFilter {
 public:
  uint8_t bit() const override { return kFilterDelta; }
  const char* name() const override { return "delta"; }
  Status Encode(FilterContext* ctx, std::vector<FilterChunk>* chunks,
                bool* applied) const override;
  Status DecodeChunk(FilterContext* ctx, const FilterChunk& chunk,
                     std::vector<uint8_t>* out) const override;
};

/// \brief Result of encoding one payload for the wire.
struct EncodedPayload {
  /// Filters actually applied. 0 means "send the logical payload as-is" —
  /// `wire` is then empty and the caller aliases the original buffer
  /// (zero-copy fast path).
  uint8_t mask = 0;
  std::vector<uint8_t> wire;
  EncodeStats stats;
};

/// \brief Drives the filters over one payload in both directions.
class FilterChain {
 public:
  FilterChain();

  /// Encodes `payload` for the wire. `want_mask` is the configured mask for
  /// this opcode; a filter's bit appears in the result only if it actually
  /// transformed (and, for compress, shrank) something. `prefix` leading
  /// bytes stay verbatim at the front of the wire form.
  EncodedPayload Encode(Slice payload,
                        const std::vector<PayloadSection>& sections,
                        uint8_t want_mask, size_t prefix,
                        FilterContext* ctx) const;

  /// Inverse of Encode: reconstructs the logical payload from wire bytes.
  /// A kKeysRef chunk whose hash is absent from ctx->server_keys returns
  /// FailedPrecondition (see IsKeyCacheMiss).
  Result<std::vector<uint8_t>> Decode(Slice wire, uint8_t mask, size_t prefix,
                                      FilterContext* ctx) const;

 private:
  KeyCacheFilter keycache_;
  DeltaQuantFilter delta_;
  /// Structural filters in chain order (keycache before delta; disjoint
  /// section kinds, so order only fixes the wire layout).
  std::vector<const IFilter*> structural_;
};

/// True if `status` is the key-cache miss protocol error: the client must
/// re-encode the same request with force_key_install and retry the same
/// sequence number.
bool IsKeyCacheMiss(const Status& status);

}  // namespace ps2
