#include "ps/ps_client.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "linalg/dense_vector.h"
#include "net/message.h"
#include "obs/trace.h"

namespace ps2 {

namespace {

double WallUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Opcode byte of a serialized request (0xff for an empty payload). Always
/// peeked on the logical payload — the wire form keeps byte 0 verbatim
/// (FilterChain prefix rule), so either view answers the same.
PsOpCode PeekOpCode(Slice payload) {
  return payload.empty() ? static_cast<PsOpCode>(0xff)
                         : static_cast<PsOpCode>(payload[0]);
}

/// One lazily built name table per metric base: tagged names allocate, and
/// ExecuteRequest runs for every message of every op.
const std::string* MakeOpNames(const char* base) {
  auto* names = new std::array<std::string, kNumPsOpCodes + 1>;
  for (int i = 0; i < kNumPsOpCodes; ++i) {
    (*names)[i] =
        TaggedName(base, {{"op", PsOpCodeName(static_cast<PsOpCode>(i))}});
  }
  (*names)[kNumPsOpCodes] = TaggedName(base, {{"op", "unknown"}});
  return names->data();
}

const std::string& OpName(const std::string* table, PsOpCode op) {
  const int i = static_cast<int>(op);
  return table[i >= 0 && i < kNumPsOpCodes ? i : kNumPsOpCodes];
}

/// Per-opcode slot in a histogram-pointer table sized kNumPsOpCodes + 1.
Histogram* OpHist(const std::vector<Histogram*>& table, PsOpCode op) {
  const int i = static_cast<int>(op);
  return table[i >= 0 && i < kNumPsOpCodes ? i : kNumPsOpCodes];
}

const std::string& ExchangeUsName(PsOpCode op) {
  static const std::string* table = MakeOpNames("ps.client.exchange_us");
  return OpName(table, op);
}

/// Charges the cluster clock with the collective cost of a coordinator-issued
/// op's fan-out: dependent round latency, the worst single server's share,
/// and local compute. Shared by OpScope (sync slow paths) and the async
/// harvest hook, so a coordinator op costs the same through either path.
void ChargeCoordinator(Cluster* cluster, const TaskTraffic& local) {
  cluster->ChargeOutOfTask(local);
}

/// Bound on routing-stale protocol rounds (fence waits + re-aims) per
/// request. Generous because a fence stays up for the real-time span of a
/// concurrent migration's extract/install/commit legs; a wedged fence still
/// surfaces as an error instead of hanging the exchange.
constexpr uint32_t kMaxRoutingRounds = 4096;

/// Deterministic "home" server a client refreshes a hot row from. Every
/// server holds the replica; hashing spreads refresh (and hot-push) load of
/// different hot rows across the fleet.
int HotHomeServer(RowRef ref, int num_servers) {
  uint64_t h = static_cast<uint64_t>(ref.matrix_id) * 0x9E3779B97F4A7C15ULL +
               static_cast<uint64_t>(ref.row) * 0xC2B2AE3D27D4EB4FULL;
  return static_cast<int>(h % static_cast<uint64_t>(num_servers));
}

}  // namespace

// ------------------------------------------------------------------- OpScope

/// Binds the op to the ambient task's traffic record, or — when issued from
/// the coordinator between stages — accumulates locally and charges the
/// cluster clock with the collective fan-out cost on destruction.
class PsClient::OpScope {
 public:
  explicit OpScope(Cluster* cluster) : cluster_(cluster) {
    ambient_ = TrafficScope::Current();
    traffic_ = ambient_ != nullptr ? ambient_ : &local_;
  }

  ~OpScope() {
    if (ambient_ != nullptr) return;
    ChargeCoordinator(cluster_, local_);
  }

  TaskTraffic* traffic() { return traffic_; }

 private:
  Cluster* cluster_;
  TaskTraffic* ambient_;
  TaskTraffic local_;
  TaskTraffic* traffic_;
};

// ----------------------------------------------------------------- AsyncCore

/// Leader/follower bookkeeping. Held by shared_ptr so harvest hooks (and
/// their retire tokens) stay valid even if a future outlives the client.
///
/// `outstanding` counts, per issue-context (TrafficScope pointer; nullptr =
/// the coordinator), the ops issued but not yet *harvested*. It is touched
/// only in caller program order (issue at submit, retire at first Wait/Get —
/// or at future abandonment), which is what makes leader/follower
/// classification — and hence virtual time — deterministic.
struct PsClient::AsyncCore {
  std::mutex mu;
  std::map<const void*, int> outstanding;

  /// Classifies the op: true = round leader (nothing outstanding in `ctx`).
  bool Issue(const void* ctx) {
    std::lock_guard<std::mutex> lock(mu);
    int& n = outstanding[ctx];
    const bool leader = n == 0;
    n += 1;
    return leader;
  }

  void Retire(const void* ctx) {
    std::lock_guard<std::mutex> lock(mu);
    auto it = outstanding.find(ctx);
    if (it != outstanding.end() && --it->second == 0) outstanding.erase(it);
  }
};

// ------------------------------------------------------------------ PsClient

PsClient::PsClient(PsMaster* master, PsClientOptions options)
    : master_(master),
      options_(options),
      core_(std::make_shared<AsyncCore>()) {
  PS2_CHECK(master != nullptr);
  if (options_.max_attempts < 1) options_.max_attempts = 1;
  filters_ =
      options_.filters.value_or(master_->cluster()->spec().filters);
  client_id_ = master_->AllocateClientId();
  const size_t n_servers =
      static_cast<size_t>(std::max(master_->num_servers(), 1));
  next_seq_ = std::make_unique<std::atomic<uint64_t>[]>(n_servers);
  for (size_t s = 0; s < n_servers; ++s) next_seq_[s].store(0);
  MetricsRegistry& metrics = master_->cluster()->metrics();
  exchange_us_hists_.resize(kNumPsOpCodes + 1);
  for (int i = 0; i <= kNumPsOpCodes; ++i) {
    const PsOpCode op =
        static_cast<PsOpCode>(i < kNumPsOpCodes ? i : 0xff);
    exchange_us_hists_[i] = metrics.GetOrCreateHistogram(ExchangeUsName(op));
  }
  retries_hist_ =
      metrics.GetOrCreateHistogram("ps.client.retries_per_exchange");
  backoff_hist_ =
      metrics.GetOrCreateHistogram("ps.client.backoff_per_exchange_s");
  master_->hotspot()->RegisterCache(&cache_);
}

PsClient::~PsClient() { master_->hotspot()->UnregisterCache(&cache_); }

PsClient::ServerRequest PsClient::MakeRequest(int server,
                                              BufferWriter* writer) {
  ServerRequest req;
  req.server = server;
  req.sections = writer->TakeSections();
  req.payload = writer->ReleaseShared();
  return req;
}

PsClient::ServerRequest PsClient::MakeRouted(const MatrixMeta& meta,
                                             int partition,
                                             BufferWriter* writer) {
  ServerRequest req =
      MakeRequest(meta.partitioner.ServerOfPartition(partition), writer);
  req.route_matrix = meta.id;
  req.route_partition = partition;
  // Stamp = version + 1: 0 stays the "unstamped" sentinel, so a request
  // planned against the initial table (version 0) is still distinguishable
  // from one that carries no routing information at all.
  req.header.routing_epoch = meta.routing_epoch + 1;
  return req;
}

PsClient::ServerRequest PsClient::MakeShardRequest(const MatrixMeta& meta,
                                                   int partition,
                                                   BufferWriter* writer) {
  ServerRequest req = MakeRouted(meta, partition, writer);
  req.shard_scoped = true;
  return req;
}

PsClient::ServerRequest PsClient::MakeHashRouted(const MatrixMeta& meta,
                                                 RowRef ref,
                                                 BufferWriter* writer) {
  // Hash-homed hot traffic spreads over the ACTIVE servers, not the fleet:
  // with a static cluster the two are the same list and this reduces to the
  // pre-elastic HotHomeServer(ref, num_servers()) routing bit-exactly.
  const std::vector<int> active = master_->active_servers();
  const int home = active[static_cast<size_t>(
      HotHomeServer(ref, static_cast<int>(active.size())))];
  ServerRequest req = MakeRequest(home, writer);
  req.hash_routed = true;
  req.hash_ref = ref;
  req.header.routing_epoch = meta.routing_epoch + 1;
  return req;
}

namespace {

/// One entry per owning server, in partition order. Shard-scoped opcodes
/// (ColumnOps, Aggregate, row batches, MatrixInit) operate on the target
/// server's whole contiguous shard and carry no column window, so they must
/// go out once per SERVER. Under elastic membership partitions are finer
/// than shards (DESIGN.md §12) and a per-partition fan-out would apply a
/// mutating op k times on a server owning k partitions. The representative
/// partition is the lowest one in the server's block: it routes the request
/// and re-aims it after a routing-epoch swap. With one partition per server
/// (a static cluster) this is exactly the old per-partition fan-out.
struct SpanTarget {
  int partition = 0;   // representative partition for routing
  uint64_t begin = 0;  // server's column span
  uint64_t end = 0;
};

std::vector<SpanTarget> SpanTargets(const ColumnPartitioner& part) {
  std::vector<SpanTarget> out;
  int last_server = -1;
  for (int p = 0; p < part.num_partitions(); ++p) {
    if (part.RangeWidth(p) == 0) continue;
    const int server = part.ServerOfPartition(p);
    if (server == last_server) continue;  // block assignments are contiguous
    last_server = server;
    SpanTarget t;
    t.partition = p;
    PS2_CHECK(part.ServerSpan(server, &t.begin, &t.end));
    out.push_back(t);
  }
  return out;
}

}  // namespace

void PsClient::EncodeRequest(ServerRequest* req, bool force_key_install) {
  // Reset to the zero-copy identity encoding first (idempotence: the
  // keycache-miss path re-encodes an already-encoded request).
  req->wire = req->payload;
  req->wire_mask = 0;
  req->estats = EncodeStats{};
  req->estats.logical_bytes = req->payload.size();
  req->estats.wire_bytes = req->payload.size();
  if (req->payload.empty()) return;
  const uint8_t want = filters_.bits;
  if (want == 0) return;
  // Key-cache decisions are epoch-scoped: any hotspot epoch bump (server
  // recovery, hot-set move) clears the client's installed sets, exactly when
  // servers may have lost theirs.
  if (want & kFilterKeyCache) {
    keycache_.SyncEpoch(master_->hotspot()->epoch());
  }
  FilterContext ctx;
  ctx.dir = FilterDir::kClientToServer;
  ctx.server = req->server;
  ctx.force_key_install = force_key_install;
  ctx.client_keys = &keycache_;
  EncodedPayload enc = chain_.Encode(req->payload.slice(), req->sections, want,
                                     /*prefix=*/1, &ctx);
  req->estats = enc.stats;
  if (enc.mask != 0) {
    req->wire = SharedBuf::FromVector(std::move(enc.wire));
    req->wire_mask = enc.mask;
  }
}

void PsClient::StampRequests(std::vector<ServerRequest>* requests) {
  for (ServerRequest& req : *requests) {
    req.header.client_id = client_id_;
    req.header.seq =
        next_seq_[req.server].fetch_add(1, std::memory_order_relaxed) + 1;
    req.header.attempt = 1;
    // Encode here — issuing thread, program order — so install-vs-ref
    // decisions (and with them the wire bytes the benches pin) are
    // deterministic regardless of how a pooled fan-out is scheduled.
    EncodeRequest(&req, /*force_key_install=*/false);
  }
}

PsClient::ExchangeOutcome PsClient::ExecuteRequest(ServerRequest& request) {
  ExchangeOutcome out;
  Cluster* cluster = master_->cluster();
  PsServer* server = master_->server(request.server);
  RpcHeader header = request.header;
  const int max_attempts = options_.max_attempts;
  const PsOpCode op = PeekOpCode(request.payload.slice());
  // Key-cache miss recovery re-encodes once (below); the guard keeps a
  // byzantine server from looping us.
  bool reencoded = false;
  // Routing-stale protocol rounds, bounded by kMaxRoutingRounds.
  uint32_t routing_rounds = 0;
  // Wall-clock per-exchange latency and virtual retry/backoff samples land
  // in histograms only; the deterministic totals stay on the TaskTraffic
  // counter path (Cluster::RecordTraffic). Latency is sampled 1 in 16 per
  // thread (same rationale as PsServer::Handle: the clock reads and record
  // cost real time on the hottest path); retries are rare events and every
  // one is recorded.
  static thread_local uint32_t sample_tick = 0;
  const bool sampled = (sample_tick++ & 15) == 0;
  struct LatencyObserver {
    Histogram* exchange_us;
    Histogram* retries_hist;
    Histogram* backoff_hist;
    double start_us;
    const ExchangeOutcome* out;
    ~LatencyObserver() {
      if (exchange_us != nullptr) exchange_us->Record(WallUs() - start_us);
      if (out->retries > 0) {
        retries_hist->Record(static_cast<double>(out->retries));
        backoff_hist->Record(out->backoff);
      }
    }
  } observer{sampled ? OpHist(exchange_us_hists_, op) : nullptr,
             retries_hist_, backoff_hist_, sampled ? WallUs() : 0.0, &out};
  for (int attempt = 1;; ++attempt) {
    // routing_rounds joins the attempt so every routing-stale poll/re-aim
    // draws a fresh deterministic fault (the draw is keyed on the header).
    header.attempt = static_cast<uint32_t>(attempt) + routing_rounds;
    // Rebuilt each iteration: a key-cache miss swaps the wire view in place.
    const WireFrame frame{request.wire.slice(), request.wire_mask};
    const MessageFault fault = cluster->failures().DrawMessageFault(
        request.server, header.client_id, header.seq, header.attempt);
    std::optional<Result<PsServer::HandleResult>> r;
    switch (fault) {
      case MessageFault::kServerCrash:
        // The server process dies while this request is on the wire; it
        // stays down (rejecting everything) until recovered.
        server->Crash();
        r.emplace(Status::Unavailable("injected server crash"));
        break;
      case MessageFault::kRequestLost:
        r.emplace(Status::Unavailable("injected request loss"));
        break;
      case MessageFault::kResponseLost: {
        // The ambiguous failure: the server handles the request — a
        // mutation applies and its seq is recorded — but the client never
        // sees the ack. The retry below is what the dedup table deduplicates.
        // A retry whose ack is lost AGAIN was still suppressed server-side,
        // so its dedup hit is counted here to keep the traffic metric in
        // lockstep with the servers' own counters.
        Result<PsServer::HandleResult> applied = server->Handle(header, frame);
        if (applied.ok() && applied->dedup_hit) out.dedup_hits += 1;
        r.emplace(Status::Unavailable("injected response loss"));
        break;
      }
      case MessageFault::kNone:
        r.emplace(server->Handle(header, frame));
        break;
    }
    // Key-cache miss: the server lost its key cache (recovery, eviction)
    // since we installed. Re-encode with the key list forced verbatim and
    // re-drive the SAME seq immediately — a protocol round trip, not a
    // fault, so it consumes no attempt and no backoff. Only the final,
    // successful request's bytes are charged (the simplification DESIGN.md
    // §9 documents).
    if (!r->ok() && IsKeyCacheMiss(r->status()) && !reencoded) {
      reencoded = true;
      out.kc_misses += 1;
      keycache_.InvalidateServer(request.server);
      EncodeRequest(&request, /*force_key_install=*/true);
      --attempt;
      continue;
    }
    // Routing staleness (DESIGN.md §12): a migration moved the routing
    // table out from under this request. Each resolution round is a
    // protocol round trip — counted in net.routing_refetches, no attempt
    // consumed — mirroring the keycache-miss path above.
    if (!r->ok() && IsRoutingStale(r->status()) &&
        !IsMigrationControlOpcode(op) && routing_rounds < kMaxRoutingRounds) {
      const std::string& msg = r->status().message();
      routing_rounds += 1;
      out.routing_refetches += 1;
      if (msg.find("(applied)") != std::string::npos) {
        // The old owner's dedup table proves this mutation already ran
        // there before its range moved: ack it exactly like a dedup hit
        // (every mutating op parses an empty response as an ack).
        out.dedup_hits += 1;
        r.emplace(PsServer::HandleResult{});
        // Falls through to the terminal branch below.
      } else if (msg.find("(fenced)") != std::string::npos) {
        // Mid-migration: wait out the fence, then re-drive the SAME seq at
        // the same server. Flat (first-attempt) backoff per poll — the
        // fence is a protocol state, not an escalating failure.
        out.backoff += cluster->cost().RetryBackoff(1);
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        --attempt;
        continue;
      } else {
        // The epoch moved on or the server was decommissioned: refetch the
        // route and re-aim.
        int target = -1;
        uint64_t stamp = 0;
        if (request.route_matrix >= 0) {
          Result<MatrixMeta> meta = master_->GetMeta(request.route_matrix);
          if (meta.ok()) {
            target =
                meta->partitioner.ServerOfPartition(request.route_partition);
            stamp = meta->routing_epoch + 1;
          }
        } else if (request.hash_routed) {
          const std::vector<int> active = master_->active_servers();
          if (!active.empty()) {
            target = active[static_cast<size_t>(HotHomeServer(
                request.hash_ref, static_cast<int>(active.size())))];
            stamp = master_->routing_epoch() + 1;
          }
        } else if (op == PsOpCode::kClockAdvance) {
          // The worker-clock vector followed the ranges to the new owners
          // (max-merged at commit); this server needs no advance anymore.
          r.emplace(PsServer::HandleResult{});
        }
        if (target >= 0) {
          if (stamp <= request.header.routing_epoch) {
            // Servers learn the new epoch before the master publishes the
            // metas that carry it (MigrateToAssignment commits routing
            // last), so a refetch in that window hands back the stamp that
            // just bounced. Poll like a fence wait instead of spinning the
            // round budget dry before the publish lands.
            out.backoff += cluster->cost().RetryBackoff(1);
            std::this_thread::sleep_for(std::chrono::microseconds(50));
          }
          request.header.routing_epoch = stamp;
          if (target != request.server) {
            // A new owner is a new (client, server) seq stream. The old
            // server rejected before its dedup table saw this seq, so the
            // old number is simply never used.
            request.server = target;
            request.header.seq =
                next_seq_[target].fetch_add(1, std::memory_order_relaxed) + 1;
            server = master_->server(target);
          }
          // Re-encode for the (possibly new) server: keycache decisions are
          // per-server state.
          EncodeRequest(&request, /*force_key_install=*/false);
          header = request.header;
          --attempt;
          continue;
        }
        // No route identity (or the matrix is gone): surface the rejection.
      }
    }
    if (r->ok() || !r->status().IsUnavailable() || attempt >= max_attempts) {
      if (r->ok() && (*r)->dedup_hit) out.dedup_hits += 1;
      // Decode a filtered response here — off the server's lock, on
      // whichever thread ran the exchange (the chain is stateless
      // server-to-client, so this is safe anywhere).
      if (r->ok() && (*r)->response_mask != 0) {
        PsServer::HandleResult& h = **r;
        out.resp_wire = h.response.size() + Message::kHeaderBytes;
        FilterContext ctx;
        ctx.dir = FilterDir::kServerToClient;
        Result<std::vector<uint8_t>> decoded =
            chain_.Decode(Slice(h.response), h.response_mask, /*prefix=*/0,
                          &ctx);
        if (!decoded.ok()) {
          r.emplace(decoded.status());
        } else {
          h.response = std::move(*decoded);
          h.response_mask = 0;
        }
      }
      out.req_wire = request.wire.size() + Message::kHeaderBytes;
      out.req_logical = request.payload.size() + Message::kHeaderBytes;
      if (r->ok()) {
        if (out.resp_wire == 0) {
          out.resp_wire = (*r)->response.size() + Message::kHeaderBytes;
        }
        out.resp_logical = (*r)->response.size() + Message::kHeaderBytes;
      }
      out.kc_refs = request.estats.keycache_refs;
      out.kc_installs = request.estats.keycache_installs;
      out.result = std::move(r);
      return out;
    }
    // Unavailable with attempts left: optionally recover a crashed server
    // (charging the stall to this task), then back off and retry the SAME
    // seq — the dedup table makes the retry idempotent.
    if (server->crashed() && options_.recover_crashed_servers) {
      Result<SimTime> stall = master_->RecoverCrashedServer(request.server);
      if (!stall.ok()) {
        out.result.emplace(stall.status());
        return out;
      }
      out.backoff += *stall;
    }
    out.backoff += cluster->cost().RetryBackoff(header.attempt);
    out.retries += 1;
  }
}

std::vector<Result<PsServer::HandleResult>> PsClient::ExchangeEach(
    TaskTraffic* traffic, std::vector<ServerRequest> requests) {
  const size_t n = requests.size();
  // One span per fan-out, not per request: on the inline route every span
  // lands in the issuing thread's trace ring, and the server spans nested
  // here already time each request.
  PS2_TRACE_SPAN("ps.client",
                 PsOpCodeName(n > 0 ? PeekOpCode(requests[0].payload.slice())
                                    : static_cast<PsOpCode>(0xff)));
  StampRequests(&requests);
  std::vector<ExchangeOutcome> slots(n);
  // Keyed requests run inline: each is one in-process Handle of a few µs,
  // cheaper than any hand-off. Shard-scoped ones run the op over a server's
  // whole shard (the coordinator's Adam zip, gradient Zero/Scale), so they
  // spread over the cluster pool — except on that pool's own workers (a
  // task body), where a nested ParallelFor could wait forever on indices no
  // free worker is left to take.
  ThreadPool* pool = master_->cluster()->pool();
  if (n > 1 && requests[0].shard_scoped && !pool->OnWorkerThread()) {
    pool->ParallelFor(
        n, [&](size_t i) { slots[i] = ExecuteRequest(requests[i]); });
  } else {
    for (size_t i = 0; i < n; ++i) slots[i] = ExecuteRequest(requests[i]);
  }
  // Same semantics on both routes: every request executed, every success
  // recorded in request (= partition) order.
  std::vector<Result<PsServer::HandleResult>> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    traffic->retries += slots[i].retries;
    traffic->retry_backoff_time += slots[i].backoff;
    traffic->dedup_hits += slots[i].dedup_hits;
    traffic->keycache_misses += slots[i].kc_misses;
    traffic->routing_refetches += slots[i].routing_refetches;
    Result<PsServer::HandleResult>& r = *slots[i].result;
    if (r.ok()) {
      traffic->RecordExchange(requests[i].server, slots[i].req_wire,
                              slots[i].resp_wire, r->server_ops,
                              slots[i].req_logical, slots[i].resp_logical);
      traffic->keycache_hits += slots[i].kc_refs;
      traffic->keycache_installs += slots[i].kc_installs;
    }
    out.push_back(std::move(r));
  }
  return out;
}

Result<std::vector<PsServer::HandleResult>> PsClient::ExchangeAll(
    TaskTraffic* traffic, std::vector<ServerRequest> requests) {
  std::vector<Result<PsServer::HandleResult>> each =
      ExchangeEach(traffic, std::move(requests));
  std::vector<PsServer::HandleResult> out;
  out.reserve(each.size());
  for (Result<PsServer::HandleResult>& r : each) {
    if (!r.ok()) return r.status();  // the first failure in request order
    out.push_back(std::move(*r));
  }
  return out;
}

Result<std::vector<PsServer::HandleResult>> PsClient::ExchangeOwnedRows(
    TaskTraffic* traffic, const std::vector<RowRef>& rows,
    const std::vector<std::vector<double>>* deltas, MetaBatch metas,
    std::vector<size_t> positions, std::vector<std::vector<size_t>>* groups) {
  std::vector<size_t> pending = std::move(positions);
  const PsOpCode op = deltas != nullptr ? PsOpCode::kPushRowsBatch
                                        : PsOpCode::kPullRowsBatch;
  std::vector<PsServer::HandleResult> results;
  std::vector<std::shared_ptr<const void>> repins;  // re-planned metas' pins
  const size_t n_servers = static_cast<size_t>(master_->num_servers());
  for (uint32_t round = 0;; ++round) {
    // Groups go out in server order, each with its rows in pending order.
    std::vector<std::vector<size_t>> by_server(n_servers);
    for (size_t i : pending) {
      const auto server =
          static_cast<size_t>(metas[i].partitioner.ServerOfPartition(0));
      if (server >= n_servers) {
        return Status::Internal("owned row homed on an unknown server");
      }
      by_server[server].push_back(i);
    }
    std::vector<ServerRequest> requests;
    std::vector<std::vector<size_t>> planned;
    for (std::vector<size_t>& members : by_server) {
      if (members.empty()) continue;
      // Opcode, count, then per row its (matrix, row) varints and, for a
      // push, its width varint and values: sized once, never regrown.
      size_t bytes = 1 + kMaxVarintBytes * (1 + 2 * members.size());
      if (deltas != nullptr) {
        for (size_t i : members) {
          bytes += kMaxVarintBytes + (*deltas)[i].size() * sizeof(double);
        }
      }
      BufferWriter writer(bytes);
      writer.WriteU8(static_cast<uint8_t>(op));
      writer.WriteVarint(members.size());
      for (size_t i : members) {
        writer.WriteVarint(rows[i].matrix_id);
        writer.WriteVarint(rows[i].row);
        if (deltas != nullptr) {
          const std::vector<double>& delta = (*deltas)[i];
          writer.WriteVarint(delta.size());
          writer.BeginSection(SectionKind::kF64Values);
          writer.WriteF64Span(delta.data(), delta.size());
          writer.EndSection();
        }
      }
      // Stamped with the plan's epoch but given no routing identity, so a
      // `routing stale` bounce surfaces here instead of ExecuteRequest
      // re-aiming the whole group by one row: keys relocate independently,
      // and a group's rows may now live on different servers.
      ServerRequest request = MakeRouted(metas[members[0]], 0, &writer);
      request.route_matrix = -1;
      requests.push_back(std::move(request));
      planned.push_back(std::move(members));
    }
    std::vector<Result<PsServer::HandleResult>> each =
        ExchangeEach(traffic, std::move(requests));
    uint64_t bounced_stamp = 0;
    pending.clear();
    for (size_t g = 0; g < each.size(); ++g) {
      if (each[g].ok()) {
        results.push_back(std::move(*each[g]));
        if (groups != nullptr) groups->push_back(std::move(planned[g]));
        continue;
      }
      // A bounced request never applied (an already-applied mutation is
      // acked inside ExecuteRequest), so its rows are simply re-planned.
      if (!IsRoutingStale(each[g].status()) || round >= kMaxRoutingRounds) {
        return each[g].status();
      }
      bounced_stamp = std::max(bounced_stamp,
                               metas[planned[g][0]].routing_epoch + 1);
      pending.insert(pending.end(), planned[g].begin(), planned[g].end());
    }
    if (pending.empty()) return results;
    std::vector<RowRef> refs;
    refs.reserve(pending.size());
    for (size_t i : pending) refs.push_back(rows[i]);
    PS2_ASSIGN_OR_RETURN(MetaBatch fresh, master_->GetMetas(refs));
    if (fresh[0].routing_epoch + 1 <= bounced_stamp) {
      // Servers learn a new epoch before the master publishes the metas
      // that carry it; poll like a fence wait until the publish lands.
      traffic->retry_backoff_time +=
          master_->cluster()->cost().RetryBackoff(1);
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    for (size_t k = 0; k < pending.size(); ++k) {
      metas.metas[pending[k]] = fresh.metas[k];
    }
    repins.push_back(std::move(fresh.pin));
  }
}

Result<std::vector<uint8_t>> PsClient::ControlCall(int server,
                                                   BufferWriter* writer) {
  if (server < 0 || server >= master_->num_servers()) {
    return Status::InvalidArgument("control call to unknown server");
  }
  std::vector<ServerRequest> requests;
  requests.push_back(MakeRequest(server, writer));
  // One control leg = one round. Inside a task (or the migration driver's
  // scope) the traffic lands there; standalone calls charge the clock
  // directly, like any coordinator-issued op.
  TaskTraffic local;
  TaskTraffic* traffic = TrafficScope::Current();
  const bool ambient = traffic != nullptr;
  if (!ambient) traffic = &local;
  traffic->rounds += 1;
  PS2_ASSIGN_OR_RETURN(std::vector<PsServer::HandleResult> results,
                       ExchangeAll(traffic, std::move(requests)));
  if (!ambient) master_->cluster()->ChargeOutOfTask(local);
  return std::move(results[0].response);
}

template <typename T>
PsFuture<T> PsClient::ReadyFuture(Result<T> result) {
  return MakeReadyFuture<T>(std::move(result));
}

template <typename T>
PsFuture<T> PsClient::SubmitAsync(std::vector<ServerRequest> requests,
                                  ParseFn<T> parse) {
  return SubmitExchange<T>(
      [&](TaskTraffic* traffic) {
        return ExchangeAll(traffic, std::move(requests));
      },
      std::move(parse));
}

template <typename T, typename Exchange>
PsFuture<T> PsClient::SubmitExchange(Exchange&& exchange, ParseFn<T> parse) {
  auto state = std::make_shared<internal::PsFutureState<T>>();
  std::shared_ptr<AsyncCore> core = core_;
  const void* ctx = TrafficScope::Current();
  // Loopback diversion is decided per exchange against the ISSUING task's
  // co-located server; the exchanges record into the op's private traffic
  // record, so the binding must travel with it.
  if (const TaskTraffic* ambient = TrafficScope::Current()) {
    state->traffic.colocated_server = ambient->colocated_server;
  }
  const bool leader = core->Issue(ctx);
  if (leader) {
    state->traffic.rounds += 1;
  } else {
    state->traffic.pipelined_rounds += 1;
  }

  // The retire token travels inside the harvest hook: retiring happens right
  // after the hook runs (first Wait/Get, caller thread) — or when the hook is
  // destroyed unrun because the future was abandoned, so a dropped future
  // cannot leave its context permanently "outstanding".
  auto token = std::shared_ptr<void>(
      nullptr, [core, ctx](void*) { core->Retire(ctx); });
  Cluster* cluster = master_->cluster();
  state->harvest = [cluster, token](const TaskTraffic& t) {
    if (TaskTraffic* ambient = TrafficScope::Current()) {
      ambient->MergeFrom(t);
    } else {
      ChargeCoordinator(cluster, t);
    }
  };

  // The exchange completes before issue returns; the future defers only the
  // harvest, which is where overlapped ops share one round of latency.
  Result<std::vector<PsServer::HandleResult>> results =
      exchange(&state->traffic);
  if (!results.ok()) {
    state->Complete(Result<T>(results.status()));
  } else {
    state->Complete(parse(std::move(*results), &state->traffic));
  }
  return PsFuture<T>(std::move(state));
}

namespace {
/// ParseFn for push-like ops: responses carry no payload the client needs.
Result<Ack> AckParse(std::vector<PsServer::HandleResult>&&, TaskTraffic*) {
  return Ack{};
}
}  // namespace

// ----------------------------------------------------------- row access ops

PsFuture<std::vector<double>> PsClient::PullDenseAsync(RowRef ref,
                                                       ColRange cols) {
  using Out = std::vector<double>;
  Result<MatrixMeta> meta_r = master_->GetMeta(ref.matrix_id);
  if (!meta_r.ok()) return ReadyFuture<Out>(meta_r.status());
  const MatrixMeta& meta = *meta_r;
  const ColRange w = cols.Resolve(meta.dim);
  if (w.begin > w.end || w.end > meta.dim) {
    return ReadyFuture<Out>(Status::OutOfRange("pull window out of range"));
  }
  if (cache_.HasHot() && cache_.HotDim(ref) == meta.dim) {
    // Hot row: serve from the bounded-staleness cache (worker compute only),
    // or refresh the whole row once from its home server's replica.
    Out served(w.width(), 0.0);
    if (cache_.TryServeDense(ref, w.begin, w.end, served.data())) {
      OpScope scope(master_->cluster());
      TaskTraffic* t = scope.traffic();
      t->worker_ops += w.width();
      t->local_pull_hits += 1;
      t->local_pull_bytes += w.width() * sizeof(double);
      return ReadyFuture<Out>(std::move(served));
    }
    BufferWriter writer;
    writer.WriteU8(static_cast<uint8_t>(PsOpCode::kPullDense));
    writer.WriteVarint(ref.matrix_id);
    writer.WriteVarint(ref.row);
    writer.WriteVarint(0);
    writer.WriteVarint(meta.dim);
    std::vector<ServerRequest> refresh;
    refresh.push_back(
        MakeHashRouted(meta, ref, &writer));
    const uint64_t dim = meta.dim;
    return SubmitAsync<Out>(
        std::move(refresh),
        [this, ref, dim, begin = w.begin, width = w.width()](
            std::vector<PsServer::HandleResult>&& results,
            TaskTraffic*) -> Result<Out> {
          BufferReader reader(results[0].response);
          PS2_ASSIGN_OR_RETURN(uint64_t n, reader.ReadVarint());
          if (n != dim) {
            return Status::Internal("hot-row refresh size mismatch");
          }
          PS2_ASSIGN_OR_RETURN(std::vector<double> values,
                               reader.ReadF64Span(n));
          cache_.Store(ref, values, cache_.epoch());
          Out out(width);
          std::copy(values.begin() + begin, values.begin() + begin + width,
                    out.begin());
          return out;
        });
  }
  const ColumnPartitioner& part = meta.partitioner;
  std::vector<ServerRequest> requests;
  std::vector<std::pair<uint64_t, uint64_t>> windows;
  for (int p = 0; p < part.num_servers(); ++p) {
    uint64_t lo = std::max(w.begin, part.RangeBegin(p));
    uint64_t hi = std::min(w.end, part.RangeEnd(p));
    if (lo >= hi) continue;
    BufferWriter writer;
    writer.WriteU8(static_cast<uint8_t>(PsOpCode::kPullDense));
    writer.WriteVarint(ref.matrix_id);
    writer.WriteVarint(ref.row);
    writer.WriteVarint(lo);
    writer.WriteVarint(hi);
    requests.push_back(MakeRouted(meta, p, &writer));
    windows.emplace_back(lo, hi);
  }
  const uint64_t begin = w.begin;
  const uint64_t width = w.width();
  return SubmitAsync<Out>(
      std::move(requests),
      [windows = std::move(windows), begin, width](
          std::vector<PsServer::HandleResult>&& results,
          TaskTraffic*) -> Result<Out> {
        Out out(width, 0.0);
        for (size_t i = 0; i < results.size(); ++i) {
          const auto [lo, hi] = windows[i];
          BufferReader reader(results[i].response);
          PS2_ASSIGN_OR_RETURN(uint64_t n, reader.ReadVarint());
          if (n != hi - lo) {
            return Status::Internal("pull window size mismatch");
          }
          PS2_ASSIGN_OR_RETURN(std::vector<double> values,
                               reader.ReadF64Span(n));
          std::copy(values.begin(), values.end(), out.begin() + (lo - begin));
        }
        return out;
      });
}

Result<std::vector<double>> PsClient::PullDense(RowRef ref, ColRange cols) {
  return PullDenseAsync(ref, cols).Get();
}

PsFuture<std::vector<double>> PsClient::PullSparseAsync(
    RowRef ref, const std::vector<uint64_t>& indices) {
  using Out = std::vector<double>;
  Result<MatrixMeta> meta_r = master_->GetMeta(ref.matrix_id);
  if (!meta_r.ok()) return ReadyFuture<Out>(meta_r.status());
  const MatrixMeta& meta = *meta_r;
  if (cache_.HasHot() && cache_.HotDim(ref) == meta.dim) {
    if (!indices.empty() && indices.back() >= meta.dim) {
      return ReadyFuture<Out>(Status::OutOfRange("pull index out of range"));
    }
    Out served(indices.size(), 0.0);
    if (cache_.TryServeSparse(ref, indices, served.data())) {
      OpScope scope(master_->cluster());
      TaskTraffic* t = scope.traffic();
      t->worker_ops += indices.size();
      t->local_pull_hits += 1;
      t->local_pull_bytes += indices.size() * sizeof(double);
      return ReadyFuture<Out>(std::move(served));
    }
    BufferWriter writer;
    writer.WriteU8(static_cast<uint8_t>(PsOpCode::kPullDense));
    writer.WriteVarint(ref.matrix_id);
    writer.WriteVarint(ref.row);
    writer.WriteVarint(0);
    writer.WriteVarint(meta.dim);
    std::vector<ServerRequest> refresh;
    refresh.push_back(
        MakeHashRouted(meta, ref, &writer));
    const uint64_t dim = meta.dim;
    return SubmitAsync<Out>(
        std::move(refresh),
        [this, ref, dim, indices](std::vector<PsServer::HandleResult>&& results,
                                  TaskTraffic*) -> Result<Out> {
          BufferReader reader(results[0].response);
          PS2_ASSIGN_OR_RETURN(uint64_t n, reader.ReadVarint());
          if (n != dim) {
            return Status::Internal("hot-row refresh size mismatch");
          }
          PS2_ASSIGN_OR_RETURN(std::vector<double> values,
                               reader.ReadF64Span(n));
          cache_.Store(ref, values, cache_.epoch());
          Out out(indices.size());
          for (size_t k = 0; k < indices.size(); ++k) {
            out[k] = values[indices[k]];
          }
          return out;
        });
  }
  const ColumnPartitioner& part = meta.partitioner;
  // Sorted indices split into one contiguous run per partition.
  std::vector<ServerRequest> requests;
  std::vector<std::pair<size_t, size_t>> runs;
  size_t i = 0;
  while (i < indices.size()) {
    if (indices[i] >= meta.dim) {
      return ReadyFuture<Out>(Status::OutOfRange("pull index out of range"));
    }
    int p = part.PartitionOfColumn(indices[i]);
    uint64_t range_end = part.RangeEnd(p);
    size_t j = i;
    while (j < indices.size() && indices[j] < range_end) ++j;
    BufferWriter writer;
    writer.WriteU8(static_cast<uint8_t>(PsOpCode::kPullSparse));
    writer.WriteVarint(ref.matrix_id);
    writer.WriteVarint(ref.row);
    writer.WriteVarint(j - i);
    writer.BeginSection(SectionKind::kKeys);
    writer.WriteDeltaKeys(indices.data() + i, j - i);
    writer.EndSection();
    requests.push_back(MakeRouted(meta, p, &writer));
    runs.emplace_back(i, j);
    i = j;
  }
  const size_t total = indices.size();
  return SubmitAsync<Out>(
      std::move(requests),
      [runs = std::move(runs), total](
          std::vector<PsServer::HandleResult>&& results,
          TaskTraffic*) -> Result<Out> {
        Out out(total, 0.0);
        for (size_t r = 0; r < results.size(); ++r) {
          const auto [lo, hi] = runs[r];
          BufferReader reader(results[r].response);
          PS2_ASSIGN_OR_RETURN(uint64_t n, reader.ReadVarint());
          if (n != hi - lo) {
            return Status::Internal("sparse pull count mismatch");
          }
          PS2_RETURN_NOT_OK(reader.ReadF64Into(out.data() + lo, n));
        }
        return out;
      });
}

Result<std::vector<double>> PsClient::PullSparse(
    RowRef ref, const std::vector<uint64_t>& indices) {
  return PullSparseAsync(ref, indices).Get();
}

PsFuture<std::vector<std::vector<double>>> PsClient::ServingPullAsync(
    uint64_t epoch, const std::vector<ServingRead>& reads) {
  using Out = std::vector<std::vector<double>>;
  if (reads.empty()) return ReadyFuture<Out>(Out{});
  std::vector<RowRef> rows(reads.size());
  for (size_t r = 0; r < reads.size(); ++r) rows[r] = reads[r].row;
  Result<MetaBatch> metas_r = master_->GetMetas(rows);
  if (!metas_r.ok()) return ReadyFuture<Out>(metas_r.status());
  const MetaBatch& metas = *metas_r;
  // One wire entry per (read, partition) pair; entries bound for the same
  // server share a single kServingPull request (the coalescing lever).
  struct WireEntry {
    int server = 0;
    size_t read = 0;      ///< index into `reads` / the output vector
    uint64_t dst_off = 0; ///< write offset within the read's output
    uint64_t expect = 0;  ///< values this entry must return
    size_t idx_lo = 0;    ///< run [idx_lo, idx_hi) of the read's indices;
    size_t idx_hi = 0;    ///< lo == hi encodes a full-slice read
  };
  std::vector<WireEntry> entries;
  entries.reserve(reads.size());
  std::vector<size_t> out_sizes(reads.size());
  for (size_t r = 0; r < reads.size(); ++r) {
    const ServingRead& read = reads[r];
    const MatrixMeta& meta = metas[r];
    const ColumnPartitioner& part = meta.partitioner;
    WireEntry e;
    e.read = r;
    if (read.indices.empty()) {
      out_sizes[r] = meta.dim;
      for (int p = 0; p < part.num_servers(); ++p) {
        e.server = part.ServerOfPartition(p);
        e.dst_off = part.RangeBegin(p);
        e.expect = part.RangeEnd(p) - part.RangeBegin(p);
        entries.push_back(e);
      }
    } else {
      out_sizes[r] = read.indices.size();
      size_t i = 0;
      while (i < read.indices.size()) {
        if (read.indices[i] >= meta.dim) {
          return ReadyFuture<Out>(
              Status::OutOfRange("serving pull index out of range"));
        }
        const int p = part.PartitionOfColumn(read.indices[i]);
        const uint64_t range_end = part.RangeEnd(p);
        size_t j = i;
        while (j < read.indices.size() && read.indices[j] < range_end) ++j;
        e.server = part.ServerOfPartition(p);
        e.dst_off = i;
        e.expect = j - i;
        e.idx_lo = i;
        e.idx_hi = j;
        entries.push_back(e);
        i = j;
      }
    }
  }
  // Group by server, in server order, keeping each server's entries in read
  // order (a counting sort): request order and bytes do not depend on how
  // the grouping is stored.
  std::vector<size_t> group_end(master_->num_servers() + 1, 0);
  for (const WireEntry& e : entries) group_end[e.server + 1] += 1;
  for (size_t s = 1; s < group_end.size(); ++s) {
    group_end[s] += group_end[s - 1];
  }
  std::vector<WireEntry> plan(entries.size());
  {
    std::vector<size_t> next(group_end.begin(), group_end.end() - 1);
    for (const WireEntry& e : entries) plan[next[e.server]++] = e;
  }
  std::vector<ServerRequest> requests;
  std::vector<size_t> request_end;  // plan[request_end[q-1], request_end[q])
  for (int server = 0; server < master_->num_servers(); ++server) {
    const size_t lo = group_end[server], hi = group_end[server + 1];
    if (lo == hi) continue;
    size_t bytes = 1 + 2 * kMaxVarintBytes;
    for (size_t k = lo; k < hi; ++k) {
      bytes += (3 + plan[k].idx_hi - plan[k].idx_lo) * kMaxVarintBytes;
    }
    BufferWriter writer(bytes);
    writer.WriteU8(static_cast<uint8_t>(PsOpCode::kServingPull));
    writer.WriteVarint(epoch);
    writer.WriteVarint(hi - lo);
    for (size_t k = lo; k < hi; ++k) {
      const WireEntry& e = plan[k];
      writer.WriteVarint(reads[e.read].row.matrix_id);
      writer.WriteVarint(reads[e.read].row.row);
      writer.WriteVarint(e.idx_hi - e.idx_lo);
      if (e.idx_hi > e.idx_lo) {
        const std::vector<uint64_t>& idx = reads[e.read].indices;
        writer.BeginSection(SectionKind::kKeys);
        writer.WriteDeltaKeys(idx.data() + e.idx_lo, e.idx_hi - e.idx_lo);
        writer.EndSection();
      }
    }
    requests.push_back(MakeRequest(server, &writer));
    request_end.push_back(hi);
  }
  return SubmitAsync<Out>(
      std::move(requests),
      [plan = std::move(plan), request_end = std::move(request_end),
       out_sizes = std::move(out_sizes)](
          std::vector<PsServer::HandleResult>&& results,
          TaskTraffic*) -> Result<Out> {
        Out out(out_sizes.size());
        for (size_t r = 0; r < out_sizes.size(); ++r) {
          out[r].assign(out_sizes[r], 0.0);
        }
        for (size_t q = 0; q < results.size(); ++q) {
          const size_t lo = q == 0 ? 0 : request_end[q - 1];
          BufferReader reader(results[q].response);
          PS2_ASSIGN_OR_RETURN(uint64_t n_entries, reader.ReadVarint());
          if (n_entries != request_end[q] - lo) {
            return Status::Internal("serving pull entry count mismatch");
          }
          for (size_t k = lo; k < request_end[q]; ++k) {
            const WireEntry& e = plan[k];
            PS2_ASSIGN_OR_RETURN(uint64_t n, reader.ReadVarint());
            if (n != e.expect) {
              return Status::Internal("serving pull span size mismatch");
            }
            PS2_RETURN_NOT_OK(
                reader.ReadF64Into(out[e.read].data() + e.dst_off, n));
          }
        }
        return out;
      });
}

PsFuture<Ack> PsClient::PushDenseAsync(RowRef ref,
                                       const std::vector<double>& delta,
                                       ColRange cols) {
  Result<MatrixMeta> meta_r = master_->GetMeta(ref.matrix_id);
  if (!meta_r.ok()) return ReadyFuture<Ack>(meta_r.status());
  const MatrixMeta& meta = *meta_r;
  const ColRange w =
      cols.whole ? ColRange::Of(0, delta.size()) : cols;
  if (w.width() != delta.size()) {
    return ReadyFuture<Ack>(
        Status::InvalidArgument("push window/delta size mismatch"));
  }
  if (w.end > meta.dim) {
    return ReadyFuture<Ack>(Status::OutOfRange("push window out of range"));
  }
  if (cache_.HasHot() && cache_.HotDim(ref) == meta.dim) {
    // Hot row: one sparse delta to the home server's replica, applied to
    // the primary at the next ReplicaSync instead of fanning out now.
    std::vector<uint64_t> idx;
    std::vector<double> val;
    for (uint64_t i = 0; i < w.width(); ++i) {
      if (delta[i] != 0.0) {
        idx.push_back(w.begin + i);
        val.push_back(delta[i]);
      }
    }
    if (idx.empty()) return ReadyFuture<Ack>(Ack{});
    BufferWriter writer;
    writer.WriteU8(static_cast<uint8_t>(PsOpCode::kHotPush));
    writer.WriteVarint(ref.matrix_id);
    writer.WriteVarint(ref.row);
    writer.WriteVarint(idx.size());
    writer.BeginSection(SectionKind::kKeys);
    writer.WriteDeltaKeys(idx.data(), idx.size());
    writer.EndSection();
    writer.BeginSection(SectionKind::kF64Values);
    writer.WriteF64Span(val.data(), val.size());
    writer.EndSection();
    std::vector<ServerRequest> requests;
    requests.push_back(
        MakeHashRouted(meta, ref, &writer));
    return SubmitAsync<Ack>(std::move(requests), AckParse);
  }
  const ColumnPartitioner& part = meta.partitioner;
  std::vector<ServerRequest> requests;
  for (int p = 0; p < part.num_servers(); ++p) {
    uint64_t lo = std::max(w.begin, part.RangeBegin(p));
    uint64_t hi = std::min(w.end, part.RangeEnd(p));
    if (lo >= hi) continue;
    BufferWriter writer;
    writer.WriteU8(static_cast<uint8_t>(PsOpCode::kPushDense));
    writer.WriteVarint(ref.matrix_id);
    writer.WriteVarint(ref.row);
    writer.WriteVarint(lo);
    writer.WriteVarint(hi - lo);
    writer.BeginSection(SectionKind::kF64Values);
    writer.WriteF64Span(&delta[lo - w.begin], hi - lo);
    writer.EndSection();
    requests.push_back(MakeRouted(meta, p, &writer));
  }
  return SubmitAsync<Ack>(std::move(requests), AckParse);
}

Status PsClient::PushDense(RowRef ref, const std::vector<double>& delta,
                           ColRange cols) {
  return PushDenseAsync(ref, delta, cols).Wait();
}

PsFuture<Ack> PsClient::PushSparseAsync(RowRef ref, const SparseVector& delta) {
  Result<MatrixMeta> meta_r = master_->GetMeta(ref.matrix_id);
  if (!meta_r.ok()) return ReadyFuture<Ack>(meta_r.status());
  const MatrixMeta& meta = *meta_r;
  if (delta.nnz() > 0 && delta.indices().back() >= meta.dim) {
    return ReadyFuture<Ack>(Status::OutOfRange("push index out of range"));
  }
  if (cache_.HasHot() && cache_.HotDim(ref) == meta.dim) {
    if (delta.nnz() == 0) return ReadyFuture<Ack>(Ack{});
    BufferWriter writer;
    writer.WriteU8(static_cast<uint8_t>(PsOpCode::kHotPush));
    writer.WriteVarint(ref.matrix_id);
    writer.WriteVarint(ref.row);
    writer.WriteVarint(delta.nnz());
    writer.BeginSection(SectionKind::kKeys);
    writer.WriteDeltaKeys(delta.indices().data(), delta.nnz());
    writer.EndSection();
    writer.BeginSection(SectionKind::kF64Values);
    writer.WriteF64Span(delta.values().data(), delta.nnz());
    writer.EndSection();
    std::vector<ServerRequest> requests;
    requests.push_back(
        MakeHashRouted(meta, ref, &writer));
    return SubmitAsync<Ack>(std::move(requests), AckParse);
  }
  const ColumnPartitioner& part = meta.partitioner;
  const auto& idx = delta.indices();
  const auto& val = delta.values();
  std::vector<ServerRequest> requests;
  size_t i = 0;
  while (i < idx.size()) {
    int p = part.PartitionOfColumn(idx[i]);
    uint64_t range_end = part.RangeEnd(p);
    size_t j = i;
    while (j < idx.size() && idx[j] < range_end) ++j;
    BufferWriter writer;
    writer.WriteU8(static_cast<uint8_t>(PsOpCode::kPushSparse));
    writer.WriteVarint(ref.matrix_id);
    writer.WriteVarint(ref.row);
    writer.WriteVarint(j - i);
    writer.BeginSection(SectionKind::kKeys);
    writer.WriteDeltaKeys(idx.data() + i, j - i);
    writer.EndSection();
    writer.BeginSection(SectionKind::kF64Values);
    writer.WriteF64Span(val.data() + i, j - i);
    writer.EndSection();
    requests.push_back(MakeRouted(meta, p, &writer));
    i = j;
  }
  return SubmitAsync<Ack>(std::move(requests), AckParse);
}

Status PsClient::PushSparse(RowRef ref, const SparseVector& delta) {
  return PushSparseAsync(ref, delta).Wait();
}

// -------------------------------------------------------- column access ops

namespace {

/// Operand rows an entry kind takes; 0 = one or more (the zip kinds).
size_t OperandRows(ColOpKind kind) {
  return kind == ColOpKind::kZip ? 0 : 1 + NumSources(kind);
}
size_t OperandRows(AggKind kind) {
  return kind == AggKind::kZipAggregate ? 0 : kind == AggKind::kDot ? 2 : 1;
}
bool KnownKind(ColOpKind kind) { return kind <= ColOpKind::kZip; }
bool KnownKind(AggKind kind) { return kind <= AggKind::kZipAggregate; }

template <typename Entry>
bool IsZip(const Entry& e) {
  return OperandRows(e.kind) == 0;
}

template <typename Entry>
Status CheckEntry(const Entry& e) {
  const size_t want = OperandRows(e.kind);
  if (!KnownKind(e.kind) ||
      (want == 0 ? e.rows.empty() : e.rows.size() != want)) {
    return Status::InvalidArgument(
        "column entry has an unknown kind or a wrong operand count");
  }
  return Status::OK();
}

/// Whether a server may read operand `i` through a hot-row replica: the
/// sources of a built-in op and either dot operand (dst and every zip
/// operand must be primaries).
bool ReplicaOk(const ColumnOpEntry& e, size_t i) { return !IsZip(e) && i > 0; }
bool ReplicaOk(const AggregateEntry& e, size_t) {
  return e.kind == AggKind::kDot;
}

/// One operand tuple: built-in ops are (dst, sources..., scalar), zips
/// (udf, k, rows...), aggregates their rows.
template <typename Entry>
void WriteTuple(BufferWriter* writer, const Entry& e) {
  if (IsZip(e)) {
    writer->WriteVarint(e.udf);
    writer->WriteVarint(e.rows.size());
  }
  for (const RowRef& r : e.rows) {
    writer->WriteVarint(r.matrix_id);
    writer->WriteVarint(r.row);
  }
  if constexpr (std::is_same_v<Entry, ColumnOpEntry>) {
    if (!IsZip(e)) writer->WriteF64(e.scalar);
  }
}

}  // namespace

Result<std::shared_ptr<const MatrixMeta>> PsClient::Place(
    const std::vector<RowRef>& rows, const std::vector<bool>& replica_ok) {
  PS2_CHECK(!rows.empty());
  PS2_ASSIGN_OR_RETURN(MetaBatch metas, master_->GetMetas(rows));
  // A replicated (hot) row the servers only read is present in full on
  // every server, so it reads as co-located with any slice: only the other
  // rows anchor placement (if none is left, the first row does).
  HotspotManager* hotspot = master_->hotspot();
  size_t anchor = rows.size();
  for (size_t i = 0; i < rows.size(); ++i) {
    if (i < replica_ok.size() && replica_ok[i] &&
        hotspot->IsReplicated(rows[i])) {
      continue;
    }
    if (anchor == rows.size()) {
      anchor = i;
    } else if (metas.metas[i] != metas.metas[anchor] &&
               !metas[i].partitioner.CoLocatedWith(
                   metas[anchor].partitioner)) {
      return std::shared_ptr<const MatrixMeta>();
    }
  }
  return metas.Hold(anchor != rows.size() ? anchor : 0);
}

template <typename Entry>
Result<std::optional<std::vector<PsClient::ServerRequest>>>
PsClient::ColumnRequests(PsOpCode op, const std::vector<Entry>& entries) {
  std::vector<RowRef> rows;
  std::vector<bool> replica_ok;
  bool has_zip = false;
  for (const Entry& e : entries) {
    PS2_RETURN_NOT_OK(CheckEntry(e));
    has_zip |= IsZip(e);
    for (size_t i = 0; i < e.rows.size(); ++i) {
      rows.push_back(e.rows[i]);
      replica_ok.push_back(ReplicaOk(e, i));
    }
  }
  PS2_ASSIGN_OR_RETURN(std::shared_ptr<const MatrixMeta> meta,
                       Place(rows, replica_ok));
  if (meta == nullptr) {
    if (has_zip) {
      return Status::FailedPrecondition(
          "zip requires co-located DCVs; create them with derive");
    }
    return std::optional<std::vector<ServerRequest>>();
  }
  std::vector<ServerRequest> requests;
  for (const SpanTarget& target : SpanTargets(meta->partitioner)) {
    BufferWriter writer;
    writer.WriteU8(static_cast<uint8_t>(op));
    // Runs of (kind u8, n varint, n tuples): consecutive entries of one
    // kind share a run header.
    for (size_t i = 0; i < entries.size();) {
      size_t j = i;
      while (j < entries.size() && entries[j].kind == entries[i].kind) ++j;
      writer.WriteU8(static_cast<uint8_t>(entries[i].kind));
      writer.WriteVarint(j - i);
      for (; i < j; ++i) WriteTuple(&writer, entries[i]);
    }
    requests.push_back(MakeShardRequest(*meta, target.partition, &writer));
  }
  return std::optional<std::vector<ServerRequest>>(std::move(requests));
}

PsFuture<Ack> PsClient::ColumnOpsAsync(
    const std::vector<ColumnOpEntry>& entries) {
  if (entries.empty()) return ReadyFuture<Ack>(Ack{});
  Result<std::optional<std::vector<ServerRequest>>> requests =
      ColumnRequests(PsOpCode::kColumnOps, entries);
  if (!requests.ok()) return ReadyFuture<Ack>(requests.status());
  if (*requests) return SubmitAsync<Ack>(std::move(**requests), AckParse);
  // The relay is inherently synchronous (a chain of dependent client ops);
  // run it at issue time.
  return ReadyFuture<Ack>(ColumnOpsRelay(entries));
}

Result<Ack> PsClient::ColumnOpsRelay(
    const std::vector<ColumnOpEntry>& entries) {
  if (entries.size() > 1) {
    // Entries run one at a time, in order; one that is co-located on its
    // own keeps the server-side path.
    for (const ColumnOpEntry& e : entries) {
      PS2_RETURN_NOT_OK(ColumnOpsAsync({e}).Wait());
    }
    return Ack{};
  }
  // The naive path of paper Fig. 4: pull full operand rows to the client,
  // compute locally, write the result back. All that traffic is real and
  // recorded; this is what non-co-located DCVs cost.
  master_->cluster()->metrics().Add("dcv.noncolocated_column_ops", 1);
  const ColumnOpEntry& e = entries[0];
  const RowRef dst = e.rows[0];
  std::vector<std::vector<double>> pulled;
  for (size_t i = 1; i < e.rows.size(); ++i) {
    PS2_ASSIGN_OR_RETURN(std::vector<double> row, PullDense(e.rows[i]));
    pulled.push_back(std::move(row));
  }
  PS2_ASSIGN_OR_RETURN(MatrixMeta dst_meta, master_->GetMeta(dst.matrix_id));
  const uint64_t dim = dst_meta.dim;
  // Fill/scale touch dst alone, so they never reach the relay.
  if (pulled.empty()) return Status::Internal("column op has no sources");
  for (const auto& row : pulled) {
    if (row.size() != dim) {
      return Status::InvalidArgument("column op dimension mismatch");
    }
  }
  // Axpy accumulates into zeros: the result is the delta, which an additive
  // push lands without reading dst. The other kinds overwrite dst.
  std::vector<double> result(dim, 0.0);
  const uint64_t ops = ApplyColumnOp(
      e.kind, result.data(), pulled[0].data(),
      pulled.size() > 1 ? pulled[1].data() : nullptr, e.scalar, dim);
  {
    OpScope scope(master_->cluster());
    scope.traffic()->worker_ops += ops;
  }
  if (e.kind != ColOpKind::kAxpy) {
    PS2_RETURN_NOT_OK(ColumnOpsAsync({{ColOpKind::kFill, {dst}}}).Wait());
  }
  PS2_RETURN_NOT_OK(PushDense(dst, result));
  return Ack{};
}

PsFuture<std::vector<AggregateValue>> PsClient::AggregateAsync(
    const std::vector<AggregateEntry>& entries) {
  using Out = std::vector<AggregateValue>;
  if (entries.empty()) return ReadyFuture<Out>(Out{});
  Result<std::optional<std::vector<ServerRequest>>> requests =
      ColumnRequests(PsOpCode::kAggregate, entries);
  if (!requests.ok()) return ReadyFuture<Out>(requests.status());
  if (!*requests) return ReadyFuture<Out>(AggregateRelay(entries));
  std::vector<AggKind> kinds;
  for (const AggregateEntry& e : entries) kinds.push_back(e.kind);
  return SubmitAsync<Out>(
      std::move(**requests),
      [kinds = std::move(kinds)](std::vector<PsServer::HandleResult>&& results,
                                 TaskTraffic*) -> Result<Out> {
        // Partials combine in partition order, exactly as a per-op fan-out
        // would, so results are bit-stable however entries are batched.
        Out out(kinds.size());
        for (size_t i = 0; i < kinds.size(); ++i) {
          if (kinds[i] == AggKind::kMax) {
            out[i].value = -std::numeric_limits<double>::infinity();
          }
        }
        for (const auto& result : results) {
          BufferReader reader(result.response);
          for (size_t i = 0; i < kinds.size(); ++i) {
            if (kinds[i] == AggKind::kZipAggregate) {
              PS2_ASSIGN_OR_RETURN(std::vector<double> part,
                                   reader.ReadPodVector<double>());
              out[i].parts.push_back(std::move(part));
              continue;
            }
            PS2_ASSIGN_OR_RETURN(double partial, reader.ReadF64());
            out[i].value = kinds[i] == AggKind::kMax
                               ? std::max(out[i].value, partial)
                               : out[i].value + partial;
          }
        }
        return out;
      });
}

Result<std::vector<AggregateValue>> PsClient::AggregateRelay(
    const std::vector<AggregateEntry>& entries) {
  std::vector<AggregateValue> out;
  if (entries.size() > 1) {
    // One entry at a time; one that is co-located on its own keeps the
    // server-side path.
    for (const AggregateEntry& e : entries) {
      PS2_ASSIGN_OR_RETURN(std::vector<AggregateValue> one,
                           AggregateAsync({e}).Get());
      out.push_back(std::move(one[0]));
    }
    return out;
  }
  // A lone entry placed apart from itself is a dot of differently
  // partitioned rows. Naive path: ship both full rows to the client (paper
  // Fig. 4, lines 1-4 — "huge communication cost").
  const AggregateEntry& e = entries[0];
  PS2_CHECK(e.kind == AggKind::kDot);
  master_->cluster()->metrics().Add("dcv.noncolocated_dots", 1);
  PS2_ASSIGN_OR_RETURN(std::vector<double> a, PullDense(e.rows[0]));
  PS2_ASSIGN_OR_RETURN(std::vector<double> b, PullDense(e.rows[1]));
  out.emplace_back();
  const uint64_t ops = kernels::Dot(
      a.data(), b.data(), std::min(a.size(), b.size()), &out[0].value);
  OpScope scope(master_->cluster());
  scope.traffic()->worker_ops += ops;
  return out;
}

// ------------------------------------------------------------- batched ops

PsFuture<std::vector<std::vector<double>>> PsClient::PullRowsAsync(
    const std::vector<RowRef>& rows) {
  using Out = std::vector<std::vector<double>>;
  if (rows.empty()) return ReadyFuture<Out>(Out{});
  Result<std::shared_ptr<const MatrixMeta>> place = Place(rows);
  if (!place.ok()) return ReadyFuture<Out>(place.status());
  if (*place == nullptr) {
    return ReadyFuture<Out>(
        Status::FailedPrecondition("PullRows requires co-located rows"));
  }
  const MatrixMeta& meta = **place;
  const ColumnPartitioner& part = meta.partitioner;
  std::vector<ServerRequest> requests;
  std::vector<std::pair<uint64_t, uint64_t>> windows;  // (lo, width)
  for (const SpanTarget& target : SpanTargets(part)) {
    const uint64_t lo = target.begin;
    const uint64_t width = target.end - target.begin;
    BufferWriter writer;
    writer.WriteU8(static_cast<uint8_t>(PsOpCode::kPullRowsBatch));
    writer.WriteVarint(rows.size());
    for (const RowRef& r : rows) {
      writer.WriteVarint(r.matrix_id);
      writer.WriteVarint(r.row);
    }
    requests.push_back(MakeShardRequest(meta, target.partition, &writer));
    windows.emplace_back(lo, width);
  }
  const size_t num_rows = rows.size();
  const uint64_t dim = meta.dim;
  return SubmitAsync<Out>(
      std::move(requests),
      [windows = std::move(windows), num_rows, dim](
          std::vector<PsServer::HandleResult>&& results,
          TaskTraffic*) -> Result<Out> {
        Out out(num_rows);
        for (auto& row : out) row.assign(dim, 0.0);
        for (size_t r = 0; r < results.size(); ++r) {
          const auto [lo, width] = windows[r];
          BufferReader reader(results[r].response);
          PS2_ASSIGN_OR_RETURN(uint64_t count, reader.ReadVarint());
          if (count != num_rows) {
            return Status::Internal("row-batch pull count mismatch");
          }
          for (size_t i = 0; i < num_rows; ++i) {
            PS2_ASSIGN_OR_RETURN(uint64_t w, reader.ReadVarint());
            if (w != width) return Status::Internal("row-batch width mismatch");
            PS2_ASSIGN_OR_RETURN(std::vector<double> values,
                                 reader.ReadF64Span(w));
            std::copy(values.begin(), values.end(), out[i].begin() + lo);
          }
        }
        return out;
      });
}

PsFuture<Ack> PsClient::PushRowsAsync(
    const std::vector<RowRef>& rows,
    const std::vector<std::vector<double>>& deltas) {
  if (rows.empty()) return ReadyFuture<Ack>(Ack{});
  if (rows.size() != deltas.size()) {
    return ReadyFuture<Ack>(
        Status::InvalidArgument("rows/deltas size mismatch"));
  }
  Result<std::shared_ptr<const MatrixMeta>> place = Place(rows);
  if (!place.ok()) return ReadyFuture<Ack>(place.status());
  if (*place == nullptr) {
    return ReadyFuture<Ack>(
        Status::FailedPrecondition("PushRows requires co-located rows"));
  }
  const MatrixMeta& meta = **place;
  for (const auto& d : deltas) {
    if (d.size() != meta.dim) {
      return ReadyFuture<Ack>(
          Status::InvalidArgument("row delta dimension mismatch"));
    }
  }
  const ColumnPartitioner& part = meta.partitioner;
  std::vector<ServerRequest> requests;
  for (const SpanTarget& target : SpanTargets(part)) {
    const uint64_t lo = target.begin;
    const uint64_t width = target.end - target.begin;
    BufferWriter writer;
    writer.WriteU8(static_cast<uint8_t>(PsOpCode::kPushRowsBatch));
    writer.WriteVarint(rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      writer.WriteVarint(rows[i].matrix_id);
      writer.WriteVarint(rows[i].row);
      writer.WriteVarint(width);
      writer.BeginSection(SectionKind::kF64Values);
      writer.WriteF64Span(&deltas[i][lo], width);
      writer.EndSection();
    }
    requests.push_back(MakeShardRequest(meta, target.partition, &writer));
  }
  return SubmitAsync<Ack>(std::move(requests), AckParse);
}

PsFuture<std::vector<std::vector<double>>> PsClient::PullOwnedRowsAsync(
    const std::vector<RowRef>& rows) {
  using Out = std::vector<std::vector<double>>;
  if (rows.empty()) return ReadyFuture<Out>(Out{});
  const size_t n = rows.size();
  Result<MetaBatch> metas_r = master_->GetMetas(rows);
  if (!metas_r.ok()) return ReadyFuture<Out>(metas_r.status());
  Out out(n);
  std::vector<size_t> remote;  // positions the owning servers serve
  remote.reserve(n);
  uint64_t local_hits = 0, local_bytes = 0, local_ops = 0;
  for (size_t i = 0; i < n; ++i) {
    const RowRef ref = rows[i];
    const MatrixMeta& meta = (*metas_r)[i];
    if (meta.partitioner.assignment().size() != 1) {
      return ReadyFuture<Out>(Status::FailedPrecondition(
          "PullOwnedRows requires single-partition matrices"));
    }
    out[i].assign(meta.dim, 0.0);
    if (cache_.HasHot() && cache_.HotDim(ref) == meta.dim &&
        cache_.TryServeDense(ref, 0, meta.dim, out[i].data())) {
      local_hits += 1;
      local_bytes += meta.dim * sizeof(double);
      local_ops += meta.dim;
      continue;
    }
    remote.push_back(i);
  }
  if (local_hits > 0) {
    OpScope scope(master_->cluster());
    TaskTraffic* t = scope.traffic();
    t->worker_ops += local_ops;
    t->local_pull_hits += local_hits;
    t->local_pull_bytes += local_bytes;
  }
  if (remote.empty()) return ReadyFuture<Out>(std::move(out));
  // The exchange reports which rows each response carries (a relocation
  // mid-flight can re-plan them). Both lambdas run before SubmitExchange
  // returns, so the parse may read `groups` by reference.
  std::vector<std::vector<size_t>> groups;
  return SubmitExchange<Out>(
      [&](TaskTraffic* traffic) {
        return ExchangeOwnedRows(traffic, rows, /*deltas=*/nullptr,
                                 std::move(*metas_r), std::move(remote),
                                 &groups);
      },
      [this, &rows, &groups, out = std::move(out)](
          std::vector<PsServer::HandleResult>&& results,
          TaskTraffic*) mutable -> Result<Out> {
        for (size_t g = 0; g < results.size(); ++g) {
          BufferReader reader(results[g].response);
          PS2_ASSIGN_OR_RETURN(uint64_t count, reader.ReadVarint());
          if (count != groups[g].size()) {
            return Status::Internal("owned-rows pull count mismatch");
          }
          for (size_t i : groups[g]) {
            PS2_ASSIGN_OR_RETURN(uint64_t w, reader.ReadVarint());
            if (w != out[i].size()) {
              return Status::Internal("owned-rows pull width mismatch");
            }
            PS2_RETURN_NOT_OK(reader.ReadF64Into(out[i].data(), w));
            // A hot-but-stale row reached its owner anyway: the pull IS the
            // refresh, so warm the cache with it.
            if (cache_.HasHot() && cache_.HotDim(rows[i]) == w) {
              cache_.Store(rows[i], out[i], cache_.epoch());
            }
          }
        }
        return std::move(out);
      });
}

PsFuture<Ack> PsClient::PushOwnedRowsAsync(
    const std::vector<RowRef>& rows,
    const std::vector<std::vector<double>>& deltas) {
  if (rows.empty()) return ReadyFuture<Ack>(Ack{});
  if (rows.size() != deltas.size()) {
    return ReadyFuture<Ack>(
        Status::InvalidArgument("rows/deltas size mismatch"));
  }
  Result<MetaBatch> metas_r = master_->GetMetas(rows);
  if (!metas_r.ok()) return ReadyFuture<Ack>(metas_r.status());
  std::vector<size_t> positions(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    const MatrixMeta& meta = (*metas_r)[i];
    if (meta.partitioner.assignment().size() != 1) {
      return ReadyFuture<Ack>(Status::FailedPrecondition(
          "PushOwnedRows requires single-partition matrices"));
    }
    if (deltas[i].size() != meta.dim) {
      return ReadyFuture<Ack>(
          Status::InvalidArgument("row delta dimension mismatch"));
    }
    positions[i] = i;
  }
  return SubmitExchange<Ack>(
      [&](TaskTraffic* traffic) {
        return ExchangeOwnedRows(traffic, rows, &deltas, std::move(*metas_r),
                                 std::move(positions), /*groups=*/nullptr);
      },
      AckParse);
}

PsFuture<std::vector<std::vector<double>>> PsClient::PullSparseRowsAsync(
    const std::vector<RowRef>& rows, const std::vector<uint64_t>& indices,
    bool compress_counts) {
  using Out = std::vector<std::vector<double>>;
  if (rows.empty() || indices.empty()) {
    return ReadyFuture<Out>(Out(rows.size()));
  }
  Result<std::shared_ptr<const MatrixMeta>> place = Place(rows);
  if (!place.ok()) return ReadyFuture<Out>(place.status());
  if (*place == nullptr) {
    return ReadyFuture<Out>(
        Status::FailedPrecondition("PullSparseRows requires co-located rows"));
  }
  const MatrixMeta& meta = **place;
  const ColumnPartitioner& part = meta.partitioner;
  std::vector<ServerRequest> requests;
  std::vector<std::pair<size_t, size_t>> runs;
  size_t i = 0;
  while (i < indices.size()) {
    if (indices[i] >= meta.dim) {
      return ReadyFuture<Out>(Status::OutOfRange("pull index out of range"));
    }
    int p = part.PartitionOfColumn(indices[i]);
    uint64_t range_end = part.RangeEnd(p);
    size_t j = i;
    while (j < indices.size() && indices[j] < range_end) ++j;
    BufferWriter writer;
    writer.WriteU8(static_cast<uint8_t>(PsOpCode::kPullSparseRowsBatch));
    writer.WriteU8(compress_counts ? 1 : 0);
    writer.WriteVarint(j - i);
    writer.BeginSection(SectionKind::kKeys);
    writer.WriteDeltaKeys(indices.data() + i, j - i);
    writer.EndSection();
    writer.WriteVarint(rows.size());
    for (const RowRef& r : rows) {
      writer.WriteVarint(r.matrix_id);
      writer.WriteVarint(r.row);
    }
    requests.push_back(MakeRouted(meta, p, &writer));
    runs.emplace_back(i, j);
    i = j;
  }
  const size_t num_rows = rows.size();
  const size_t total = indices.size();
  return SubmitAsync<Out>(
      std::move(requests),
      [runs = std::move(runs), num_rows, total, compress_counts](
          std::vector<PsServer::HandleResult>&& results,
          TaskTraffic*) -> Result<Out> {
        Out out(num_rows, std::vector<double>(total, 0.0));
        for (size_t q = 0; q < results.size(); ++q) {
          const auto [lo, hi] = runs[q];
          BufferReader reader(results[q].response);
          PS2_ASSIGN_OR_RETURN(uint64_t n_rows, reader.ReadVarint());
          if (n_rows != num_rows) {
            return Status::Internal("sparse-rows pull row count mismatch");
          }
          for (size_t r = 0; r < num_rows; ++r) {
            if (compress_counts) {
              for (size_t k = lo; k < hi; ++k) {
                PS2_ASSIGN_OR_RETURN(int64_t iv, reader.ReadSignedVarint());
                out[r][k] = static_cast<double>(iv);
              }
            } else {
              PS2_ASSIGN_OR_RETURN(std::vector<double> values,
                                   reader.ReadF64Span(hi - lo));
              std::copy(values.begin(), values.end(), out[r].begin() + lo);
            }
          }
        }
        return out;
      });
}

PsFuture<Ack> PsClient::PushSparseRowsAsync(
    const std::vector<RowRef>& rows, const std::vector<SparseVector>& deltas,
    bool compress_counts) {
  if (rows.size() != deltas.size()) {
    return ReadyFuture<Ack>(
        Status::InvalidArgument("rows/deltas size mismatch"));
  }
  if (rows.empty()) return ReadyFuture<Ack>(Ack{});
  Result<std::shared_ptr<const MatrixMeta>> place = Place(rows);
  if (!place.ok()) return ReadyFuture<Ack>(place.status());
  if (*place == nullptr) {
    return ReadyFuture<Ack>(
        Status::FailedPrecondition("PushSparseRows requires co-located rows"));
  }
  const MatrixMeta& meta = **place;
  const ColumnPartitioner& part = meta.partitioner;
  // One request per server: for every row, the slice of its delta that the
  // server owns.
  std::vector<ServerRequest> requests;
  for (int p = 0; p < part.num_servers(); ++p) {
    uint64_t lo = part.RangeBegin(p);
    uint64_t hi = part.RangeEnd(p);
    if (lo >= hi) continue;
    BufferWriter writer;
    writer.WriteU8(static_cast<uint8_t>(PsOpCode::kPushSparseRowsBatch));
    writer.WriteU8(compress_counts ? 1 : 0);
    // Count rows with any entry in this range first.
    size_t rows_here = 0;
    std::vector<std::pair<size_t, size_t>> spans(rows.size());
    for (size_t r = 0; r < rows.size(); ++r) {
      const auto& idx = deltas[r].indices();
      auto begin_it = std::lower_bound(idx.begin(), idx.end(), lo);
      auto end_it = std::lower_bound(begin_it, idx.end(), hi);
      spans[r] = {static_cast<size_t>(begin_it - idx.begin()),
                  static_cast<size_t>(end_it - idx.begin())};
      rows_here += spans[r].first != spans[r].second;
    }
    if (rows_here == 0) continue;
    writer.WriteVarint(rows_here);
    for (size_t r = 0; r < rows.size(); ++r) {
      auto [sb, se] = spans[r];
      if (sb == se) continue;
      const auto& idx = deltas[r].indices();
      const auto& val = deltas[r].values();
      writer.WriteVarint(rows[r].matrix_id);
      writer.WriteVarint(rows[r].row);
      writer.WriteVarint(se - sb);
      writer.BeginSection(SectionKind::kKeys);
      writer.WriteDeltaKeys(idx.data() + sb, se - sb);
      writer.EndSection();
      if (compress_counts) {
        for (size_t k = sb; k < se; ++k) {
          writer.WriteSignedVarint(static_cast<int64_t>(std::llround(val[k])));
        }
      } else {
        writer.BeginSection(SectionKind::kF64Values);
        writer.WriteF64Span(val.data() + sb, se - sb);
        writer.EndSection();
      }
    }
    requests.push_back(MakeRouted(meta, p, &writer));
  }
  return SubmitAsync<Ack>(std::move(requests), AckParse);
}

PsFuture<Ack> PsClient::ClockAdvanceAsync(int worker, uint64_t clock) {
  if (worker < 0) {
    return ReadyFuture<Ack>(Status::InvalidArgument("worker must be >= 0"));
  }
  // Every active server holds a full worker-clock vector for its key
  // ranges, so the advance fans out to the active snapshot. It is a tracked
  // mutation: retries, dedup and crash recovery compose exactly as for a
  // gradient push. If a migration decommissions a server while this advance
  // is in flight, the rejection acks as a no-op — its clock table moved
  // with its ranges and was max-merged at the new owners.
  std::vector<ServerRequest> requests;
  for (int s : master_->active_servers()) {
    BufferWriter writer;
    writer.WriteU8(static_cast<uint8_t>(PsOpCode::kClockAdvance));
    writer.WriteVarint(static_cast<uint64_t>(worker));
    writer.WriteVarint(clock);
    requests.push_back(MakeRequest(s, &writer));
  }
  return SubmitAsync<Ack>(std::move(requests), AckParse);
}

Status PsClient::ClockAdvance(int worker, uint64_t clock) {
  return ClockAdvanceAsync(worker, clock).Wait();
}

Status PsClient::MatrixInit(int matrix_id, uint32_t row_begin,
                            uint32_t row_end, double scale, uint64_t seed) {
  PS2_ASSIGN_OR_RETURN(MatrixMeta meta, master_->GetMeta(matrix_id));
  const ColumnPartitioner& part = meta.partitioner;
  std::vector<ServerRequest> requests;
  for (const SpanTarget& target : SpanTargets(part)) {
    const int p = target.partition;
    BufferWriter writer;
    writer.WriteU8(static_cast<uint8_t>(PsOpCode::kMatrixInit));
    writer.WriteVarint(matrix_id);
    writer.WriteVarint(row_begin);
    writer.WriteVarint(row_end);
    writer.WriteF64(scale);
    writer.WriteU64(seed);
    requests.push_back(MakeShardRequest(meta, p, &writer));
  }
  return SubmitAsync<Ack>(std::move(requests), AckParse).Wait();
}

}  // namespace ps2
