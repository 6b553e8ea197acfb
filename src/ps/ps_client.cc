#include "ps/ps_client.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
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

// ------------------------------------------------------------------ PsClient

PsClient::PsClient(PsMaster* master, PsClientOptions options)
    : master_(master), options_(options) {
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

PsClient::~PsClient() {
  for (const WindowSlot& slot : window_) {
    PS2_CHECK(slot.outstanding == 0) << "a PsFuture outlived its client";
  }
  master_->hotspot()->UnregisterCache(&cache_);
}

void PsClient::Charge(const TaskTraffic& traffic) {
  if (TaskTraffic* ambient = TrafficScope::Current()) {
    ambient->MergeFrom(traffic);
  } else {
    master_->cluster()->ChargeOutOfTask(traffic);
  }
}

uint32_t PsClient::Issue(const void* ctx, bool* leader, TaskTraffic* traffic) {
  std::lock_guard<std::mutex> lock(window_mu_);
  if (!spare_servers_.empty()) {
    traffic->servers = std::move(spare_servers_.back());
    spare_servers_.pop_back();
  }
  size_t slot = window_.size();
  for (size_t i = 0; i < window_.size(); ++i) {
    if (window_[i].outstanding > 0 && window_[i].ctx == ctx) {
      window_[i].outstanding += 1;
      *leader = false;
      return static_cast<uint32_t>(i);
    }
    if (window_[i].outstanding == 0 && slot == window_.size()) slot = i;
  }
  if (slot == window_.size()) window_.emplace_back();
  window_[slot] = WindowSlot{ctx, 1};
  *leader = true;
  return static_cast<uint32_t>(slot);
}

void internal::SettleOp(PsClient* client, uint32_t slot,
                        TaskTraffic* traffic) {
  client->Charge(*traffic);
  std::lock_guard<std::mutex> lock(client->window_mu_);
  client->window_[slot].outstanding -= 1;
  if (traffic->servers.capacity() > 0) {
    traffic->servers.clear();
    client->spare_servers_.push_back(std::move(traffic->servers));
  }
}

PsClient::ServerRequest PsClient::MakeRequest(int server,
                                              BufferWriter* writer) {
  ServerRequest req;
  req.server = server;
  req.sections = writer->TakeSections();
  req.payload = writer->Release();
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

namespace {

/// The representative partition of each owning server, in partition order.
/// Shard-scoped opcodes (ColumnOps, Aggregate, MatrixInit) operate on the
/// target server's whole contiguous shard and carry no column window, so
/// they must go out once per SERVER. Under elastic membership partitions
/// are finer than shards (DESIGN.md §12) and a per-partition fan-out would
/// apply a mutating op k times on a server owning k partitions. The
/// representative is the lowest partition in the server's block: it routes
/// the request and re-aims it after a routing-epoch swap. With one
/// partition per server (a static cluster) this is the per-partition
/// fan-out.
std::vector<int> ShardPartitions(const ColumnPartitioner& part) {
  std::vector<int> out;
  for (int p = 0, last_server = -1; p < part.num_partitions(); ++p) {
    const int server = part.ServerOfPartition(p);
    // Block assignments are contiguous.
    if (part.RangeWidth(p) == 0 || server == last_server) continue;
    last_server = server;
    out.push_back(p);
  }
  return out;
}

}  // namespace

void PsClient::EncodeRequest(ServerRequest* req, bool force_key_install) {
  // Reset to the zero-copy identity encoding first (idempotence: the
  // keycache-miss path re-encodes an already-encoded request).
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
  EncodedPayload enc = chain_.Encode(req->payload, req->sections, want,
                                     /*prefix=*/1, &ctx);
  req->estats = enc.stats;
  if (enc.mask != 0) {
    req->filtered = std::move(enc.wire);
    req->wire_mask = enc.mask;
  }
}

void PsClient::StampRequests(std::span<ServerRequest> requests) {
  for (ServerRequest& req : requests) {
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
  const PsOpCode op = PeekOpCode(request.payload);
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
    const WireFrame frame{request.wire(), request.wire_mask};
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
      out.req_wire = request.wire().size() + Message::kHeaderBytes;
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

namespace {

/// A scratch buffer larger than this is freed when its op ends instead of
/// kept for the next op. Small ops (serving batches, a few rows) then run
/// allocation-free, while a large op (hundreds of rows, a wide request)
/// allocates as it would without scratch and leaves no idle memory behind:
/// an idle thread holds a few KiB per buffer at most.
constexpr size_t kKeepScratchBytes = 16 << 10;

/// Clears `v`, and frees it when it holds more than kKeepScratchBytes.
template <typename T>
void Trim(std::vector<T>* v) {
  v->clear();
  if (v->capacity() * sizeof(T) > kKeepScratchBytes) std::vector<T>().swap(*v);
}

/// Leases this thread's instance of scratch `T` for one call. The scratch
/// keeps its capacity from call to call; the lease calls `T::Release()`
/// when it ends, to drop what must not outlive the call. A lease taken
/// while another is live on the same thread means the call re-entered
/// itself, and fails a check.
template <typename T>
class ScratchLease {
 public:
  ScratchLease() : slot_(Slot()) {
    PS2_CHECK(!slot_.leased) << "per-thread client scratch re-entered";
    slot_.leased = true;
  }
  ~ScratchLease() {
    slot_.value.Release();
    slot_.leased = false;
  }
  ScratchLease(const ScratchLease&) = delete;
  ScratchLease& operator=(const ScratchLease&) = delete;

  T& operator*() { return slot_.value; }
  T* operator->() { return &slot_.value; }

 private:
  struct Slot_ {
    T value;
    bool leased = false;
  };
  static Slot_& Slot() {
    thread_local Slot_ slot;
    return slot;
  }
  Slot_& slot_;
};

}  // namespace

/// ExchangeEach's per-thread scratch: one outcome per request.
struct PsClient::ExchangeScratch {
  std::vector<ExchangeOutcome> slots;
  void Release() { Trim(&slots); }
};

void PsClient::ExchangeEach(TaskTraffic* traffic,
                            std::span<ServerRequest> requests,
                            std::vector<Result<PsServer::HandleResult>>* out) {
  const size_t n = requests.size();
  // One span per fan-out, not per request: on the inline route every span
  // lands in the issuing thread's trace ring, and the server spans nested
  // here already time each request.
  PS2_TRACE_SPAN("ps.client",
                 PsOpCodeName(n > 0 ? PeekOpCode(requests[0].payload)
                                    : static_cast<PsOpCode>(0xff)));
  StampRequests(requests);
  ScratchLease<ExchangeScratch> scratch;
  std::vector<ExchangeOutcome>& slots = scratch->slots;
  slots.resize(n);
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
    out->push_back(std::move(r));
  }
}

Result<std::vector<PsServer::HandleResult>> PsClient::ExchangeAll(
    TaskTraffic* traffic, std::vector<ServerRequest> requests) {
  std::vector<Result<PsServer::HandleResult>> each;
  each.reserve(requests.size());
  ExchangeEach(traffic, requests, &each);
  std::vector<PsServer::HandleResult> out;
  out.reserve(each.size());
  for (Result<PsServer::HandleResult>& r : each) {
    if (!r.ok()) return r.status();  // the first failure in request order
    out.push_back(std::move(*r));
  }
  return out;
}

Result<std::vector<uint8_t>> PsClient::ControlCall(int server,
                                                   BufferWriter* writer) {
  if (server < 0 || server >= master_->num_servers()) {
    return Status::InvalidArgument("control call to unknown server");
  }
  std::vector<ServerRequest> requests;
  requests.push_back(MakeRequest(server, writer));
  // One control leg = one round, charged like any op: to the task (or the
  // migration driver's scope), else to the clock.
  return Submit<std::vector<uint8_t>>(
             std::move(requests),
             [](std::vector<PsServer::HandleResult>&& results) {
               return std::move(results[0].response);
             })
      .Get();
}

template <typename T, typename Run>
PsFuture<T> PsClient::Submit(Run run) {
  const TaskTraffic* ambient = TrafficScope::Current();
  TaskTraffic traffic;
  // Loopback diversion is decided per exchange against the ISSUING task's
  // co-located server; the exchanges record into the op's own traffic, so
  // the binding travels with it.
  if (ambient != nullptr) traffic.colocated_server = ambient->colocated_server;
  bool leader = false;
  const uint32_t slot = Issue(ambient, &leader, &traffic);
  (leader ? traffic.rounds : traffic.pipelined_rounds) += 1;
  Result<T> value = run(&traffic);
  return PsFuture<T>(std::move(value), std::move(traffic), this, slot);
}

template <typename T, typename Parse>
PsFuture<T> PsClient::Submit(std::vector<ServerRequest> requests,
                             Parse parse) {
  return Submit<T>([&](TaskTraffic* traffic) -> Result<T> {
    PS2_ASSIGN_OR_RETURN(std::vector<PsServer::HandleResult> results,
                         ExchangeAll(traffic, std::move(requests)));
    return parse(std::move(results));
  });
}

namespace {
/// The parse of push-like ops: responses carry nothing the client needs.
Ack AckParse(std::vector<PsServer::HandleResult>&&) { return Ack{}; }
}  // namespace

// ----------------------------------------------------------- row access ops

namespace {

/// What one row op asks for, reset between ops (PsClient::RowOp).
struct RowOpParams {
  PsOpCode op = PsOpCode::kReadRows;
  RowSelectorKind kind = RowSelectorKind::kRange;
  bool int_values = false;
  /// The column of a window's first value: a range selector's begin (0 for
  /// the whole row and for the all selector).
  uint64_t window_begin = 0;
  uint64_t epoch = 0;  ///< kServingPull: the pinned snapshot epoch
  const std::vector<RowRef>* rows = nullptr;
  const std::vector<uint64_t>* indices = nullptr;  ///< reads: shared list
  const std::vector<PsClient::ServingRead>* reads = nullptr;  ///< serving
  RowDeltas deltas = RowDeltas(std::vector<SparseVector>());  ///< writes
  /// A row of the previous row's matrix with the same selection splits
  /// alike: Plan reuses that row's pieces, parts[last_begin, last_end).
  const MatrixMeta* last_meta = nullptr;
  uint64_t last_lo = 0, last_hi = 0;
  size_t last_begin = 0, last_end = 0;
};

}  // namespace

struct PsClient::RowOp : RowOpParams {
  // ---- Per-thread buffers: capacity kept from op to op ----
  MetaBatch metas;
  std::vector<std::shared_ptr<const void>> repins;  ///< re-planned metas
  std::vector<RowRef> serving_rows;  ///< kServingPull: the reads' rows
  std::vector<RowPart> parts;  ///< the plan before the first exchange
  /// The pieces each returned response answers, in response order:
  /// response q answers answered[answered_end[q - 1], answered_end[q]).
  std::vector<RowPart> answered;
  std::vector<size_t> answered_end;
  /// SortParts' counting sort, and where each request's pieces end.
  std::vector<RowPart> sorted;
  std::vector<size_t> counts;
  std::vector<size_t> ends;
  std::vector<RowPart> bounced;
  /// Request slots; only the first ends.size() are the current round's.
  std::vector<ServerRequest> requests;
  std::vector<Result<PsServer::HandleResult>> each;
  std::vector<PsServer::HandleResult> results;  ///< the answered responses

  /// Ends the op (ScratchLease): resets its fields, unpins its metas, drops
  /// its responses and frees the buffers too large to keep.
  void Release() {
    static_cast<RowOpParams&>(*this) = RowOpParams{};
    metas.pin.reset();
    Trim(&metas.metas);
    repins.clear();
    Trim(&serving_rows);
    Trim(&parts);
    Trim(&answered);
    Trim(&answered_end);
    Trim(&sorted);
    Trim(&counts);
    Trim(&ends);
    Trim(&bounced);
    Trim(&each);
    Trim(&results);
    for (ServerRequest& r : requests) {
      std::vector<uint8_t>().swap(r.filtered);
      Trim(&r.payload);
      Trim(&r.sections);
    }
  }

  /// Orders `parts` by (server, group), keeping the op order within each
  /// key (a counting sort: request order and bytes do not depend on how
  /// the pieces were gathered), and sets `ends` to where each non-empty key
  /// run ends.
  void SortParts(int num_servers) {
    uint32_t n_groups = 1;
    for (const RowPart& p : parts) n_groups = std::max(n_groups, p.group + 1);
    auto key = [n_groups](const RowPart& p) {
      return static_cast<size_t>(p.server) * n_groups + p.group;
    };
    counts.assign(static_cast<size_t>(num_servers) * n_groups + 1, 0);
    for (const RowPart& p : parts) counts[key(p) + 1] += 1;
    for (size_t k = 1; k < counts.size(); ++k) counts[k] += counts[k - 1];
    ends.clear();
    for (size_t k = 1; k < counts.size(); ++k) {
      if (counts[k] != counts[k - 1]) ends.push_back(counts[k]);
    }
    // counts[k] is where key k starts: place each piece at its key's next
    // slot.
    sorted.resize(parts.size());
    for (const RowPart& p : parts) sorted[counts[key(p)]++] = p;
    parts.swap(sorted);
  }

  /// The sorted index list of an index piece.
  const uint64_t* Keys(const RowPart& p) const {
    switch (op) {
      case PsOpCode::kReadRows: return indices->data();
      case PsOpCode::kServingPull: return (*reads)[p.item].indices.data();
      default: return deltas.sparse[p.item].indices().data();
    }
  }

  /// Splits row `i`'s window [lo, hi) — or, for an index selector, its
  /// positions [lo, hi) — into pieces: at server spans for the all kind
  /// and serving reads, else at partition boundaries.
  void Plan(uint32_t i, uint64_t lo, uint64_t hi) {
    const MatrixMeta* meta = metas.metas[i];
    const bool all = kind == RowSelectorKind::kAll;
    const bool by_server = all || op == PsOpCode::kServingPull;
    // Sparse writes and serving reads select per row: nothing to reuse.
    if (meta == last_meta && lo == last_lo && hi == last_hi &&
        deltas.sparse == nullptr && reads == nullptr) {
      const size_t begin = parts.size();
      for (size_t k = last_begin; k < last_end; ++k) {
        RowPart p = parts[k];
        p.item = i;
        parts.push_back(p);
      }
      last_begin = begin;
      last_end = parts.size();
      return;
    }
    last_meta = meta;
    last_lo = lo;
    last_hi = hi;
    last_begin = parts.size();
    if (kind == RowSelectorKind::kIndices) {
      RowPart probe;
      probe.item = i;
      SplitIndices(meta->partitioner, i, Keys(probe), lo, hi, by_server,
                   &parts);
    } else {
      SplitWindow(meta->partitioner, i, lo, hi, by_server, all, &parts);
    }
    last_end = parts.size();
  }
};

void PsClient::SplitWindow(const ColumnPartitioner& part, uint32_t item,
                           uint64_t lo, uint64_t hi, bool by_server,
                           bool whole_slice, std::vector<RowPart>* out) {
  if (lo >= hi) return;
  const int n = part.num_partitions();
  if (n == 1) {  // a single-partition (owned) row: one piece, no search
    RowPart piece;
    piece.item = item;
    piece.server = part.first_server();
    piece.group = by_server ? 0 : 1;
    piece.lo = lo;
    piece.hi = hi;
    piece.whole_slice = whole_slice && lo == 0 && hi == part.dim();
    out->push_back(piece);
    return;
  }
  for (int p = part.PartitionOfColumn(lo); p < n && part.RangeBegin(p) < hi;) {
    const int first = p;
    const int server = part.ServerOfPartition(p);
    const uint64_t begin = part.RangeBegin(p);
    uint64_t end = part.RangeEnd(p++);
    // A server's partitions are one contiguous block (ps/partitioner.h).
    while (by_server && p < n && part.ServerOfPartition(p) == server) {
      end = part.RangeEnd(p++);
    }
    RowPart piece;
    piece.item = item;
    piece.server = server;
    piece.group = by_server ? 0 : static_cast<uint32_t>(first) + 1;
    piece.lo = std::max(lo, begin);
    piece.hi = std::min(hi, end);
    piece.whole_slice = whole_slice && piece.lo == begin && piece.hi == end;
    if (piece.lo < piece.hi) out->push_back(piece);
  }
}

void PsClient::SplitIndices(const ColumnPartitioner& part, uint32_t item,
                            const uint64_t* idx, size_t lo, size_t hi,
                            bool by_server, std::vector<RowPart>* out) {
  const int n = part.num_partitions();
  for (size_t i = lo; i < hi;) {
    int p = part.PartitionOfColumn(idx[i]);
    const int first = p;
    const int server = part.ServerOfPartition(p);
    while (by_server && p + 1 < n && part.ServerOfPartition(p + 1) == server) {
      ++p;
    }
    const uint64_t end = part.RangeEnd(p);
    size_t j = i;
    while (j < hi && idx[j] < end) ++j;
    RowPart piece;
    piece.item = item;
    piece.server = server;
    piece.group = by_server ? 0 : static_cast<uint32_t>(first) + 1;
    piece.index_run = true;
    piece.lo = i;
    piece.hi = j;
    out->push_back(piece);
    i = j;
  }
}

int PsClient::HotHome(RowRef ref) {
  // Over the ACTIVE servers: with a static cluster that is every server.
  const std::vector<int> active = master_->active_servers();
  return active[static_cast<size_t>(
      HotHomeServer(ref, static_cast<int>(active.size())))];
}

PsClient::ServerRequest PsClient::EncodeRowRequest(const RowOp& op,
                                                   const RowPart* parts,
                                                   size_t n,
                                                   ServerRequest reuse) {
  const bool write = op.op == PsOpCode::kWriteRows;
  const size_t value_bytes = op.int_values ? 2 : sizeof(double);
  size_t bytes = 1 + 2 * kMaxVarintBytes;
  for (size_t k = 0; k < n; ++k) {
    const uint64_t width = parts[k].hi - parts[k].lo;
    bytes += 5 * kMaxVarintBytes;
    if (write) bytes += width * value_bytes;
    // A read run's index list is written once: count it at the first piece.
    if (parts[k].index_run && (op.op != PsOpCode::kReadRows || k == 0)) {
      bytes += width * 3;
    }
  }
  BufferWriter writer(std::move(reuse.payload), std::move(reuse.sections),
                      bytes);
  writer.WriteU8(static_cast<uint8_t>(op.op));
  auto keys = [&](const RowPart& p) {
    writer.WriteVarint(p.hi - p.lo);
    writer.BeginSection(SectionKind::kKeys);
    writer.WriteDeltaKeys(op.Keys(p) + p.lo, p.hi - p.lo);
    writer.EndSection();
  };
  auto row = [&](const RowPart& p) {
    const RowRef ref = (*op.rows)[p.item];
    writer.WriteVarint(ref.matrix_id);
    writer.WriteVarint(ref.row);
  };
  if (op.op == PsOpCode::kServingPull) {
    // Epoch, count, then per entry (matrix, row, n_idx, keys); n_idx = 0
    // reads the server's whole slice.
    writer.WriteVarint(op.epoch);
    writer.WriteVarint(n);
    for (size_t k = 0; k < n; ++k) {
      row(parts[k]);
      if (parts[k].index_run) {
        keys(parts[k]);
      } else {
        writer.WriteVarint(0);
      }
    }
    // Unstamped: a pinned read is routed by its epoch's placement, which a
    // later routing table must not bounce.
    return MakeRequest(parts[0].server, &writer);
  }
  auto kind_of = [](const RowPart& p) {
    return p.whole_slice ? RowSelectorKind::kAll
           : p.index_run ? RowSelectorKind::kIndices
                         : RowSelectorKind::kRange;
  };
  // Runs: consecutive pieces with one selector tag share a run header; a
  // read run also shares its window or index positions.
  for (size_t i = 0; i < n;) {
    const RowPart& head = parts[i];
    const RowSelectorKind kind = kind_of(head);
    size_t j = i + 1;
    while (j < n && kind_of(parts[j]) == kind && parts[j].hot == head.hot &&
           (write || kind == RowSelectorKind::kAll ||
            (parts[j].lo == head.lo && parts[j].hi == head.hi))) {
      ++j;
    }
    writer.WriteU8(static_cast<uint8_t>(kind) |
                   (op.int_values ? kRowSelectorIntValues : 0) |
                   (write && head.hot ? kRowSelectorReplica : 0));
    if (!write && kind == RowSelectorKind::kRange) {
      writer.WriteVarint(head.lo);
      writer.WriteVarint(head.hi - head.lo);
    } else if (!write && kind == RowSelectorKind::kIndices) {
      keys(head);
    }
    writer.WriteVarint(j - i);
    for (; i < j; ++i) {
      const RowPart& p = parts[i];
      row(p);
      if (!write) continue;
      const uint64_t width = p.hi - p.lo;
      if (p.index_run) {
        keys(p);
        writer.WriteValues(op.deltas.sparse[p.item].values().data() + p.lo,
                           width, op.int_values);
        continue;
      }
      if (!p.whole_slice) writer.WriteVarint(p.lo);
      writer.WriteVarint(width);
      writer.WriteValues(
          op.deltas.dense[p.item].data() + (p.lo - op.window_begin), width,
          op.int_values);
    }
  }
  ServerRequest req = MakeRequest(parts[0].server, &writer);
  // Stamped with the plan's routing epoch but given no routing identity: a
  // `routing stale` bounce surfaces to ExchangeRows, which re-plans the
  // pieces, since a request's rows may now live on different servers.
  req.header.routing_epoch = op.metas[parts[0].item].routing_epoch + 1;
  // Whole slices of a spread matrix read or write a server's whole shard,
  // as column ops do; whole rows of single-server (owned) matrices stay
  // keyed.
  req.shard_scoped = parts[0].whole_slice &&
                     op.metas[parts[0].item].partitioner.num_partitions() > 1;
  return req;
}

Status PsClient::ExchangeRows(TaskTraffic* traffic, RowOp* op) {
  std::vector<RowPart>& parts = op->parts;
  const std::vector<size_t>& ends = op->ends;
  for (uint32_t round = 0;; ++round) {
    op->SortParts(master_->num_servers());
    const size_t n_requests = ends.size();
    if (op->requests.size() < n_requests) op->requests.resize(n_requests);
    for (size_t q = 0, begin = 0; q < n_requests; begin = ends[q++]) {
      op->requests[q] =
          EncodeRowRequest(*op, parts.data() + begin, ends[q] - begin,
                           std::move(op->requests[q]));
    }
    std::vector<Result<PsServer::HandleResult>>& each = op->each;
    each.clear();
    ExchangeEach(traffic, std::span(op->requests.data(), n_requests), &each);
    uint64_t bounced_stamp = 0;
    op->bounced.clear();
    for (size_t q = 0, begin = 0; q < n_requests; begin = ends[q++]) {
      if (each[q].ok()) {
        op->results.push_back(std::move(*each[q]));
        continue;
      }
      // A bounced request never applied (an already-applied mutation is
      // acked inside ExecuteRequest), so its pieces are simply re-planned.
      if (!IsRoutingStale(each[q].status()) || round >= kMaxRoutingRounds) {
        return each[q].status();
      }
      bounced_stamp = std::max(bounced_stamp,
                               op->metas[parts[begin].item].routing_epoch + 1);
      op->bounced.insert(op->bounced.end(), parts.begin() + begin,
                         parts.begin() + ends[q]);
    }
    if (op->bounced.empty() && op->answered.empty()) {
      // Nothing bounced on the first round: the plan is the answer key.
      op->answered.swap(parts);
      op->answered_end.assign(ends.begin(), ends.end());
      return Status::OK();
    }
    for (size_t q = 0, begin = 0; q < n_requests; begin = ends[q++]) {
      if (!each[q].ok()) continue;
      op->answered.insert(op->answered.end(), parts.begin() + begin,
                          parts.begin() + ends[q]);
      op->answered_end.push_back(op->answered.size());
    }
    if (op->bounced.empty()) return Status::OK();
    parts.swap(op->bounced);
    std::vector<RowRef> refs;
    refs.reserve(parts.size());
    for (const RowPart& p : parts) refs.push_back((*op->rows)[p.item]);
    PS2_ASSIGN_OR_RETURN(MetaBatch fresh, master_->GetMetas(refs));
    if (fresh[0].routing_epoch + 1 <= bounced_stamp) {
      // Servers learn a new epoch before the master publishes the metas
      // that carry it; poll like a fence wait until the publish lands.
      traffic->retry_backoff_time +=
          master_->cluster()->cost().RetryBackoff(1);
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    // Partition boundaries never move, so a piece keeps its columns and
    // only its servers change: split it along the fresh server spans.
    std::vector<RowPart> replanned;
    for (size_t k = 0; k < parts.size(); ++k) {
      RowPart p = parts[k];
      op->metas.metas[p.item] = fresh.metas[k];
      const ColumnPartitioner& part = fresh[k].partitioner;
      if (p.hot) {
        p.server = HotHome(refs[k]);
        replanned.push_back(p);
      } else if (p.index_run) {
        SplitIndices(part, p.item, op->Keys(p), p.lo, p.hi,
                     /*by_server=*/true, &replanned);
      } else {
        SplitWindow(part, p.item, p.lo, p.hi, /*by_server=*/true,
                    p.whole_slice, &replanned);
      }
    }
    op->repins.push_back(std::move(fresh.pin));
    parts = std::move(replanned);
  }
}

namespace {

/// Sizes `block`'s values to the total its offsets give. A block grows to
/// exactly the size asked, so a reused one holds the largest shape it has
/// read and no more. Growing frees the old buffer before it allocates the
/// new one, so a reader never holds both; allocating first raised
/// w2v-reloc's peak RSS by ~0.5 MB. Not cleared: every value is then
/// written by the cache or a response.
void SizeValues(RowBlock* block) {
  const size_t total = block->offsets.back();
  if (total > block->values.capacity()) {
    std::vector<double>().swap(block->values);
  }
  block->values.resize(total);
}

}  // namespace

PsFuture<RowBlock> PsClient::SubmitReads(RowOp* op, RowBlock out,
                                         std::vector<uint8_t> warm) {
  if (op->parts.empty()) return PsFuture<RowBlock>(std::move(out));
  // The lambda runs before Submit returns, so it may hold `op`, `out` and
  // `warm` by reference.
  const std::vector<RowRef>& rows = *op->rows;
  return Submit<RowBlock>([&](TaskTraffic* traffic) -> Result<RowBlock> {
    PS2_RETURN_NOT_OK(ExchangeRows(traffic, op));
    const std::vector<PsServer::HandleResult>& results = op->results;
    for (size_t q = 0, begin = 0; q < results.size();
         begin = op->answered_end[q++]) {
      const size_t end = op->answered_end[q];
      BufferReader reader(results[q].response);
      if (op->op == PsOpCode::kServingPull) {
        PS2_ASSIGN_OR_RETURN(uint64_t n_entries, reader.ReadVarint());
        if (n_entries != end - begin) {
          return Status::Internal("serving pull entry count mismatch");
        }
      }
      // Per piece: n, then n values.
      for (size_t k = begin; k < end; ++k) {
        const RowPart& p = op->answered[k];
        PS2_ASSIGN_OR_RETURN(uint64_t n, reader.ReadVarint());
        if (n != p.hi - p.lo) {
          return Status::Internal("row read size mismatch");
        }
        double* row = out.row(p.item);
        if (!p.hot) {
          PS2_RETURN_NOT_OK(reader.ReadValues(
              row + (p.index_run ? p.lo : p.lo - op->window_begin), n,
              op->int_values));
          continue;
        }
        // A hot refresh: the whole row, cached, then selected from.
        std::vector<double> whole(n);
        PS2_RETURN_NOT_OK(reader.ReadValues(whole.data(), n, op->int_values));
        const size_t width = out.width(p.item);
        for (size_t c = 0; c < width; ++c) {
          row[c] = whole[op->kind == RowSelectorKind::kIndices
                             ? (*op->indices)[c]
                             : op->window_begin + c];
        }
        cache_.Store(rows[p.item], std::move(whole), cache_.epoch());
      }
    }
    // A stale hot row an all read fetched from its primaries warms the
    // cache: the read IS the refresh.
    for (size_t i = 0; i < warm.size(); ++i) {
      if (warm[i] == 0) continue;
      const double* row = out.row(i);
      std::vector<double> values(row, row + out.width(i));
      cache_.Store(rows[i], std::move(values), cache_.epoch());
    }
    return std::move(out);
  });
}

PsFuture<RowBlock> PsClient::ReadRowsAsync(const std::vector<RowRef>& rows,
                                           const RowSelector& cols,
                                           RowBlock reuse) {
  const RowSelectorKind kind = cols.kind;
  if (kind == RowSelectorKind::kIndices && cols.indices == nullptr) {
    return PsFuture<RowBlock>(
        Status::InvalidArgument("index selector without indices"));
  }
  RowBlock out = std::move(reuse);
  out.offsets.assign(1, 0);
  if (rows.empty()) {
    out.values.clear();
    return PsFuture<RowBlock>(std::move(out));
  }
  ScratchLease<RowOp> lease;
  RowOp& op = *lease;
  op.kind = kind;
  op.int_values = cols.int_values;
  op.rows = &rows;
  op.indices = cols.indices;
  op.window_begin =
      kind == RowSelectorKind::kRange && !cols.cols.whole ? cols.cols.begin : 0;
  const Status pinned = master_->GetMetas(rows, &op.metas);
  if (!pinned.ok()) return PsFuture<RowBlock>(pinned);
  // Shape the block first: each row's window (or index count) sets its
  // offset.
  const std::vector<uint64_t>* idx = cols.indices;
  auto window = [&](uint64_t dim) {
    return kind == RowSelectorKind::kAll ? ColRange::Of(0, dim)
                                         : cols.cols.Resolve(dim);
  };
  out.offsets.resize(rows.size() + 1);
  for (uint32_t i = 0; i < rows.size(); ++i) {
    const uint64_t dim = op.metas[i].dim;
    const ColRange w = window(dim);
    if (kind != RowSelectorKind::kIndices && (w.begin > w.end || w.end > dim)) {
      return PsFuture<RowBlock>(Status::OutOfRange("read window out of range"));
    }
    if (kind == RowSelectorKind::kIndices && !idx->empty() &&
        idx->back() >= dim) {
      return PsFuture<RowBlock>(Status::OutOfRange("read index out of range"));
    }
    const size_t width =
        kind == RowSelectorKind::kIndices ? idx->size() : w.width();
    out.offsets[i + 1] = out.offsets[i] + width;
  }
  SizeValues(&out);
  op.parts.reserve(rows.size());
  std::vector<uint8_t> warm;  // stale hot rows an all read refreshes
  uint64_t local_hits = 0, local_values = 0;
  for (uint32_t i = 0; i < rows.size(); ++i) {
    const uint64_t dim = op.metas[i].dim;
    const ColRange w = window(dim);
    if (cache_.HasHot() && cache_.HotDim(rows[i]) == dim) {
      const bool served =
          kind == RowSelectorKind::kIndices
              ? cache_.TryServeSparse(rows[i], *idx, out.row(i))
              : cache_.TryServeDense(rows[i], w.begin, w.end, out.row(i));
      if (served) {
        local_hits += 1;
        local_values += out.width(i);
        continue;
      }
      if (kind != RowSelectorKind::kAll) {
        // Refresh the whole row once from its hash home's replica.
        RowPart refresh;
        refresh.item = i;
        refresh.server = HotHome(rows[i]);
        refresh.hot = true;
        refresh.hi = dim;
        op.parts.push_back(refresh);
        continue;
      }
      warm.resize(rows.size());
      warm[i] = 1;
    }
    op.Plan(i, kind == RowSelectorKind::kIndices ? 0 : w.begin,
            kind == RowSelectorKind::kIndices ? idx->size() : w.end);
  }
  if (local_hits > 0) {
    TaskTraffic local;
    local.worker_ops = local_values;
    local.local_pull_hits = local_hits;
    local.local_pull_bytes = local_values * sizeof(double);
    Charge(local);
  }
  return SubmitReads(&op, std::move(out), std::move(warm));
}

PsFuture<Ack> PsClient::WriteRowsAsync(const std::vector<RowRef>& rows,
                                       RowDeltas deltas,
                                       const RowSelector& cols) {
  if (rows.size() != deltas.size) {
    return PsFuture<Ack>(
        Status::InvalidArgument("rows/deltas size mismatch"));
  }
  const bool dense = deltas.dense != nullptr;
  if (dense && cols.kind == RowSelectorKind::kIndices) {
    return PsFuture<Ack>(Status::InvalidArgument(
        "dense row deltas take an all or range selector"));
  }
  if (rows.empty()) return PsFuture<Ack>(Ack{});
  ScratchLease<RowOp> lease;
  RowOp& op = *lease;
  op.op = PsOpCode::kWriteRows;
  op.kind = dense ? cols.kind : RowSelectorKind::kIndices;
  op.int_values = cols.int_values;
  op.rows = &rows;
  op.deltas = deltas;
  op.window_begin = op.kind == RowSelectorKind::kRange && !cols.cols.whole
                        ? cols.cols.begin
                        : 0;
  const Status pinned = master_->GetMetas(rows, &op.metas);
  if (!pinned.ok()) return PsFuture<Ack>(pinned);
  op.parts.reserve(rows.size());
  for (uint32_t i = 0; i < rows.size(); ++i) {
    const MatrixMeta& meta = op.metas[i];
    const bool hot = cache_.HasHot() && cache_.HotDim(rows[i]) == meta.dim;
    if (!dense) {
      const SparseVector& delta = deltas.sparse[i];
      if (delta.nnz() == 0) continue;
      if (delta.indices().back() >= meta.dim) {
        return PsFuture<Ack>(Status::OutOfRange("push index out of range"));
      }
      if (!hot) {
        op.Plan(i, 0, delta.nnz());
        continue;
      }
    } else {
      const std::vector<double>& delta = deltas.dense[i];
      const ColRange w = op.kind == RowSelectorKind::kAll
                             ? ColRange::Of(0, meta.dim)
                         : cols.cols.whole ? ColRange::Of(0, delta.size())
                                           : cols.cols;
      if (op.kind == RowSelectorKind::kAll && delta.size() != meta.dim) {
        return PsFuture<Ack>(
            Status::InvalidArgument("row delta dimension mismatch"));
      }
      if (w.begin > w.end || w.width() != delta.size()) {
        return PsFuture<Ack>(
            Status::InvalidArgument("push window/delta size mismatch"));
      }
      if (w.end > meta.dim) {
        return PsFuture<Ack>(Status::OutOfRange("push window out of range"));
      }
      if (!hot || op.kind == RowSelectorKind::kAll || delta.empty()) {
        op.Plan(i, w.begin, w.end);
        continue;
      }
    }
    // Hot: one write of the whole selection into the hash home's replica
    // pending buffer, applied to the primaries at the next ReplicaSync.
    RowPart piece;
    piece.item = i;
    piece.server = HotHome(rows[i]);
    piece.index_run = !dense;
    piece.hot = true;
    piece.lo = dense ? op.window_begin : 0;
    piece.hi = dense ? op.window_begin + deltas.dense[i].size()
                     : deltas.sparse[i].nnz();
    op.parts.push_back(piece);
  }
  if (op.parts.empty()) return PsFuture<Ack>(Ack{});
  return Submit<Ack>([&](TaskTraffic* traffic) -> Result<Ack> {
    PS2_RETURN_NOT_OK(ExchangeRows(traffic, &op));
    return Ack{};
  });
}

Status PsClient::PushSparse(RowRef ref, const SparseVector& delta) {
  return WriteRowsAsync({ref}, delta).Wait();
}

PsFuture<RowBlock> PsClient::ServingPullAsync(
    uint64_t epoch, const std::vector<ServingRead>& reads, RowBlock reuse) {
  RowBlock out = std::move(reuse);
  out.offsets.assign(1, 0);
  if (reads.empty()) {
    out.values.clear();
    return PsFuture<RowBlock>(std::move(out));
  }
  ScratchLease<RowOp> lease;
  RowOp& op = *lease;
  op.op = PsOpCode::kServingPull;
  op.epoch = epoch;
  op.reads = &reads;
  op.serving_rows.resize(reads.size());
  for (size_t r = 0; r < reads.size(); ++r) op.serving_rows[r] = reads[r].row;
  op.rows = &op.serving_rows;
  const Status placed = master_->serving_snapshots()->PlacementOf(
      epoch, op.serving_rows, &op.metas);
  if (!placed.ok()) return PsFuture<RowBlock>(placed);
  // One piece per (read, server); pieces bound for the same server share a
  // single kServingPull request (the coalescing lever).
  out.offsets.resize(reads.size() + 1);
  for (uint32_t r = 0; r < reads.size(); ++r) {
    const std::vector<uint64_t>& idx = reads[r].indices;
    const uint64_t dim = op.metas[r].dim;
    if (!idx.empty() && idx.back() >= dim) {
      return PsFuture<RowBlock>(
          Status::OutOfRange("serving pull index out of range"));
    }
    const uint64_t width = idx.empty() ? dim : idx.size();
    op.kind = idx.empty() ? RowSelectorKind::kAll : RowSelectorKind::kIndices;
    op.Plan(r, 0, width);
    out.offsets[r + 1] = out.offsets[r] + width;
  }
  op.kind = RowSelectorKind::kAll;
  SizeValues(&out);
  return SubmitReads(&op, std::move(out), {});
}

PsFuture<std::vector<std::vector<double>>> PsClient::ServingPullAsync(
    uint64_t epoch, const std::vector<ServingRead>& reads) {
  using Out = std::vector<std::vector<double>>;
  return ServingPullAsync(epoch, reads, RowBlock{})
      .Map<Out>([](RowBlock&& block) {
        Out out(block.rows());
        for (size_t r = 0; r < out.size(); ++r) {
          out[r].assign(block.row(r), block.row(r) + block.width(r));
        }
        return out;
      });
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
  for (int partition : ShardPartitions(meta->partitioner)) {
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
    requests.push_back(MakeShardRequest(*meta, partition, &writer));
  }
  return std::optional<std::vector<ServerRequest>>(std::move(requests));
}

PsFuture<Ack> PsClient::ColumnOpsAsync(
    const std::vector<ColumnOpEntry>& entries) {
  if (entries.empty()) return PsFuture<Ack>(Ack{});
  Result<std::optional<std::vector<ServerRequest>>> requests =
      ColumnRequests(PsOpCode::kColumnOps, entries);
  if (!requests.ok()) return PsFuture<Ack>(requests.status());
  if (*requests) return Submit<Ack>(std::move(**requests), AckParse);
  // The relay is inherently synchronous (a chain of dependent client ops);
  // run it at issue time.
  return PsFuture<Ack>(ColumnOpsRelay(entries));
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
  const RowSelector whole = RowSelector::Range();
  std::vector<std::vector<double>> pulled;
  for (size_t i = 1; i < e.rows.size(); ++i) {
    PS2_ASSIGN_OR_RETURN(RowBlock row, ReadRowsAsync({e.rows[i]}, whole).Get());
    pulled.push_back(std::move(row.values));
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
  TaskTraffic compute;
  compute.worker_ops = ops;
  Charge(compute);
  if (e.kind != ColOpKind::kAxpy) {
    PS2_RETURN_NOT_OK(ColumnOpsAsync({{ColOpKind::kFill, {dst}}}).Wait());
  }
  PS2_RETURN_NOT_OK(WriteRowsAsync({dst}, result).Wait());
  return Ack{};
}

PsFuture<std::vector<AggregateValue>> PsClient::AggregateAsync(
    const std::vector<AggregateEntry>& entries) {
  using Out = std::vector<AggregateValue>;
  if (entries.empty()) return PsFuture<Out>(Out{});
  Result<std::optional<std::vector<ServerRequest>>> requests =
      ColumnRequests(PsOpCode::kAggregate, entries);
  if (!requests.ok()) return PsFuture<Out>(requests.status());
  if (!*requests) return PsFuture<Out>(AggregateRelay(entries));
  std::vector<AggKind> kinds;
  for (const AggregateEntry& e : entries) kinds.push_back(e.kind);
  return Submit<Out>(
      std::move(**requests),
      [&kinds](std::vector<PsServer::HandleResult>&& results) -> Result<Out> {
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
  // One read per row, as two dependent pulls.
  const RowSelector whole = RowSelector::Range();
  std::vector<std::vector<double>> ab;
  for (const RowRef& ref : e.rows) {
    PS2_ASSIGN_OR_RETURN(RowBlock row, ReadRowsAsync({ref}, whole).Get());
    ab.push_back(std::move(row.values));
  }
  out.emplace_back();
  const uint64_t ops =
      kernels::Dot(ab[0].data(), ab[1].data(),
                   std::min(ab[0].size(), ab[1].size()), &out[0].value);
  TaskTraffic compute;
  compute.worker_ops = ops;
  Charge(compute);
  return out;
}

PsFuture<Ack> PsClient::ClockAdvanceAsync(int worker, uint64_t clock) {
  if (worker < 0) {
    return PsFuture<Ack>(Status::InvalidArgument("worker must be >= 0"));
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
  return Submit<Ack>(std::move(requests), AckParse);
}

Status PsClient::ClockAdvance(int worker, uint64_t clock) {
  return ClockAdvanceAsync(worker, clock).Wait();
}

Status PsClient::MatrixInit(int matrix_id, uint32_t row_begin,
                            uint32_t row_end, double scale, uint64_t seed) {
  PS2_ASSIGN_OR_RETURN(MatrixMeta meta, master_->GetMeta(matrix_id));
  std::vector<ServerRequest> requests;
  for (int p : ShardPartitions(meta.partitioner)) {
    BufferWriter writer;
    writer.WriteU8(static_cast<uint8_t>(PsOpCode::kMatrixInit));
    writer.WriteVarint(matrix_id);
    writer.WriteVarint(row_begin);
    writer.WriteVarint(row_end);
    writer.WriteF64(scale);
    writer.WriteU64(seed);
    requests.push_back(MakeShardRequest(meta, p, &writer));
  }
  return Submit<Ack>(std::move(requests), AckParse).Wait();
}

}  // namespace ps2
