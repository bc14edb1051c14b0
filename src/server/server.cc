#include "server/server.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <utility>

#include "ordb/health.h"
#include "ordb/sql.h"

namespace xorator::server {

namespace {

/// Acceptor poll granularity: how often the accept loop wakes to check for
/// shutdown, reap finished connection threads and probe for disconnects.
constexpr int64_t kAcceptTickMillis = 50;

/// Shutdown drain poll granularity (the drain also probes for
/// disconnects, since the acceptor has stopped by then).
constexpr int64_t kDrainTickMillis = 20;

/// Encodes the frame for `result`, downgrading an over-cap result to a
/// clean error frame.
std::string EncodeResultOrError(const ordb::QueryResult& result) {
  Result<std::string> frame = EncodeResult(result);
  if (frame.ok()) return std::move(frame).value();
  return EncodeError(ErrorFromStatus(frame.status()));
}

}  // namespace

Server::Server(ordb::Database* db, const ServerOptions& options)
    : db_(db), options_(options) {}

Result<std::unique_ptr<Server>> Server::Start(ordb::Database* db,
                                              const ServerOptions& options) {
  // The backlog is sized past max_connections so a burst reaches the
  // acceptor (which rejects it fast with a proper error frame) instead of
  // timing out in the kernel's SYN queue.
  std::unique_ptr<Server> server(new Server(db, options));
  ASSIGN_OR_RETURN(
      server->listener_,
      Listen(options.port, static_cast<int>(options.max_connections) + 16));
  ASSIGN_OR_RETURN(server->port_, BoundPort(server->listener_));
  server->acceptor_ = std::thread([s = server.get()] { s->AcceptLoop(); });
  return server;
}

Server::~Server() { Shutdown(); }

void Server::AcceptLoop() {
  for (;;) {
    // Reap connection threads that finished on their own, so a long-lived
    // server does not accumulate dead std::thread objects. Joins happen
    // outside the lock.
    std::vector<std::unique_ptr<Connection>> finished;
    {
      xo::MutexLock lock(&mu_);
      if (draining_) break;
      for (auto it = connections_.begin(); it != connections_.end();) {
        if ((*it)->finished.load(std::memory_order_acquire)) {
          finished.push_back(std::move(*it));
          it = connections_.erase(it);
        } else {
          ++it;
        }
      }
    }
    for (const std::unique_ptr<Connection>& conn : finished) {
      conn->thread.join();
    }
    ProbeConnections();

    Result<Socket> accepted =
        Accept(listener_, Deadline::After(kAcceptTickMillis));
    if (!accepted.ok()) {
      // The deadline is the idle tick; any other error (the listener going
      // away under Shutdown) is re-checked against draining_ at the top.
      if (accepted.status().code() != StatusCode::kDeadlineExceeded) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(kAcceptTickMillis));
      }
      continue;
    }
    Socket socket = std::move(accepted).value();

    // Admission and thread spawn in one critical section: the thread
    // handle is only ever written here and joined by a thread that
    // acquired mu_ afterwards, so the handle itself is race-free.
    bool admit = false;
    {
      xo::MutexLock lock(&mu_);
      if (!draining_ && stats_.active_connections < options_.max_connections) {
        admit = true;
        ++stats_.connections_accepted;
        ++stats_.active_connections;
        auto conn = std::make_unique<Connection>();
        conn->socket = std::move(socket);
        Connection* raw = conn.get();
        raw->thread = std::thread([this, raw] {
          ServeConnection(raw);
          raw->finished.store(true, std::memory_order_release);
        });
        connections_.push_back(std::move(conn));
      } else {
        ++stats_.connections_rejected;
      }
    }
    if (!admit) {
      // Fast rejection: one small error frame, then close. The short
      // deadline keeps a peer that will not even read a 40-byte frame from
      // stalling the acceptor.
      const std::string frame = EncodeError(ErrorFromStatus(
          Status::ResourceExhausted("server connection limit reached")
              .WithRetryAfter(options_.retry_after_millis)));
      XO_DISCARD_STATUS(WriteFull(socket, frame, Deadline::After(100)),
                        "rejected peer may already be gone");
      continue;
    }
  }
}

void Server::ServeConnection(Connection* conn) {
  for (;;) {
    std::string header_bytes;
    // Idle reads wait indefinitely: Shutdown() wakes them by shutting the
    // socket down, which surfaces here as a failed read.
    Status read = ReadFull(conn->socket, &header_bytes, kFrameHeaderBytes,
                           Deadline::Infinite());
    if (!read.ok()) {
      // kUnavailable = clean close between frames; anything else is a
      // truncated or failed header read.
      if (read.code() != StatusCode::kUnavailable) {
        xo::MutexLock lock(&mu_);
        ++stats_.malformed_frames;
      }
      break;
    }
    Result<FrameHeader> header = DecodeFrameHeader(header_bytes);
    if (!header.ok()) {
      // A desynced byte stream cannot be re-synced; answer with the parse
      // error and close.
      {
        xo::MutexLock lock(&mu_);
        ++stats_.malformed_frames;
      }
      SendError(conn, header.status());
      break;
    }
    std::string payload;
    if (header->payload_bytes > 0) {
      read = ReadFull(conn->socket, &payload, header->payload_bytes,
                      Deadline::After(options_.io_timeout_millis));
      if (!read.ok()) {
        xo::MutexLock lock(&mu_);
        ++stats_.malformed_frames;
        break;
      }
    }

    bool keep_serving = true;
    switch (header->type) {
      case FrameType::kQuery:
      case FrameType::kExecute: {
        Result<QueryRequest> request =
            DecodeQueryRequest(payload, header->flags);
        if (!request.ok()) {
          {
            xo::MutexLock lock(&mu_);
            ++stats_.malformed_frames;
          }
          SendError(conn, request.status());
          keep_serving = false;
          break;
        }
        HandleStatement(conn, header->type, std::move(request).value());
        break;
      }
      case FrameType::kCancel: {
        Result<CancelRequest> request = DecodeCancelRequest(payload);
        if (!request.ok()) {
          {
            xo::MutexLock lock(&mu_);
            ++stats_.malformed_frames;
          }
          SendError(conn, request.status());
          keep_serving = false;
          break;
        }
        HandleCancel(conn, request.value());
        break;
      }
      case FrameType::kStats:
        HandleStats(conn);
        break;
      default: {
        // A response frame type arriving as a request.
        {
          xo::MutexLock lock(&mu_);
          ++stats_.malformed_frames;
        }
        SendError(conn,
                  Status::ParseError("response frame type sent as a request"));
        keep_serving = false;
        break;
      }
    }
    if (!keep_serving) break;
  }
  xo::MutexLock lock(&mu_);
  --stats_.active_connections;
  ++stats_.connections_closed;
}

void Server::HandleStatement(Connection* conn, FrameType type,
                             QueryRequest request) {
  // Graceful degradation: shed mutations at admission while the engine
  // cannot write. The health latch's own status rides the wire — state
  // name, latched detail, retry-after hint — so the client's backoff layer
  // can tell "retry later" from "give up".
  if (ordb::sql::ClassifyStatement(request.sql) ==
      ordb::sql::StatementClass::kMutation) {
    Status writable = db_->health()->CheckWritable();
    if (!writable.ok()) {
      {
        xo::MutexLock lock(&mu_);
        ++stats_.statements_shed_readonly;
      }
      SendError(conn, writable);
      return;
    }
  }

  ordb::QueryOptions query_options;
  query_options.max_memory_bytes = request.max_memory_bytes;
  query_options.skip_quarantined = request.skip_quarantined;
  Status admitted = Status::OK();
  {
    xo::MutexLock lock(&mu_);
    admitted = AdmitLocked(conn, request, &query_options);
  }
  if (!admitted.ok()) {
    SendError(conn, admitted);
    return;
  }

  Result<ordb::QueryResult> result = db_->Query(request.sql, query_options);
  const Status outcome = result.status();
  std::string response;
  if (!outcome.ok()) {
    response = EncodeError(ErrorFromStatus(outcome));
  } else if (type == FrameType::kExecute) {
    // EXECUTE runs the statement like QUERY but answers with no rows.
    response = EncodeResultOrError(ordb::QueryResult{});
  } else {
    response = EncodeResultOrError(*result);
  }

  {
    xo::MutexLock lock(&mu_);
    if (outcome.ok()) {
      ++stats_.statements_ok;
    } else {
      ++stats_.statements_error;
    }
    conn->stage = Stage::kIdle;
    ReleaseSlotLocked();
  }
  // A client that disconnected mid-statement makes this send fail; the
  // read loop then observes the dead socket and ends the connection.
  SendFrame(conn, response);
}

Status Server::AdmitLocked(Connection* conn, const QueryRequest& request,
                           ordb::QueryOptions* query_options) {
  const size_t slots =
      options_.worker_threads == 0 ? 1 : options_.worker_threads;
  if (draining_) {
    ++stats_.statements_rejected_draining;
    return Status::Unavailable("server is shutting down");
  }
  if (running_ >= slots && waiters_.size() >= options_.max_queue_depth) {
    // Admission control: reject fast instead of queuing into collapse.
    ++stats_.statements_rejected_queue;
    return Status::ResourceExhausted("statement queue full (" +
                                     std::to_string(options_.max_queue_depth) +
                                     " statements queued)")
        .WithRetryAfter(options_.retry_after_millis);
  }
  ++stats_.statements_admitted;
  conn->server_query_id = next_server_query_id_++;
  conn->client_query_id = request.query_id;
  conn->cancel_requested = false;
  query_options->query_id = conn->server_query_id;
  if (running_ < slots) {
    ++running_;
    conn->stage = Stage::kRunning;
  } else {
    conn->stage = Stage::kWaiting;
    waiters_.push_back(conn);
    stats_.queue_depth = waiters_.size();
    if (stats_.queue_depth > stats_.peak_queue_depth) {
      stats_.peak_queue_depth = stats_.queue_depth;
    }
  }

  // The deadline is measured from admission: the wait for a slot counts
  // against it, and a statement whose deadline runs out there is answered
  // without touching the engine — an overloaded server drains its backlog
  // at rejection speed, not service speed.
  const auto admitted_at = std::chrono::steady_clock::now();
  const uint64_t deadline = request.deadline_millis;
  Status outcome = Status::OK();
  for (;;) {
    uint64_t left = 0;  // no deadline
    if (deadline > 0) {
      const auto waited = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::milliseconds>(
              std::chrono::steady_clock::now() - admitted_at)
              .count());
      if (waited >= deadline) {
        outcome = Status::DeadlineExceeded(
            "deadline of " + std::to_string(deadline) + "ms expired after " +
            std::to_string(waited) + "ms in the admission queue");
        break;
      }
      left = deadline - waited;
      query_options->deadline_millis = left;
    }
    if (conn->cancel_requested) {
      outcome = Status::Cancelled("statement cancelled while queued");
      break;
    }
    if (conn->stage == Stage::kRunning) return outcome;
    // Woken when ReleaseSlotLocked hands this statement a slot or it is
    // cancelled; a timeout re-checks the deadline at the top. The timed
    // wait is clamped so its clock arithmetic cannot overflow on a huge
    // client deadline.
    if (left == 0) {
      conn->wake.Wait(&mu_);
    } else {
      conn->wake.WaitFor(
          &mu_, static_cast<int64_t>(std::min<uint64_t>(left, INT32_MAX)));
    }
  }
  if (conn->stage == Stage::kRunning) {
    // Handed a slot in the same instant: pass it on.
    ReleaseSlotLocked();
  } else {
    std::erase(waiters_, conn);
    stats_.queue_depth = waiters_.size();
  }
  conn->stage = Stage::kIdle;
  ++stats_.statements_error;
  return outcome;
}

void Server::ReleaseSlotLocked() {
  if (waiters_.empty()) {
    if (--running_ == 0) idle_cv_.SignalAll();
    return;
  }
  // First come, first served: the slot passes straight to the oldest
  // waiter, so neither a newcomer nor a later waiter can take it first.
  Connection* next = waiters_.front();
  waiters_.pop_front();
  stats_.queue_depth = waiters_.size();
  next->stage = Stage::kRunning;
  next->wake.Signal();
}

void Server::HandleCancel(Connection* conn, const CancelRequest& request) {
  bool found = false;
  std::vector<uint64_t> running;
  {
    xo::MutexLock lock(&mu_);
    for (const std::unique_ptr<Connection>& other : connections_) {
      if (other->stage != Stage::kIdle && request.query_id != 0 &&
          other->client_query_id == request.query_id) {
        found = true;
        RequestCancelLocked(other.get(), &running);
      }
    }
  }
  if (!found) {
    SendError(conn, Status::NotFound("no in-flight statement with query id " +
                                     std::to_string(request.query_id)));
    return;
  }
  CancelRunning(running);
  SendFrame(conn, EncodeResultOrError(ordb::QueryResult{}));
}

void Server::HandleStats(Connection* conn) {
  // Engine rows first (health state/detail and the containment counters —
  // the degraded-state advertisement), then the server's own counters.
  StatsPayload stats;
  stats.rows = db_->ResilienceStats();
  const ServerStats s = server_stats();
  const std::pair<const char*, uint64_t> counters[] = {
      {"server_connections_accepted", s.connections_accepted},
      {"server_connections_rejected", s.connections_rejected},
      {"server_connections_closed", s.connections_closed},
      {"server_active_connections", s.active_connections},
      {"server_statements_admitted", s.statements_admitted},
      {"server_statements_rejected_queue", s.statements_rejected_queue},
      {"server_statements_shed_readonly", s.statements_shed_readonly},
      {"server_statements_rejected_draining", s.statements_rejected_draining},
      {"server_statements_ok", s.statements_ok},
      {"server_statements_error", s.statements_error},
      {"server_cancelled_on_disconnect", s.cancelled_on_disconnect},
      {"server_malformed_frames", s.malformed_frames},
      {"server_queue_depth", s.queue_depth},
      {"server_peak_queue_depth", s.peak_queue_depth},
  };
  for (const auto& [name, value] : counters) {
    stats.rows.emplace_back(name, std::to_string(value));
  }
  SendFrame(conn, EncodeStats(stats));
}

void Server::RequestCancelLocked(Connection* conn,
                                 std::vector<uint64_t>* running) {
  conn->cancel_requested = true;
  if (conn->stage == Stage::kRunning) {
    running->push_back(conn->server_query_id);
  }
  conn->wake.Signal();
}

void Server::CancelRunning(const std::vector<uint64_t>& running) {
  // Cancel only touches the engine's leaf guard registry and never blocks;
  // NotFound means the statement finished, or has not registered its guard
  // yet (the next probe tick cancels it again).
  for (uint64_t id : running) {
    Status cancelled = db_->Cancel(id);
    cancelled.IgnoreError();
  }
}

void Server::ProbeConnections() {
  std::vector<uint64_t> running;
  {
    xo::MutexLock lock(&mu_);
    for (const std::unique_ptr<Connection>& conn : connections_) {
      if (conn->stage == Stage::kIdle) continue;
      if (conn->cancel_requested) {
        if (conn->stage == Stage::kRunning) {
          running.push_back(conn->server_query_id);
        }
      } else if (PeerDisconnected(conn->socket)) {
        // A client that went away gets its statement cancelled instead of
        // burning a run slot for nobody.
        ++stats_.cancelled_on_disconnect;
        RequestCancelLocked(conn.get(), &running);
      }
    }
  }
  CancelRunning(running);
}

void Server::SendFrame(Connection* conn, std::string_view frame) {
  XO_DISCARD_STATUS(
      WriteFull(conn->socket, frame,
                Deadline::After(options_.io_timeout_millis)),
      "a peer that stopped reading forfeits its response; the read loop "
      "observes the dead socket next");
}

void Server::SendError(Connection* conn, const Status& status) {
  SendFrame(conn, EncodeError(ErrorFromStatus(status)));
}

void Server::Shutdown() {
  {
    xo::MutexLock lock(&mu_);
    if (shut_down_) return;
    if (draining_) {
      // Another thread is mid-shutdown; wait for it to finish.
      while (!shut_down_) {
        idle_cv_.Wait(&mu_);
      }
      return;
    }
    draining_ = true;
  }

  // Stop accepting. The acceptor polls with a short tick and re-checks
  // draining_, so it exits within one tick; the listener closes after the
  // join (never while the acceptor might still poll it). When Start()
  // failed before spawning the acceptor (Listen or BoundPort failed), the
  // handle is default-constructed and there is nothing to join — joining
  // it anyway would throw inside the (noexcept) destructor.
  if (acceptor_.joinable()) acceptor_.join();
  listener_.Close();

  // Drain: let in-flight statements finish for the grace window.
  const Deadline drain = Deadline::After(options_.drain_timeout_millis);
  for (;;) {
    {
      xo::MutexLock lock(&mu_);
      // Waiters imply running statements: a freed slot passes to a waiter.
      if (running_ == 0 || drain.Expired()) break;
      idle_cv_.WaitFor(&mu_, kDrainTickMillis);
    }
    ProbeConnections();
  }
  // Hard timeout: cancel every straggler. Waiting statements leave the gate
  // with kCancelled, so every admitted statement gets a response; running
  // ones stop at their guard's next checkpoint.
  std::vector<uint64_t> running;
  {
    xo::MutexLock lock(&mu_);
    for (const std::unique_ptr<Connection>& conn : connections_) {
      if (conn->stage != Stage::kIdle) {
        RequestCancelLocked(conn.get(), &running);
      }
    }
  }
  CancelRunning(running);

  // End the connections. Read-half only: a thread blocked in its idle
  // header read wakes with EOF and exits, while a thread still sending the
  // response of a just-drained statement keeps its write half — the drain
  // guarantee would be hollow if shutdown clipped the final frame.
  std::vector<std::unique_ptr<Connection>> connections;
  {
    xo::MutexLock lock(&mu_);
    connections.swap(connections_);
  }
  for (const std::unique_ptr<Connection>& conn : connections) {
    conn->socket.ShutdownRead();
  }
  for (const std::unique_ptr<Connection>& conn : connections) {
    conn->thread.join();
  }

  xo::MutexLock lock(&mu_);
  shut_down_ = true;
  idle_cv_.SignalAll();
}

ServerStats Server::server_stats() const {
  xo::MutexLock lock(&mu_);
  return stats_;
}

}  // namespace xorator::server
