#ifndef XORATOR_SERVER_SERVER_H_
#define XORATOR_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "ordb/database.h"
#include "server/net.h"
#include "server/protocol.h"

namespace xorator::server {

/// Server configuration. The defaults suit tests and the example binary;
/// production-shaped loads tune max_connections / worker_threads /
/// max_queue_depth together (queue depth bounds memory under overload,
/// worker count bounds engine concurrency).
struct ServerOptions {
  /// TCP port on 127.0.0.1 (0 = ephemeral; read the choice via port()).
  uint16_t port = 0;
  /// Admission cap on concurrent connections; excess connections get a
  /// fast kResourceExhausted + retry-after and are closed.
  size_t max_connections = 64;
  /// Run slots of the admission gate: at most this many statements execute
  /// against the Database at once, each on the connection thread that read
  /// it (0 is treated as 1).
  size_t worker_threads = 4;
  /// Admission cap on statements waiting at the gate for a run slot (in
  /// flight = waiting + running); excess statements get kResourceExhausted
  /// + retry-after. 0 = run only when a slot is free, never wait.
  size_t max_queue_depth = 128;
  /// How long Shutdown() lets in-flight statements drain before
  /// cancelling them.
  int64_t drain_timeout_millis = 5000;
  /// Retry-after hint attached to admission rejections (connection cap
  /// and queue cap).
  uint32_t retry_after_millis = 25;
  /// Per-frame I/O budget: reading a request payload after its header, and
  /// writing a response. A peer that stalls longer mid-frame is dropped.
  int64_t io_timeout_millis = 10'000;
};

/// Monotonic server counters, exposed through the STATS frame (prefixed
/// `server_`) and the server_stats() test hook. Snapshot semantics: one
/// coherent copy under the server lock.
struct ServerStats {
  uint64_t connections_accepted = 0;
  /// Connections turned away at the connection cap.
  uint64_t connections_rejected = 0;
  uint64_t connections_closed = 0;
  uint64_t active_connections = 0;
  /// Statements that passed admission: they took a run slot at once or
  /// waited at the gate for one.
  uint64_t statements_admitted = 0;
  /// Statements rejected because max_queue_depth statements were waiting.
  uint64_t statements_rejected_queue = 0;
  /// Mutations shed at admission because the engine was read-only/failed.
  uint64_t statements_shed_readonly = 0;
  /// Statements rejected because the server was draining.
  uint64_t statements_rejected_draining = 0;
  /// Admitted statements that completed OK / with an error status
  /// (including a deadline or cancel that ended the wait at the gate).
  uint64_t statements_ok = 0;
  uint64_t statements_error = 0;
  /// Admitted statements cancelled because their client disconnected.
  uint64_t cancelled_on_disconnect = 0;
  /// Frames that failed header or payload decode.
  uint64_t malformed_frames = 0;
  /// Current and high-water count of statements waiting at the gate for a
  /// run slot (a statement that finds a free slot never waits).
  uint64_t queue_depth = 0;
  uint64_t peak_queue_depth = 0;
};

/// The xorator network front end (DESIGN.md section 17): a
/// thread-per-connection socket server speaking the server/protocol.h frame
/// protocol over the embedded Database. Each statement runs on the
/// connection thread that read it, behind one counting admission gate.
///
/// Robustness contract:
///   * Admission control — connection count, running statements
///     (worker_threads) and statements waiting for a run slot
///     (max_queue_depth) are all bounded; excess load is rejected fast with
///     a retryable kResourceExhausted carrying a retry-after hint, so
///     overload sheds in microseconds instead of queuing into collapse.
///   * Deadline & budget propagation — frame fields become QueryOptions;
///     the deadline is measured from admission, so time spent waiting at
///     the gate counts against it, and a statement whose deadline expired
///     there is answered kDeadlineExceeded without touching the engine.
///   * Disconnect cancellation — every admitted statement runs under a
///     server-assigned QueryGuard id; the acceptor's tick probes the socket
///     of every connection with a statement waiting or running and cancels
///     the statement the moment its client goes away.
///   * Graceful degradation — mutations are shed at admission with the
///     health latch's own status (state, detail, retry-after) while the
///     engine is read-only; STATS advertises the degraded state.
///   * Drain-then-close shutdown — Shutdown() stops accepting, lets
///     in-flight statements finish for drain_timeout_millis, then cancels
///     the stragglers and joins every thread.
///
/// Locking: one xo::Mutex at rank kServer — above kStatement, per the
/// descending-acquire rule, because connection threads call into the
/// engine. The lock is never held across an engine call (Database::Cancel,
/// which only touches the engine's leaf guard registry, included); a
/// statement waiting at the gate sleeps on its connection's xo::CondVar.
///
/// Thread safety: Start/Shutdown/port/server_stats are safe from any
/// thread; Shutdown is idempotent.
class Server {
 public:
  /// Binds, listens, and starts the acceptor thread. `db` must outlive the
  /// returned server.
  [[nodiscard]] static Result<std::unique_ptr<Server>> Start(
      ordb::Database* db, const ServerOptions& options = {});

  /// Shuts down (drain-then-close) if still running.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The bound port (the ephemeral choice when options.port was 0).
  [[nodiscard]] uint16_t port() const { return port_; }

  /// Drain-then-close shutdown; see the class comment. Idempotent.
  void Shutdown() XO_EXCLUDES(mu_);

  /// Coherent snapshot of the admission/served counters (test hook; the
  /// same numbers ride the STATS frame prefixed `server_`).
  [[nodiscard]] ServerStats server_stats() const XO_EXCLUDES(mu_);

 private:
  /// Where a connection's current statement stands.
  enum class Stage { kIdle, kWaiting, kRunning };

  /// One live client connection: the socket, the thread serving it, and
  /// the statement it has in flight. The statement fields (`stage` on) are
  /// guarded by the server lock.
  struct Connection {
    Socket socket;
    std::thread thread;
    std::atomic<bool> finished{false};

    Stage stage = Stage::kIdle;
    /// Guard id of the statement (never 0 once admitted): every statement
    /// is cancellable regardless of the client-chosen query_id.
    uint64_t server_query_id = 0;
    /// The client-chosen query_id that CANCEL frames name (0 = none).
    uint64_t client_query_id = 0;
    /// CANCEL, a client disconnect or Shutdown asked the statement to stop:
    /// a waiting statement leaves the gate with kCancelled, a running one
    /// is cancelled through its guard.
    bool cancel_requested = false;
    /// Wakes the waiting statement: handed a run slot, or cancelled.
    xo::CondVar wake;
  };

  Server(ordb::Database* db, const ServerOptions& options);

  /// Acceptor loop: admits or fast-rejects connections, reaps finished
  /// connection threads, and probes for disconnects on every tick.
  void AcceptLoop() XO_EXCLUDES(mu_);

  /// Per-connection loop: frame parse, admission, response.
  void ServeConnection(Connection* conn) XO_EXCLUDES(mu_);

  /// Handles one QUERY/EXECUTE frame on its connection thread: admission,
  /// the engine call, response send.
  void HandleStatement(Connection* conn, FrameType type, QueryRequest request)
      XO_EXCLUDES(mu_);

  /// Admission and the gate wait. OK means the statement holds a run slot
  /// (stage kRunning) and `query_options` carries the rest of its deadline;
  /// any other status is the error to answer with.
  [[nodiscard]] Status AdmitLocked(Connection* conn,
                                   const QueryRequest& request,
                                   ordb::QueryOptions* query_options)
      XO_REQUIRES(mu_);

  /// Gives up a run slot: hands it to the oldest waiter, if any.
  void ReleaseSlotLocked() XO_REQUIRES(mu_);

  /// Handles a CANCEL frame: cancels every in-flight statement carrying the
  /// client-chosen id.
  void HandleCancel(Connection* conn, const CancelRequest& request)
      XO_EXCLUDES(mu_);

  /// Handles a STATS frame: engine resilience rows + server counters.
  void HandleStats(Connection* conn) XO_EXCLUDES(mu_);

  /// Marks `conn`'s statement cancelled and wakes it if it waits at the
  /// gate; appends its guard id to `running` when it holds a run slot, for
  /// CancelRunning.
  void RequestCancelLocked(Connection* conn, std::vector<uint64_t>* running)
      XO_REQUIRES(mu_);

  /// Database::Cancel for each guard id (called without the server lock).
  void CancelRunning(const std::vector<uint64_t>& running) XO_EXCLUDES(mu_);

  /// Probes the socket of every connection with a statement waiting or
  /// running and cancels the statements whose client went away. Running
  /// statements already marked cancelled are cancelled again, which covers
  /// a cancel that landed before the engine registered the guard.
  void ProbeConnections() XO_EXCLUDES(mu_);

  /// Sends an encoded frame with the per-frame I/O deadline (best effort:
  /// a send failure just ends the connection).
  void SendFrame(Connection* conn, std::string_view frame);

  /// Sends an ERROR frame built from `status`.
  void SendError(Connection* conn, const Status& status);

  ordb::Database* const db_;
  const ServerOptions options_;
  uint16_t port_ = 0;
  Socket listener_;

  /// The server lock (rank kServer; see the class comment).
  mutable xo::Mutex mu_{xo::LockRank::kServer};
  /// Broadcast when the last running statement ends and when Shutdown()
  /// completes (the drain and a second Shutdown() caller wait on it).
  xo::CondVar idle_cv_;

  /// Draining: no new statements, in-flight ones may finish.
  bool draining_ XO_GUARDED_BY(mu_) = false;
  /// Statements holding a run slot (at most max(worker_threads, 1)).
  size_t running_ XO_GUARDED_BY(mu_) = 0;
  /// Connections whose statement waits for a run slot, oldest first (at
  /// most max_queue_depth; stats_.queue_depth is its size).
  std::deque<Connection*> waiters_ XO_GUARDED_BY(mu_);
  uint64_t next_server_query_id_ XO_GUARDED_BY(mu_) = 1;
  ServerStats stats_ XO_GUARDED_BY(mu_);

  std::vector<std::unique_ptr<Connection>> connections_ XO_GUARDED_BY(mu_);
  std::thread acceptor_;
  /// Set once Shutdown() has fully run (threads joined).
  bool shut_down_ XO_GUARDED_BY(mu_) = false;
};

}  // namespace xorator::server

#endif  // XORATOR_SERVER_SERVER_H_
