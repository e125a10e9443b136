/// \file daemon.hpp
/// \brief The embeddable analysis daemon: a bounded worker pool serving
///        the ANALYZE/STATS/PING wire protocol over a shared,
///        crash-safe front store.
///
/// DaemonServer is the serving core behind examples/serving_daemon.cpp,
/// factored into the library so tests and the sustained-QPS bench run
/// the real accept loop, the real protocol, and the real cache in
/// process. One server owns one PersistentFrontCache (writer or
/// follower; see store/shard.hpp's multi-process model) and serves:
///
///   ANALYZE <format> <nbytes>\n<payload>   format in {text, xml, json}
///   STATS\n     serving + cache + store metrics as one JSON line
///   PING\n      liveness probe
///   REFRESH\n   follower: pick up the writer's committed appends now
///   PROMOTE\n   follower: try to take the writer lease (retryable
///               error while the writer lives)
///
/// Concurrency model - two explicit bounds, no unbounded anything:
///
///   * max_connections worker threads are spawned once; each serves one
///     connection at a time. The acceptor hands a new connection to an
///     idle worker or, when all are busy, answers with a retryable
///     over-capacity JSON line and closes - the cap is enforced at
///     accept time, so a connection storm cannot spawn a thread per
///     socket (the failure mode this class replaced).
///   * max_inflight bounds concurrent *analyses* across all
///     connections; excess ANALYZE requests are rejected retryably up
///     front instead of queueing past their deadline.
///
/// A client disconnecting mid-response is a counted per-connection
/// event (SIGPIPE is never raised - src/serve/socket.hpp): the worker
/// finishes the connection and picks up the next one. stop() is
/// idempotent, wakes every blocked thread, and joins them all - a
/// stopped server has provably no threads left.
///
/// In follower mode with store_refresh_seconds > 0 a refresher thread
/// calls cache().refresh() on that period, so a follower daemon trails
/// the writer's appends without client action.

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "serve/socket.hpp"
#include "store/persistent_cache.hpp"

namespace adtp::serve {

struct DaemonConfig {
  /// Per-analysis kernel deadline (a Deadline, not a socket timeout).
  double deadline_seconds = 10.0;
  /// Concurrent analyses admitted across all connections.
  std::size_t max_inflight = 8;
  /// Worker pool size = concurrent connections served; beyond it a new
  /// connection gets a retryable over-capacity reply and is closed.
  std::size_t max_connections = 64;
  /// Intra-model threads per analysis (AnalysisOptions::
  /// intra_model_threads; 0 and 1 run sequentially).
  unsigned threads = 0;
  /// Memory tier capacity of the cache.
  std::size_t memory_capacity = 256;
  /// Store directory (the cache degrades to memory-only on store
  /// trouble; it never fails the daemon).
  std::string store_dir = "adtp_store";
  /// Attach the store as a read-only follower of another daemon's
  /// writer lease (store/persistent_cache.hpp).
  bool store_follower = false;
  /// Follower auto-refresh period; <= 0 disables the refresher thread.
  double store_refresh_seconds = 0;
  /// Diagnostics sink (store degradation, per-connection errors);
  /// null discards. Called from server threads: keep it cheap.
  std::function<void(const std::string&)> log;
};

/// Monotone serving counters (atomics: read them live via STATS).
struct DaemonMetrics {
  std::atomic<std::uint64_t> requests{0};     ///< ANALYZE accepted
  std::atomic<std::uint64_t> computed{0};     ///< served by a kernel run
  std::atomic<std::uint64_t> cache_hits{0};   ///< memory or store hit
  std::atomic<std::uint64_t> rejected{0};     ///< max_inflight rejections
  std::atomic<std::uint64_t> failed{0};       ///< parse/model/deadline errors
  std::atomic<std::uint64_t> connections_accepted{0};
  std::atomic<std::uint64_t> connections_rejected{0};  ///< pool saturated
  std::atomic<std::uint64_t> disconnects{0};  ///< peer vanished mid-exchange
  std::atomic<std::uint64_t> refreshes{0};    ///< follower refreshes run
  std::atomic<std::uint64_t> promotions{0};   ///< successful PROMOTEs
};

class DaemonServer {
 public:
  /// Opens the cache (never throws for store trouble) but does not
  /// listen yet; call start().
  explicit DaemonServer(Endpoint endpoint, DaemonConfig config);
  /// stop()s.
  ~DaemonServer();

  DaemonServer(const DaemonServer&) = delete;
  DaemonServer& operator=(const DaemonServer&) = delete;

  /// Binds, listens, and spawns the acceptor + workers (+ refresher in
  /// follower mode). Throws SocketError when the endpoint cannot be
  /// bound. For a TCP endpoint with port 0 the kernel picks a port;
  /// endpoint() reports the real one after start().
  void start();

  /// Idempotent: wakes and joins every server thread, closes every
  /// connection. After stop() returns no server thread exists.
  void stop();

  [[nodiscard]] const Endpoint& endpoint() const noexcept {
    return endpoint_;
  }
  [[nodiscard]] const DaemonMetrics& metrics() const noexcept {
    return metrics_;
  }
  [[nodiscard]] store::PersistentFrontCache& cache() noexcept {
    return cache_;
  }

  /// The STATS response body (also handy for tests and the bench).
  [[nodiscard]] std::string stats_json();

 private:
  void accept_loop();
  void worker_loop();
  void refresher_loop();
  void serve_connection(int fd);
  [[nodiscard]] std::string serve_request(int fd, const std::string& line);
  [[nodiscard]] std::string serve_analyze(const std::string& format,
                                          const std::string& body);
  void log(const std::string& what);

  Endpoint endpoint_;
  DaemonConfig config_;
  store::PersistentFrontCache cache_;
  DaemonMetrics metrics_;
  std::atomic<std::size_t> inflight_{0};

  std::atomic<bool> stopping_{false};
  bool started_ = false;
  int listener_ = -1;
  int wake_pipe_[2] = {-1, -1};  ///< stop() pokes the acceptor's poll
  std::thread acceptor_;
  std::thread refresher_;
  std::vector<std::thread> workers_;

  std::mutex mutex_;  ///< guards the three fields below
  std::condition_variable cv_;
  std::deque<int> pending_;            ///< accepted, waiting for a worker
  std::unordered_set<int> active_;     ///< every open connection fd
  std::size_t serving_ = 0;            ///< workers mid-connection

  /// The refresher sleeps on its own condvar so a worker wake-up is
  /// never consumed by it (a lost notify would strand a connection).
  std::mutex refresh_mutex_;
  std::condition_variable refresh_cv_;
};

}  // namespace adtp::serve
