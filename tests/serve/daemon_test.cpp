/// The serving daemon as a library (src/serve/daemon.hpp): wire
/// protocol round-trips, the two satellite fixes of PR 10 - a client
/// disconnect storm must not crash or wedge the daemon (SIGPIPE /
/// EPIPE handling), and a connection flood must be bounded by the
/// worker pool, not answered with unbounded thread spawning - plus the
/// writer/follower/promote flow over one shared store directory, all
/// in-process over real unix sockets.

#include <gtest/gtest.h>
#include <unistd.h>

#include <csignal>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "adt/text_format.hpp"
#include "gen/catalog.hpp"
#include "serve/daemon.hpp"
#include "serve/socket.hpp"
#include "util/json.hpp"

namespace adtp::serve {
namespace {

/// A scratch directory for socket + store, removed on scope exit.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag) {
    static std::uint64_t counter = 0;
    path_ = std::filesystem::temp_directory_path() /
            ("adtp_serve_" + tag + "_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter++));
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }

  [[nodiscard]] Endpoint socket(const std::string& name) const {
    Endpoint ep;
    ep.path = (path_ / (name + ".sock")).string();
    return ep;
  }
  [[nodiscard]] std::string store() const {
    return (path_ / "store").string();
  }

 private:
  std::filesystem::path path_;
};

std::string analyze_header(const std::string& format,
                           const std::string& body) {
  return "ANALYZE " + format + " " + std::to_string(body.size()) + "\n";
}

JsonValue analyze(int fd, const std::string& format,
                  const std::string& body) {
  return parse_json(request_line(fd, analyze_header(format, body) + body));
}

/// Connects and PINGs like a well-behaved client: over-capacity replies
/// are retryable by contract, so back off and try again until admitted.
int connect_admitted(const Endpoint& endpoint) {
  for (int attempt = 0; attempt < 250; ++attempt) {
    const int fd = connect_with_retry(endpoint);
    try {
      if (parse_json(request_line(fd, "PING\n")).at("ok").as_bool()) return fd;
    } catch (const SocketError&) {
      // Rejected connections may be closed before the reply is read.
    }
    ::close(fd);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return -1;
}

TEST(Daemon, ServesTheProtocolRoundTrip) {
  const ScratchDir dir("roundtrip");
  DaemonConfig config;
  config.store_dir = dir.store();
  config.max_connections = 4;
  DaemonServer server(dir.socket("d"), config);
  server.start();

  const int fd = connect_with_retry(server.endpoint());
  EXPECT_EQ(request_line(fd, "PING\n"), R"({"ok":true,"pong":true})");

  const std::string model = to_text_format(catalog::fig3_example());
  const JsonValue cold = analyze(fd, "text", model);
  ASSERT_TRUE(cold.at("ok").as_bool());
  EXPECT_FALSE(cold.at("cached").as_bool());
  const JsonValue warm = analyze(fd, "text", model);
  ASSERT_TRUE(warm.at("ok").as_bool());
  EXPECT_TRUE(warm.at("cached").as_bool());

  const JsonValue stats = parse_json(request_line(fd, "STATS\n"));
  EXPECT_EQ(stats.at("requests").as_number(), 2);
  EXPECT_EQ(stats.at("computed").as_number(), 1);
  EXPECT_EQ(stats.at("cache_hits").as_number(), 1);
  EXPECT_TRUE(stats.at("persistent").as_bool());

  const JsonValue bad = parse_json(request_line(fd, "FROBNICATE\n"));
  EXPECT_FALSE(bad.at("ok").as_bool());
  ::close(fd);
  server.stop();
}

TEST(Daemon, DeeplyNestedXmlIsRejectedAndServingContinues) {
  // A 20 000-level ADTool document (~1 MB, well under the payload cap)
  // must come back as a parse error, not take the daemon down.
  const ScratchDir dir("deepxml");
  DaemonConfig config;
  config.store_dir = dir.store();
  config.max_connections = 2;
  DaemonServer server(dir.socket("d"), config);
  server.start();

  const int fd = connect_with_retry(server.endpoint());
  std::string xml = "<adtree>";
  for (int i = 0; i < 20000; ++i) {
    xml += "<node><label>n" + std::to_string(i) + "</label>";
  }
  for (int i = 0; i < 20000; ++i) xml += "</node>";
  xml += "</adtree>";
  const JsonValue deep = analyze(fd, "xml", xml);
  EXPECT_FALSE(deep.at("ok").as_bool());
  EXPECT_NE(deep.at("error").as_string().find("nest"), std::string::npos)
      << deep.at("error").as_string();

  const JsonValue after =
      analyze(fd, "text", to_text_format(catalog::fig3_example()));
  EXPECT_TRUE(after.at("ok").as_bool());
  ::close(fd);
  server.stop();
}

TEST(Daemon, SurvivesAClientDisconnectStorm) {
  // Satellite fix 1: clients that hang up mid-exchange - after sending
  // a request but before reading its reply - make the daemon write
  // into a closed socket. Unhandled, that is a fatal SIGPIPE; handled,
  // it is a counted disconnect and the daemon keeps serving.
  const ScratchDir dir("storm");
  DaemonConfig config;
  config.store_dir = dir.store();
  config.max_connections = 4;
  DaemonServer server(dir.socket("d"), config);
  server.start();

  // A slow-ish compute so the daemon's reply write reliably lands
  // after the client is gone.
  const std::string model = to_text_format(catalog::fig4_exponential(10));
  const std::string request = analyze_header("text", model) + model;
  for (int round = 0; round < 8; ++round) {
    const int fd = connect_with_retry(server.endpoint());
    write_all_fd(fd, request.data(), request.size());
    ::close(fd);  // vanish without reading the reply
  }

  // The daemon is alive and still serves full round-trips. (The
  // abandoned connections pin workers until their computes finish, so
  // admission may take a few retryable rejections first.)
  const int fd = connect_admitted(server.endpoint());
  ASSERT_GE(fd, 0) << "the daemon never readmitted after the storm";
  const JsonValue reply = analyze(
      fd, "text", to_text_format(catalog::fig3_example()));
  EXPECT_TRUE(reply.at("ok").as_bool());
  ::close(fd);

  // Every hangup whose reply write failed is booked as a disconnect,
  // never as a server failure. (Replies that won the race and were
  // written before the close are legal, so >= 1, not == 8.)
  EXPECT_GE(server.metrics().disconnects.load(), 1u);
  EXPECT_EQ(server.metrics().failed.load(), 0u);
  server.stop();
}

TEST(Daemon, BoundsConcurrentConnectionsAtAcceptTime) {
  // Satellite fix 2: the worker pool is the connection cap. With 2
  // workers pinned by held-open connections, a third connection gets a
  // retryable over-capacity reply instead of a third thread.
  const ScratchDir dir("flood");
  DaemonConfig config;
  config.store_dir = dir.store();
  config.max_connections = 2;
  DaemonServer server(dir.socket("d"), config);
  server.start();

  const int a = connect_with_retry(server.endpoint());
  const int b = connect_with_retry(server.endpoint());
  // Round-trips prove both workers are now owned by these connections.
  EXPECT_EQ(request_line(a, "PING\n"), R"({"ok":true,"pong":true})");
  EXPECT_EQ(request_line(b, "PING\n"), R"({"ok":true,"pong":true})");

  const int c = connect_to(server.endpoint());
  const auto rejection = read_line_fd(c);
  ASSERT_TRUE(rejection.has_value()) << "over-capacity reply expected";
  const JsonValue reply = parse_json(*rejection);
  EXPECT_FALSE(reply.at("ok").as_bool());
  EXPECT_TRUE(reply.at("retryable").as_bool());
  ::close(c);
  EXPECT_GE(server.metrics().connections_rejected.load(), 1u);

  // Freeing a slot readmits: close one, the retry connects and serves.
  ::close(a);
  const int retry = connect_admitted(server.endpoint());
  ASSERT_GE(retry, 0) << "a freed slot was never reused";
  ::close(retry);
  ::close(b);
  server.stop();
}

TEST(Daemon, StopJoinsEveryThreadWithConnectionsHeldOpen) {
  // Structural no-leak guarantee: stop() must return even while idle
  // clients hold connections open (workers blocked in read).
  const ScratchDir dir("stop");
  DaemonConfig config;
  config.store_dir = dir.store();
  config.max_connections = 3;
  auto server = std::make_unique<DaemonServer>(dir.socket("d"), config);
  server->start();
  const int a = connect_with_retry(server->endpoint());
  const int b = connect_with_retry(server->endpoint());
  EXPECT_EQ(request_line(a, "PING\n"), R"({"ok":true,"pong":true})");
  server->stop();   // joins the acceptor and all workers or hangs here
  server.reset();
  ::close(a);
  ::close(b);
}

TEST(Daemon, WriterAndFollowerShareOneStoreAndPromotionHandsOver) {
  // The tentpole, end to end over sockets: a writer daemon computes
  // and persists; a follower daemon on the same directory serves the
  // same fronts warm after REFRESH; when the writer dies, PROMOTE
  // turns the follower into the writer and its inserts persist.
  const ScratchDir dir("fleet");
  const std::string model = to_text_format(catalog::fig3_example());

  DaemonConfig writer_config;
  writer_config.store_dir = dir.store();
  writer_config.max_connections = 2;
  auto writer = std::make_unique<DaemonServer>(dir.socket("w"),
                                               writer_config);
  writer->start();
  {
    const int fd = connect_with_retry(writer->endpoint());
    const JsonValue cold = analyze(fd, "text", model);
    ASSERT_TRUE(cold.at("ok").as_bool());
    EXPECT_FALSE(cold.at("cached").as_bool());
    ::close(fd);
  }

  DaemonConfig follower_config;
  follower_config.store_dir = dir.store();
  follower_config.store_follower = true;
  follower_config.max_connections = 2;
  auto follower = std::make_unique<DaemonServer>(dir.socket("f"),
                                                 follower_config);
  follower->start();
  ASSERT_TRUE(follower->cache().follower());

  const int fd = connect_with_retry(follower->endpoint());
  const JsonValue refreshed = parse_json(request_line(fd, "REFRESH\n"));
  ASSERT_TRUE(refreshed.at("ok").as_bool());
  const JsonValue warm = analyze(fd, "text", model);
  ASSERT_TRUE(warm.at("ok").as_bool());
  EXPECT_TRUE(warm.at("cached").as_bool())
      << "the writer's front must be served warm from the shared store";

  // Premature promotion is refused retryably while the writer lives.
  const JsonValue premature = parse_json(request_line(fd, "PROMOTE\n"));
  EXPECT_FALSE(premature.at("ok").as_bool());
  EXPECT_TRUE(premature.at("retryable").as_bool());

  writer.reset();  // the writer "dies"; its lease evaporates
  const JsonValue promoted = parse_json(request_line(fd, "PROMOTE\n"));
  ASSERT_TRUE(promoted.at("ok").as_bool());
  EXPECT_FALSE(follower->cache().follower());

  // A model the fleet has never seen: computed here, persisted here.
  const std::string fresh = to_text_format(catalog::fig5_example());
  const JsonValue computed = analyze(fd, "text", fresh);
  ASSERT_TRUE(computed.at("ok").as_bool());
  EXPECT_FALSE(computed.at("cached").as_bool());
  EXPECT_EQ(follower->cache().persistence_stats().store_writes, 1u)
      << "post-promotion fronts must reach the shared store";
  ::close(fd);
  follower.reset();  // releases the lease the promotion acquired

  // And the lineage survives: a fresh writer recovers both fronts.
  DaemonConfig successor_config;
  successor_config.store_dir = dir.store();
  successor_config.max_connections = 2;
  DaemonServer successor(dir.socket("s"), successor_config);
  ASSERT_TRUE(successor.cache().recovery().has_value());
  EXPECT_EQ(successor.cache().recovery()->entries_recovered, 2u);
}

TEST(Daemon, FollowerRefresherThreadTrailsTheWriter) {
  const ScratchDir dir("trail");
  const std::string model = to_text_format(catalog::fig3_example());

  DaemonConfig writer_config;
  writer_config.store_dir = dir.store();
  writer_config.max_connections = 2;
  DaemonServer writer(dir.socket("w"), writer_config);
  writer.start();

  DaemonConfig follower_config;
  follower_config.store_dir = dir.store();
  follower_config.store_follower = true;
  follower_config.store_refresh_seconds = 0.02;
  follower_config.max_connections = 2;
  DaemonServer follower(dir.socket("f"), follower_config);
  follower.start();

  {
    const int fd = connect_with_retry(writer.endpoint());
    ASSERT_TRUE(analyze(fd, "text", model).at("ok").as_bool());
    ::close(fd);
  }

  // No client ever sends REFRESH: the refresher thread must pick the
  // front up by itself.
  const int fd = connect_with_retry(follower.endpoint());
  bool warm = false;
  for (int attempt = 0; attempt < 250 && !warm; ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const JsonValue reply = analyze(fd, "text", model);
    ASSERT_TRUE(reply.at("ok").as_bool());
    warm = reply.at("cached").as_bool();
  }
  EXPECT_TRUE(warm) << "the refresher never surfaced the writer's front";
  EXPECT_GE(follower.metrics().refreshes.load(), 1u);
  ::close(fd);
}

}  // namespace
}  // namespace adtp::serve
