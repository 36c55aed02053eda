// asipfb_serve: the evaluation service behind a newline-delimited
// request/response protocol over stdin/stdout, so shells, scripts, and CI
// can drive the concurrent server without linking anything.
//
//   $ ./examples/asipfb_serve [--workers N] [--queue N] [--latency]
//   > 1 detect fir level=O1
//   < {"id": 1, "kind": "detect", "workload": "fir", "ok": true, ...}
//
// One command per input line (grammar: src/service/protocol.hpp and
// docs/SERVICE.md).  Requests are submitted asynchronously to a one-shard
// service::Router through service::ProtocolSession — the same protocol
// state machine every TCP connection runs — and responses are printed in
// submission order, so a scripted session's output is deterministic and
// diffable: CI pipes examples/serve_demo.txt through this binary and
// diffs the result.  Control lines: `source <name> <n>` binds the next n
// raw lines as BenchC under a workload name, `stats` prints server
// counters, `ping` prints a liveness line, `quit` (or EOF) drains and
// exits.
//
// With --tcp PORT the same protocol is served over sockets instead
// (service::TcpServer, Linux only), optionally sharded (--shards N routes
// each workload to a dedicated shard via consistent hashing); the process
// then runs until SIGINT/SIGTERM and shuts down gracefully.
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>

#include "service/net.hpp"
#include "service/router.hpp"
#include "service/server.hpp"

using namespace asipfb;

namespace {

struct ServeOptions {
  service::ServerOptions server;
  bool with_latency = false;
  bool help = false;
  bool tcp = false;
  int tcp_port = 0;
  unsigned shards = 1;
  int idle_timeout_ms = 0;
  std::string port_file;
};

void print_usage(std::FILE* out) {
  std::fprintf(out,
               "usage: asipfb_serve [--workers N] [--queue N] [--latency]\n"
               "                    [--cache-dir DIR]\n"
               "                    [--tcp PORT [--shards N] [--port-file F]\n"
               "                     [--idle-timeout MS]]\n"
               "\n"
               "Serves the compiler-feedback pipeline over a line protocol:\n"
               "one command per stdin line, one JSON response per stdout\n"
               "line, in submission order.\n"
               "\n"
               "  <id> <kind> <workload> [key=value]...\n"
               "      kind: compile|optimize|detect|coverage|extension|sweep\n"
               "      keys: level min max prune adjacency maxocc floor rounds\n"
               "            area cycle levels floors budgets\n"
               "  source <name> <line-count>   bind BenchC text to a name\n"
               "  stats | ping | quit          control lines\n"
               "\n"
               "options:\n"
               "  --workers N   worker threads per shard (default: hardware)\n"
               "  --queue N     queue capacity per shard (default 256)\n"
               "  --latency     include latency/uptime fields in output\n"
               "                (nondeterministic; off for diffable runs)\n"
               "  --cache-dir DIR  persistent artifact cache: baselines and\n"
               "                stage artifacts are read from DIR when valid\n"
               "                and written back after cold computes, so a\n"
               "                restarted (or replicated) service warm-starts;\n"
               "                a summary line goes to stderr on exit\n"
               "  --tcp PORT    serve the protocol over TCP on 127.0.0.1:PORT\n"
               "                (0 picks an ephemeral port) instead of stdio;\n"
               "                runs until SIGINT/SIGTERM\n"
               "  --shards N    shard the service N ways behind a consistent-\n"
               "                hash router (TCP mode only; default 1)\n"
               "  --port-file F write the bound port to F once listening\n"
               "  --idle-timeout MS  close idle TCP connections after MS\n"
               "  --help        print this help and exit\n");
}

bool parse_args(int argc, char** argv, ServeOptions& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--help" || arg == "-h") {
      options.help = true;
    } else if (arg == "--workers") {
      const char* v = next();
      if (v == nullptr || std::atoi(v) < 1) return false;
      options.server.workers = static_cast<unsigned>(std::atoi(v));
    } else if (arg == "--queue") {
      const char* v = next();
      if (v == nullptr || std::atoi(v) < 1) return false;
      options.server.queue_capacity = static_cast<std::size_t>(std::atoi(v));
    } else if (arg == "--latency") {
      options.with_latency = true;
    } else if (arg == "--cache-dir") {
      const char* v = next();
      if (v == nullptr || *v == '\0') return false;
      options.server.cache_dir = v;
    } else if (arg == "--tcp") {
      const char* v = next();
      if (v == nullptr) return false;
      const int port = std::atoi(v);
      if (port < 0 || port > 65535 || (port == 0 && std::string(v) != "0")) {
        return false;
      }
      options.tcp = true;
      options.tcp_port = port;
    } else if (arg == "--shards") {
      const char* v = next();
      if (v == nullptr || std::atoi(v) < 1) return false;
      options.shards = static_cast<unsigned>(std::atoi(v));
    } else if (arg == "--port-file") {
      const char* v = next();
      if (v == nullptr) return false;
      options.port_file = v;
    } else if (arg == "--idle-timeout") {
      const char* v = next();
      if (v == nullptr || std::atoi(v) < 1) return false;
      options.idle_timeout_ms = std::atoi(v);
    } else {
      return false;
    }
  }
  // Sharding/port plumbing only makes sense for the socket front end.
  if (!options.tcp &&
      (options.shards != 1 || !options.port_file.empty() ||
       options.idle_timeout_ms != 0)) {
    return false;
  }
  return true;
}

/// stderr summary of the artifact cache, printed at every exit path when a
/// cache dir was configured.  Deliberately on stderr: stdout transcripts
/// stay byte-stable, while the warm-restart CI smoke greps this line to
/// assert the second run actually hit the cache.
void print_cache_summary(const std::shared_ptr<cache::Store>& store,
                         const service::Stats& stats) {
  if (store == nullptr) return;
  const cache::StoreStats s = store->stats();
  std::fprintf(stderr,
               "asipfb_serve: cache summary: dir=%s hits=%llu misses=%llu "
               "writes=%llu evictions=%llu corrupt=%llu baselines_disk=%llu\n",
               store->dir().c_str(), static_cast<unsigned long long>(s.hits),
               static_cast<unsigned long long>(s.misses),
               static_cast<unsigned long long>(s.writes),
               static_cast<unsigned long long>(s.evictions),
               static_cast<unsigned long long>(s.corrupt),
               static_cast<unsigned long long>(stats.baselines_disk));
}

/// Builds the (possibly sharded) service; prints the reason and returns
/// null when the options are unusable (e.g. an unwritable cache dir).
std::unique_ptr<service::Router> make_router(const ServeOptions& options) {
  service::RouterOptions router_options;
  router_options.shards = options.shards;
  router_options.server = options.server;
  try {
    return std::make_unique<service::Router>(router_options);
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "asipfb_serve: %s\n", ex.what());
    return nullptr;
  }
}

/// Stdio mode: one ProtocolSession fed from stdin and flushed to stdout.
/// Submission blocks on a full shard queue (backpressure on this thread),
/// and stdin is read only once every submitted request has answered, so an
/// interactive client sees each response before it must send more.
int serve_stdio(const ServeOptions& options) {
  const std::unique_ptr<service::Router> router = make_router(options);
  if (router == nullptr) return 1;

  service::ProtocolSession::Options session_options;
  session_options.with_latency = options.with_latency;
  session_options.blocking_submit = true;
  service::ProtocolSession session(*router, session_options);
  char buf[1 << 16];
  for (;;) {
    for (;;) {
      const bool progress = session.pump();
      const std::string out = session.take_ready();
      if (!out.empty()) {
        std::fwrite(out.data(), 1, out.size(), stdout);
        std::fflush(stdout);
      }
      if (!progress && out.empty()) break;
    }
    if (session.wants_close()) break;
    if (session.pending() > 0) {
      session.wait_pending();
      continue;
    }
    const ssize_t n = ::read(STDIN_FILENO, buf, sizeof buf);
    if (n > 0) {
      session.feed({buf, static_cast<std::size_t>(n)});
    } else if (n == 0 || errno != EINTR) {
      session.finish_input();
    }
  }
  router->shutdown();
  print_cache_summary(router->store(), router->stats());
  return 0;
}

/// TCP mode: Router (sharded service) + TcpServer, then park on sigwait
/// until SIGINT/SIGTERM and shut both down gracefully.  Signals are
/// blocked before any thread is spawned so every thread inherits the
/// mask and delivery is confined to sigwait.
int serve_tcp(const ServeOptions& options) {
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGINT);
  sigaddset(&sigs, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

  const std::unique_ptr<service::Router> router_holder = make_router(options);
  if (router_holder == nullptr) return 1;
  service::Router& router = *router_holder;

  service::TcpServer::Options tcp_options;
  tcp_options.port = static_cast<std::uint16_t>(options.tcp_port);
  tcp_options.with_latency = options.with_latency;
  tcp_options.idle_timeout_ms = options.idle_timeout_ms;
  std::unique_ptr<service::TcpServer> tcp;
  try {
    tcp = std::make_unique<service::TcpServer>(router, tcp_options);
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "asipfb_serve: %s\n", ex.what());
    return 1;
  }

  if (!options.port_file.empty()) {
    std::ofstream out(options.port_file, std::ios::trunc);
    out << tcp->port() << "\n";
    if (!out) {
      std::fprintf(stderr, "asipfb_serve: cannot write port file '%s'\n",
                   options.port_file.c_str());
      return 1;
    }
  }
  std::fprintf(stderr, "asipfb_serve: listening on 127.0.0.1:%u (%u shard%s)\n",
               static_cast<unsigned>(tcp->port()), options.shards,
               options.shards == 1 ? "" : "s");

  int sig = 0;
  while (sigwait(&sigs, &sig) != 0) {
  }
  std::fprintf(stderr, "asipfb_serve: signal %d, shutting down\n", sig);
  tcp->stop();
  router.shutdown();
  print_cache_summary(router.store(), router.stats());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ServeOptions options;
  if (!parse_args(argc, argv, options)) {
    print_usage(stderr);
    return 2;
  }
  if (options.help) {
    print_usage(stdout);
    return 0;
  }
  return options.tcp ? serve_tcp(options) : serve_stdio(options);
}
