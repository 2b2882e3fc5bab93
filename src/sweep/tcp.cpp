#include "sweep/tcp.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <stdexcept>
#include <utility>

namespace asyncmac::sweep {

namespace {

[[noreturn]] void die(const char* what) {
  throw std::runtime_error(std::string(what) + ": " + std::strerror(errno));
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0)
    die("fcntl(O_NONBLOCK)");
}

std::uint64_t steady_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Blocking full write (worker side; coordinator uses buffered writes).
bool send_all(int fd, const std::uint8_t* data, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::send(fd, data, n, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

sockaddr_in resolve(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1) return addr;
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  if (::getaddrinfo(host.c_str(), nullptr, &hints, &res) != 0 || res == nullptr)
    throw std::runtime_error("cannot resolve host: " + host);
  addr.sin_addr = reinterpret_cast<sockaddr_in*>(res->ai_addr)->sin_addr;
  ::freeaddrinfo(res);
  return addr;
}

}  // namespace

ServeOutcome serve(const ServeOptions& opt) {
  Coordinator coord(opt.coord);

  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listener < 0) die("socket");
  const int one = 1;
  ::setsockopt(listener, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = resolve(opt.bind_host, opt.port);
  if (::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(listener);
    die("bind");
  }
  if (::listen(listener, 16) < 0) {
    ::close(listener);
    die("listen");
  }
  set_nonblocking(listener);
  sockaddr_in bound{};
  socklen_t blen = sizeof(bound);
  ::getsockname(listener, reinterpret_cast<sockaddr*>(&bound), &blen);
  if (opt.on_listening) opt.on_listening(ntohs(bound.sin_port));

  struct ConnIo {
    int fd = -1;
    std::vector<std::uint8_t> outbuf;  ///< unsent bytes (short-write tail)
  };
  std::map<std::uint64_t, ConnIo> conns;  // conn id -> socket state
  std::uint64_t next_conn = 1;
  const std::uint64_t t0 = steady_ms();
  std::uint64_t last_tick = 0;

  auto apply = [&](std::vector<Action> actions) {
    for (auto& a : actions) {
      auto it = conns.find(a.conn);
      if (it == conns.end()) continue;
      if (a.kind == Action::Kind::kSend) {
        it->second.outbuf.insert(it->second.outbuf.end(), a.frame.begin(),
                                 a.frame.end());
      } else {
        ::close(it->second.fd);
        conns.erase(it);
      }
    }
  };
  auto drop = [&](std::uint64_t conn, std::uint64_t now) {
    auto it = conns.find(conn);
    if (it == conns.end()) return;
    ::close(it->second.fd);
    conns.erase(it);
    apply(coord.on_eof(conn, now));
  };

  // Once the job completes the loop does NOT slam connections shut:
  // closing a socket with unread bytes in flight (a heartbeat racing the
  // final Shutdown) sends RST and can discard the queued Shutdown on the
  // worker side. Instead every connection gets its Shutdown, and the loop
  // keeps serving until each peer drains it and closes (EOF) — bounded by
  // a grace deadline for dead peers. The listener stays open through the
  // drain: a worker whose connect is still in the listen backlog is
  // accepted and dismissed with its Shutdown, as a worker joining a
  // complete sweep expects (sweep/worker.cpp), instead of being reset.
  constexpr std::uint64_t kDrainGraceMs = 3000;
  bool closing = false;
  std::uint64_t close_deadline = 0;

  std::uint8_t buf[65536];
  for (;;) {
    const std::uint64_t now = steady_ms() - t0;
    if (coord.done()) {
      if (!closing) {
        closing = true;
        close_deadline = now + kDrainGraceMs;
      }
      if (conns.empty() || now >= close_deadline) break;
    }
    if (now - last_tick >= opt.tick_ms) {
      last_tick = now;
      apply(coord.on_tick(now));
    }

    std::vector<pollfd> fds{{listener, POLLIN, 0}};
    std::vector<std::uint64_t> ids{0};
    for (auto& [id, io] : conns) {
      short events = POLLIN;
      if (!io.outbuf.empty()) events |= POLLOUT;
      fds.push_back({io.fd, events, 0});
      ids.push_back(id);
    }
    const int timeout = static_cast<int>(opt.tick_ms);
    const int ready = ::poll(fds.data(), fds.size(), timeout);
    if (ready < 0) {
      if (errno == EINTR) continue;
      die("poll");
    }

    const std::uint64_t now2 = steady_ms() - t0;
    if (fds[0].revents & POLLIN) {
      for (;;) {
        const int fd = ::accept(listener, nullptr, nullptr);
        if (fd < 0) break;
        set_nonblocking(fd);
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        const std::uint64_t id = next_conn++;
        conns[id] = ConnIo{fd, {}};
        apply(coord.on_connect(id, now2));
      }
    }
    for (std::size_t i = 1; i < fds.size(); ++i) {
      const std::uint64_t id = ids[i];
      auto it = conns.find(id);
      if (it == conns.end()) continue;  // closed earlier this round
      if (fds[i].revents & POLLOUT) {
        auto& out = it->second.outbuf;
        const ssize_t w =
            ::send(it->second.fd, out.data(), out.size(), MSG_NOSIGNAL);
        if (w > 0)
          out.erase(out.begin(), out.begin() + w);
        else if (w < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                 errno != EINTR) {
          drop(id, now2);
          continue;
        }
      }
      if (fds[i].revents & (POLLIN | POLLERR | POLLHUP)) {
        for (;;) {
          const ssize_t n = ::recv(it->second.fd, buf, sizeof(buf), 0);
          if (n > 0) {
            apply(coord.on_bytes(id, buf, static_cast<std::size_t>(n), now2));
            it = conns.find(id);  // on_bytes may have closed the conn
            if (it == conns.end()) break;
            continue;
          }
          if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
          if (n < 0 && errno == EINTR) continue;
          drop(id, now2);  // n == 0 (peer EOF) or a hard error
          break;
        }
      }
    }
  }

  for (auto& [id, io] : conns) ::close(io.fd);
  ::close(listener);

  ServeOutcome out;
  out.records = coord.grid_records();
  out.verdicts = coord.fuzz_verdicts();
  return out;
}

int run_worker(const WorkerOptions& opt) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) die("socket");
  sockaddr_in addr = resolve(opt.host, opt.port);
  addr.sin_port = htons(opt.port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    std::fprintf(stderr, "worker: connect %s:%u failed: %s\n",
                 opt.host.c_str(), static_cast<unsigned>(opt.port),
                 std::strerror(errno));
    ::close(fd);
    return 1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  WorkerSession::Config cfg;
  cfg.name = opt.name;
  WorkerSession session(cfg);
  const std::uint64_t t0 = steady_ms();

  auto flush = [&](std::vector<std::vector<std::uint8_t>> frames) {
    for (const auto& f : frames)
      if (!send_all(fd, f.data(), f.size())) {
        session.on_eof();
        return;
      }
  };
  flush(session.start(0));

  std::uint8_t buf[65536];
  while (!session.finished() && !session.failed()) {
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 100);
    if (ready < 0) {
      if (errno == EINTR) continue;
      session.on_eof();
      break;
    }
    const std::uint64_t now = steady_ms() - t0;
    if (ready > 0 && (pfd.revents & (POLLIN | POLLERR | POLLHUP))) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n > 0) {
        flush(session.on_bytes(buf, static_cast<std::size_t>(n), now));
      } else if (!(n < 0 && (errno == EINTR || errno == EAGAIN ||
                             errno == EWOULDBLOCK))) {
        session.on_eof();
        break;
      }
    }
    if (!session.finished() && !session.failed())
      flush(session.on_tick(steady_ms() - t0));
  }
  ::close(fd);
  if (session.finished()) return 0;
  std::fprintf(stderr, "worker: %s\n",
               session.error().empty() ? "failed" : session.error().c_str());
  return 1;
}

}  // namespace asyncmac::sweep
