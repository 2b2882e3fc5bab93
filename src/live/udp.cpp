#include "live/udp.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <vector>

#include "live/wire.h"
#include "snapshot/io.h"
#include "telemetry/registry.h"
#include "util/rng.h"

namespace asyncmac::live {

namespace {

using Clock = std::chrono::steady_clock;

std::int64_t elapsed_us(Clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                               since)
      .count();
}

Tick us_to_ticks(std::int64_t us, std::uint64_t unit_us) {
  return us * kTicksPerUnit / static_cast<std::int64_t>(unit_us);
}

std::int64_t ticks_to_us(Tick ticks, std::uint64_t unit_us) {
  return ticks * static_cast<std::int64_t>(unit_us) / kTicksPerUnit;
}

bool set_error(std::string* error, const std::string& what) {
  if (error) *error = what + ": " + std::strerror(errno);
  return false;
}

int open_udp_socket(const std::string& host, std::uint16_t port,
                    sockaddr_in* bound, std::string* error) {
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) {
    set_error(error, "socket");
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    if (error) *error = "bad IPv4 address: " + host;
    ::close(fd);
    return -1;
  }
  if (bound) {
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      set_error(error, "bind");
      ::close(fd);
      return -1;
    }
    socklen_t len = sizeof(*bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(bound), &len) != 0) {
      set_error(error, "getsockname");
      ::close(fd);
      return -1;
    }
  } else {
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      set_error(error, "connect");
      ::close(fd);
      return -1;
    }
  }
  return fd;
}

struct DelayedSend {
  std::int64_t due_us = 0;  ///< on the daemon's elapsed clock
  sockaddr_in to{};
  std::vector<std::uint8_t> bytes;
};

}  // namespace

bool write_port_file(const std::string& path, std::uint16_t port,
                     std::string* error) {
  const std::string tmp = path + ".tmp";
  FILE* f = std::fopen(tmp.c_str(), "w");
  if (!f) return set_error(error, "open " + tmp);
  const bool written = std::fprintf(f, "%u\n", unsigned{port}) > 0;
  if (std::fclose(f) != 0 || !written)
    return set_error(error, "write " + tmp);
  if (std::rename(tmp.c_str(), path.c_str()) != 0)
    return set_error(error, "rename " + path);
  return true;
}

int serve_udp(Daemon& daemon, const UdpServeOptions& opt, std::string* error) {
  sockaddr_in bound{};
  const int fd = open_udp_socket(opt.bind_host, opt.port, &bound, error);
  if (fd < 0) return 1;
  const std::uint16_t port = ntohs(bound.sin_port);
  if (!opt.port_file.empty() && !write_port_file(opt.port_file, port, error)) {
    ::close(fd);
    return 1;
  }
  if (opt.on_listening) opt.on_listening(port);

  const Clock::time_point epoch = Clock::now();
  util::Rng emu_rng(opt.emu_seed);
  std::vector<sockaddr_in> addrs(daemon.station_count());
  std::vector<bool> addr_known(daemon.station_count(), false);
  std::deque<DelayedSend> delayed;
  std::vector<std::uint8_t> buf(kDatagramHeaderBytes + kMaxDatagramPayload);
  Tick last_tick = 0;
  std::int64_t last_rx_us = 0;

  const auto flush_due = [&](std::int64_t now_us) {
    while (!delayed.empty() && delayed.front().due_us <= now_us) {
      const DelayedSend& d = delayed.front();
      (void)::sendto(fd, d.bytes.data(), d.bytes.size(), 0,
                     reinterpret_cast<const sockaddr*>(&d.to), sizeof(d.to));
      delayed.pop_front();
    }
  };

  const auto queue_send = [&](StationId to,
                              const std::vector<std::uint8_t>& bytes,
                              std::int64_t now_us) {
    if (!addr_known[to - 1]) return;
    if (opt.emu_loss > 0 && emu_rng.chance(opt.emu_loss)) {
      telemetry::count("live.emu_dropped");
      return;
    }
    std::int64_t delay = static_cast<std::int64_t>(opt.emu_delay_us);
    if (opt.emu_jitter_us > 0)
      delay += static_cast<std::int64_t>(emu_rng.below(opt.emu_jitter_us + 1));
    if (delay == 0 && delayed.empty()) {
      (void)::sendto(fd, bytes.data(), bytes.size(), 0,
                     reinterpret_cast<const sockaddr*>(&addrs[to - 1]),
                     sizeof(addrs[to - 1]));
      return;
    }
    DelayedSend d;
    d.due_us = now_us + delay;
    d.to = addrs[to - 1];
    d.bytes = bytes;
    // Keep the queue due-ordered (jitter can reorder; that is the point).
    auto pos = std::upper_bound(
        delayed.begin(), delayed.end(), d,
        [](const DelayedSend& a, const DelayedSend& b) {
          return a.due_us < b.due_us;
        });
    delayed.insert(pos, std::move(d));
  };

  int rc = 0;
  while (!daemon.done()) {
    const std::int64_t now_us = elapsed_us(epoch);
    flush_due(now_us);
    if (now_us - last_rx_us >
        static_cast<std::int64_t>(opt.idle_timeout_ms) * 1000) {
      if (error) *error = "idle timeout: no datagram received";
      rc = 1;
      break;
    }

    std::int64_t wait_us = 50'000;  // idle-timeout granularity
    if (!delayed.empty())
      wait_us = std::min(wait_us, std::max<std::int64_t>(
                                      0, delayed.front().due_us - now_us));
    pollfd pfd{fd, POLLIN, 0};
    const int ready =
        ::poll(&pfd, 1, static_cast<int>((wait_us + 999) / 1000));
    if (ready < 0) {
      if (errno == EINTR) continue;
      set_error(error, "poll");
      rc = 1;
      break;
    }
    if (ready == 0) continue;

    // Drain everything queued on the socket into one arrival wave.
    std::vector<std::vector<std::uint8_t>> batch;
    const std::int64_t arrival_us = elapsed_us(epoch);
    last_rx_us = arrival_us;
    for (;;) {
      sockaddr_in from{};
      socklen_t from_len = sizeof(from);
      const ssize_t got =
          ::recvfrom(fd, buf.data(), buf.size(), MSG_DONTWAIT,
                     reinterpret_cast<sockaddr*>(&from), &from_len);
      if (got < 0) break;  // EAGAIN: socket drained
      std::vector<std::uint8_t> bytes(buf.begin(), buf.begin() + got);
      // Learn/refresh the sender's address from the station id in the
      // datagram (the daemon re-validates everything itself).
      StationId sender = kInvalidStation;
      try {
        const Msg m = decode(bytes);
        sender = m.station;
      } catch (const snapshot::SnapshotError&) {
        // Malformed: still hand it to the daemon for counting.
      }
      if (sender >= 1 && sender <= daemon.station_count()) {
        addrs[sender - 1] = from;
        addr_known[sender - 1] = true;
      }
      batch.push_back(std::move(bytes));
    }
    if (batch.empty()) continue;

    const Tick tick = std::max(last_tick, us_to_ticks(arrival_us, opt.unit_us));
    last_tick = tick;
    DaemonActions acts = daemon.on_batch(tick, batch);
    const std::int64_t send_us = elapsed_us(epoch);
    for (const Outgoing& o : acts.sends) queue_send(o.to, o.datagram, send_us);
  }

  // Final Fins may still be queued behind an emulated delay.
  while (!delayed.empty()) flush_due(elapsed_us(epoch));
  ::close(fd);
  if (rc == 0 && daemon.failed()) {
    if (error) *error = "run poisoned: " + daemon.reason();
    rc = 1;
  }
  return rc;
}

int run_station_udp(const UdpStationOptions& opt, std::string* error) {
  const int fd = open_udp_socket(opt.host, opt.port, nullptr, error);
  if (fd < 0) return 1;

  StationMachine machine(opt.station);
  const Clock::time_point epoch = Clock::now();
  std::vector<std::uint8_t> buf(kDatagramHeaderBytes + kMaxDatagramPayload);
  std::optional<Tick> timer;

  const auto apply = [&](StationMachine::Actions acts) {
    for (const auto& bytes : acts.sends)
      (void)::send(fd, bytes.data(), bytes.size(), 0);
    timer = acts.timer;
  };

  apply(machine.on_start(0));
  while (!machine.finished()) {
    const Tick now = us_to_ticks(elapsed_us(epoch), opt.unit_us);
    if (timer && now >= *timer) {
      apply(machine.on_timer(now));
      continue;
    }
    int wait_ms = 1000;
    if (timer) {
      const std::int64_t due_us = ticks_to_us(*timer, opt.unit_us);
      const std::int64_t us = std::max<std::int64_t>(
          0, due_us - elapsed_us(epoch));
      wait_ms = static_cast<int>(std::min<std::int64_t>(
          1000, (us + 999) / 1000));
    }
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, wait_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      set_error(error, "poll");
      ::close(fd);
      return 1;
    }
    if (ready == 0) continue;
    const ssize_t got = ::recv(fd, buf.data(), buf.size(), 0);
    if (got < 0) continue;
    apply(machine.on_datagram(us_to_ticks(elapsed_us(epoch), opt.unit_us),
                              buf.data(), static_cast<std::size_t>(got)));
  }
  ::close(fd);
  if (machine.exit_code() != 0 && error && error->empty())
    *error = "station gave up (lost daemon or poisoned run)";
  return machine.exit_code();
}

}  // namespace asyncmac::live
