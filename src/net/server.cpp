#include "net/server.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <vector>

namespace aetr::net {
namespace {

[[noreturn]] void sys_fail(const std::string& what) {
  throw std::runtime_error("net: " + what + ": " + std::strerror(errno));
}

/// Blocking send of the whole buffer (MSG_NOSIGNAL: a vanished peer is a
/// return value, not a SIGPIPE). EPIPE/ECONNRESET are reported as false
/// (peer gone), everything else throws.
bool write_all(int fd, const std::uint8_t* data, std::size_t size) {
  std::size_t off = 0;
  while (off < size) {
    const ssize_t n = ::send(fd, data + off, size - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EPIPE || errno == ECONNRESET) return false;
      sys_fail("send");
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

std::uint16_t allocate_session_id(std::uint16_t& next,
                                  std::span<const std::uint16_t> live) {
  std::vector<bool> taken(0x10000);
  for (const std::uint16_t id : live) taken[id] = true;
  for (std::uint32_t tried = 0; tried < 0xFFFFu; ++tried) {
    const std::uint16_t id = next == 0 ? 1 : next;
    next = id == 0xFFFFu ? 1 : static_cast<std::uint16_t>(id + 1);
    if (!taken[id]) return id;
  }
  return 0;
}

struct Server::Impl {
  ServerOptions options;
  int tcp_fd{-1};
  int uds_fd{-1};
  int wake_rd{-1};
  int wake_wr{-1};
  int bound_tcp_port{0};
  std::atomic<bool> stop{false};
  std::size_t completed{0};
  std::uint16_t next_session_id{1};

  struct Conn {
    int fd{-1};
    std::unique_ptr<Connection> connection;
    bool peer_gone{false};
  };
  std::vector<Conn> conns;

  ~Impl() {
    for (auto& c : conns) {
      if (c.fd >= 0) ::close(c.fd);
    }
    if (tcp_fd >= 0) ::close(tcp_fd);
    if (uds_fd >= 0) ::close(uds_fd);
    if (wake_rd >= 0) ::close(wake_rd);
    if (wake_wr >= 0) ::close(wake_wr);
    if (!options.uds_path.empty()) ::unlink(options.uds_path.c_str());
  }

  void bind_listeners() {
    if (options.tcp) {
      tcp_fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (tcp_fd < 0) sys_fail("socket(tcp)");
      const int one = 1;
      ::setsockopt(tcp_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      addr.sin_port = htons(static_cast<std::uint16_t>(options.tcp_port));
      if (::bind(tcp_fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0)
        sys_fail("bind(tcp)");
      if (::listen(tcp_fd, 64) != 0) sys_fail("listen(tcp)");
      sockaddr_in bound{};
      socklen_t len = sizeof bound;
      if (::getsockname(tcp_fd, reinterpret_cast<sockaddr*>(&bound), &len) !=
          0)
        sys_fail("getsockname(tcp)");
      bound_tcp_port = ntohs(bound.sin_port);
    }
    if (!options.uds_path.empty()) {
      sockaddr_un addr{};
      if (options.uds_path.size() >= sizeof addr.sun_path) {
        throw std::runtime_error("net: UDS path too long: " +
                                 options.uds_path);
      }
      uds_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (uds_fd < 0) sys_fail("socket(unix)");
      ::unlink(options.uds_path.c_str());
      addr.sun_family = AF_UNIX;
      std::strncpy(addr.sun_path, options.uds_path.c_str(),
                   sizeof addr.sun_path - 1);
      if (::bind(uds_fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0)
        sys_fail("bind(unix)");
      if (::listen(uds_fd, 64) != 0) sys_fail("listen(unix)");
    }
    int pipe_fds[2];
    if (::pipe(pipe_fds) != 0) sys_fail("pipe");
    wake_rd = pipe_fds[0];
    wake_wr = pipe_fds[1];
  }

  void accept_on(int listen_fd) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) return;
      sys_fail("accept");
    }
    std::vector<std::uint16_t> live;
    live.reserve(conns.size());
    for (const auto& cc : conns) live.push_back(cc.connection->session_id());
    const std::uint16_t id = conns.size() < options.max_connections
                                 ? allocate_session_id(next_session_id, live)
                                 : 0;
    if (id == 0) {
      ::close(fd);
      return;
    }
    Conn c;
    c.fd = fd;
    // The send path writes synchronously from the single event-loop
    // thread. A stalled client could in principle block the loop; the
    // paced test clients here always drain their reads, and the replies
    // (acks, credits, one summary) are small against socket buffers.
    c.connection = std::make_unique<Connection>(
        options.gateway, id, [this, fd](const std::vector<std::uint8_t>& b) {
          for (auto& cc : conns) {
            if (cc.fd == fd && !cc.peer_gone) {
              if (!write_all(fd, b.data(), b.size())) cc.peer_gone = true;
              return;
            }
          }
        });
    conns.push_back(std::move(c));
  }

  void close_conn(std::size_t i) {
    ::close(conns[i].fd);
    conns[i].fd = -1;
    conns.erase(conns.begin() + static_cast<std::ptrdiff_t>(i));
    ++completed;
  }

  void drain_all() {
    for (std::size_t i = conns.size(); i > 0; --i) {
      conns[i - 1].connection->drain();
      close_conn(i - 1);
    }
  }

  void loop() {
    std::vector<pollfd> fds;
    std::uint8_t buf[65536];
    while (!stop.load(std::memory_order_relaxed)) {
      if (options.exit_after_sessions > 0 &&
          completed >= options.exit_after_sessions && conns.empty()) {
        return;
      }
      fds.clear();
      fds.push_back({wake_rd, POLLIN, 0});
      if (tcp_fd >= 0) fds.push_back({tcp_fd, POLLIN, 0});
      if (uds_fd >= 0) fds.push_back({uds_fd, POLLIN, 0});
      const std::size_t first_conn = fds.size();
      for (const auto& c : conns) fds.push_back({c.fd, POLLIN, 0});

      const int rc = ::poll(fds.data(), static_cast<nfds_t>(fds.size()), -1);
      if (rc < 0) {
        if (errno == EINTR) continue;
        sys_fail("poll");
      }
      if ((fds[0].revents & POLLIN) != 0) {
        char sink[64];
        [[maybe_unused]] const ssize_t drained =
            ::read(wake_rd, sink, sizeof sink);
        continue;  // stop flag re-checked at the top
      }
      std::size_t li = 1;
      if (tcp_fd >= 0) {
        if ((fds[li].revents & POLLIN) != 0) accept_on(tcp_fd);
        ++li;
      }
      if (uds_fd >= 0) {
        if ((fds[li].revents & POLLIN) != 0) accept_on(uds_fd);
        ++li;
      }
      // Walk connections back-to-front so close_conn's erase is safe.
      for (std::size_t k = fds.size(); k > first_conn; --k) {
        const std::size_t i = k - first_conn - 1;
        const short re = fds[k - 1].revents;
        if (re == 0) continue;
        if (i >= conns.size() || conns[i].fd != fds[k - 1].fd) continue;
        bool close_now = false;
        if ((re & POLLIN) != 0) {
          const ssize_t n = ::read(conns[i].fd, buf, sizeof buf);
          if (n > 0) {
            close_now = !conns[i].connection->on_bytes(
                buf, static_cast<std::size_t>(n));
          } else if (n == 0) {
            // EOF without DRAIN/BYE: the peer vanished (crash or kill).
            // The session is abandoned; its snapshot, if any, is the
            // resume point.
            close_now = true;
          } else if (errno != EINTR && errno != EAGAIN) {
            close_now = true;
          }
        } else if ((re & (POLLHUP | POLLERR | POLLNVAL)) != 0) {
          close_now = true;
        }
        if (close_now) close_conn(i);
      }
    }
    drain_all();
  }
};

Server::Server(ServerOptions options) : impl_{std::make_unique<Impl>()} {
  impl_->options = std::move(options);
  impl_->bind_listeners();
}

Server::~Server() = default;

int Server::tcp_port() const { return impl_->bound_tcp_port; }

void Server::run() { impl_->loop(); }

void Server::request_stop() {
  impl_->stop.store(true, std::memory_order_relaxed);
  const char byte = 1;
  // Best-effort wake; the pipe is only ever written here.
  [[maybe_unused]] const ssize_t n = ::write(impl_->wake_wr, &byte, 1);
}

std::size_t Server::sessions_completed() const { return impl_->completed; }

}  // namespace aetr::net
