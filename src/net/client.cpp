#include "net/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace aetr::net {
namespace {

[[noreturn]] void sys_fail(const std::string& what) {
  throw std::runtime_error("net client: " + what + ": " +
                           std::strerror(errno));
}

std::string hex64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64, v);
  return buf;
}

}  // namespace

Client::Client(int fd) : fd_{fd} {}

Client::Client(Client&& other) noexcept
    : fd_{std::exchange(other.fd_, -1)},
      session_id_{other.session_id_},
      credit_{other.credit_},
      decoder_{std::move(other.decoder_)} {}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
    session_id_ = other.session_id_;
    credit_ = other.credit_;
    decoder_ = std::move(other.decoder_);
  }
  return *this;
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

Client Client::connect_tcp(const std::string& host, int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) sys_fail("socket(tcp)");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw std::runtime_error("net client: bad host " + host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const int e = errno;
    ::close(fd);
    errno = e;
    sys_fail("connect(tcp)");
  }
  return Client{fd};
}

Client Client::connect_uds(const std::string& path) {
  sockaddr_un addr{};
  if (path.size() >= sizeof addr.sun_path) {
    throw std::runtime_error("net client: UDS path too long: " + path);
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) sys_fail("socket(unix)");
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const int e = errno;
    ::close(fd);
    errno = e;
    sys_fail("connect(unix)");
  }
  return Client{fd};
}

void Client::send_bytes(const std::vector<std::uint8_t>& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      sys_fail("send");
    }
    off += static_cast<std::size_t>(n);
  }
}

Frame Client::recv_frame() {
  std::uint8_t buf[65536];
  for (;;) {
    if (auto f = decoder_.next()) {
      if (f->type == MsgType::kNack) {
        const Nack nack = decode_nack(f->payload);
        throw std::runtime_error("net client: server NACK: " + nack.reason);
      }
      return *f;
    }
    if (decoder_.failed()) {
      throw std::runtime_error("net client: framing: " + decoder_.error());
    }
    const ssize_t n = ::read(fd_, buf, sizeof buf);
    if (n < 0) {
      if (errno == EINTR) continue;
      sys_fail("read");
    }
    if (n == 0) {
      throw std::runtime_error("net client: server closed the connection");
    }
    decoder_.feed(buf, static_cast<std::size_t>(n));
  }
}

HelloAck Client::hello(const std::string& session_name,
                       const std::string& config_text) {
  Hello m;
  m.session_name = session_name;
  m.config_text = config_text;
  send_bytes(encode_frame(MsgType::kHello, 0, encode_hello(m)));
  const Frame f = recv_frame();
  if (f.type != MsgType::kHelloAck) {
    throw std::runtime_error(std::string{"net client: expected HELLO_ACK, "
                                         "got "} +
                             to_string(f.type));
  }
  const HelloAck ack = decode_hello_ack(f.payload);
  // The gateway fingerprints the dump of the scenario it loaded; a text
  // that dumps differently is not the scenario the caller built.
  if (!config_text.empty()) {
    const std::uint64_t sent = config_fingerprint(config_text);
    if (ack.config_fingerprint != sent) {
      throw std::runtime_error(
          "net client: HELLO_ACK config fingerprint " +
          hex64(ack.config_fingerprint) + " != " + hex64(sent) +
          " of the sent config (send canonical dump_scenario() text)");
    }
  }
  session_id_ = f.session_id;
  credit_ = ack.credit;
  return ack;
}

std::uint64_t Client::send_events(const aer::EventStream& events,
                                  std::size_t from,
                                  const SendOptions& options) {
  return send_some(events, from, events.size() - std::min(from, events.size()),
                   options);
}

std::uint64_t Client::send_some(const aer::EventStream& events,
                                std::size_t from, std::size_t max_events,
                                const SendOptions& options) {
  const std::size_t chunk_max =
      options.chunk == 0 ? 512
                         : std::min(options.chunk, kMaxEventsPerFrame);
  const std::size_t end =
      from + std::min(max_events, events.size() - std::min(from,
                                                           events.size()));
  std::uint64_t sent = 0;
  std::size_t pos = from;
  std::uint64_t since_snapshot = 0;
  while (pos < end) {
    while (credit_ == 0) {
      const Frame f = recv_frame();
      if (f.type == MsgType::kCredit) {
        credit_ += decode_credit(f.payload).grant;
      } else {
        throw std::runtime_error(
            std::string{"net client: expected CREDIT, got "} +
            to_string(f.type));
      }
    }
    const std::size_t n =
        std::min({chunk_max, end - pos, static_cast<std::size_t>(credit_)});
    send_bytes(
        encode_frame(MsgType::kData, session_id_, encode_data(events, pos, n)));
    credit_ -= n;
    pos += n;
    sent += n;
    // Consume the grant for this chunk before the next send, so at most
    // one window is ever in flight (and a NACK surfaces promptly).
    const Frame f = recv_frame();
    if (f.type == MsgType::kCredit) {
      credit_ += decode_credit(f.payload).grant;
    } else {
      throw std::runtime_error(
          std::string{"net client: expected CREDIT, got "} +
          to_string(f.type));
    }
    if (options.snapshot_every > 0) {
      since_snapshot += n;
      if (since_snapshot >= options.snapshot_every) {
        since_snapshot = 0;
        send_bytes(encode_frame(MsgType::kSnapshotReq, session_id_, {}));
        const Frame ack = recv_frame();
        if (ack.type != MsgType::kSnapshotAck) {
          throw std::runtime_error(
              std::string{"net client: expected SNAPSHOT_ACK, got "} +
              to_string(ack.type));
        }
      }
    }
    if (options.pace_us > 0 && options.pace_every > 0 &&
        sent % options.pace_every < n) {
      ::usleep(static_cast<useconds_t>(options.pace_us));
    }
  }
  return sent;
}

std::string Client::drain() {
  send_bytes(encode_frame(MsgType::kDrain, session_id_, {}));
  std::string summary;
  for (;;) {
    const Frame f = recv_frame();
    if (f.type == MsgType::kCredit) continue;  // late grant
    if (f.type == MsgType::kSummary) {
      summary = decode_summary(f.payload).text;
      continue;
    }
    if (f.type == MsgType::kBye) return summary;
    throw std::runtime_error(std::string{"net client: unexpected "} +
                             to_string(f.type) + " during drain");
  }
}

void Client::bye() {
  send_bytes(encode_frame(MsgType::kBye, session_id_, {}));
}

}  // namespace aetr::net
