#include "net/connection.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <span>
#include <stdexcept>

#include "core/config_io.hpp"
#include "core/summary.hpp"

namespace aetr::net {
namespace {

bool file_exists(const std::string& path) {
  std::ifstream f{path, std::ios::binary};
  return static_cast<bool>(f);
}

/// Session names become file names (summary-<name>.txt, <name>.snap), so
/// the accepted alphabet is deliberately narrow.
bool valid_session_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  for (const char c : name) {
    const auto u = static_cast<unsigned char>(c);
    if (std::isalnum(u) == 0 && c != '-' && c != '_' && c != '.') return false;
  }
  return name.front() != '.';
}

/// Gateway policy is what the gateway spends or writes: the buffer cap
/// bounds what a session holds in gateway memory (the pump advances only
/// when it fills); telemetry writes gateway files. Returns the first such
/// key a HELLO config dumps unlike the gateway's default, or nullptr.
const char* policy_override(const core::ScenarioConfig& peer,
                            const core::ScenarioConfig& own) {
  for (const auto& e : core::scenario_schema().entries()) {
    const bool policy = e.key == "session.max_buffered_events" ||
                        e.key.starts_with("telemetry.");
    if (!policy) continue;
    std::string theirs, ours;
    e.dump(theirs, peer);
    e.dump(ours, own);
    if (theirs != ours) return e.key.c_str();
  }
  return nullptr;
}

}  // namespace

void write_blob_atomic(const std::string& path,
                       const std::vector<std::uint8_t>& blob) {
  const std::string tmp = path + ".tmp";
  const auto fail = [&tmp](const std::string& what) {
    std::remove(tmp.c_str());
    throw std::runtime_error(what);
  };
  std::ofstream f{tmp, std::ios::binary | std::ios::trunc};
  if (!f) fail("net: cannot open " + tmp);
  f.write(reinterpret_cast<const char*>(blob.data()),
          static_cast<std::streamsize>(blob.size()));
  // close() flushes what the stream still buffers; a small blob is written
  // only here, so its error surfaces only here.
  f.close();
  if (!f) fail("net: write failed for " + tmp);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    fail("net: cannot rename " + tmp + " to " + path);
  }
}

std::vector<std::uint8_t> read_blob(const std::string& path) {
  // A device (/dev/zero, or a link to one) never ends; only a regular file
  // has a size to read up to. Should the path change in between, the read
  // still stops at that size, and the blob's own length and CRC checks
  // refuse what it got.
  std::error_code ec;
  if (!std::filesystem::is_regular_file(path, ec)) {
    throw std::runtime_error(
        (ec ? "net: cannot open " : "net: not a regular file: ") + path);
  }
  const auto size = std::filesystem::file_size(path, ec);
  std::ifstream f{path, std::ios::binary};
  if (ec || !f) throw std::runtime_error("net: cannot open " + path);
  // The header is checked before anything is sized by the file, so a huge
  // or sparse file that is not a snapshot allocates nothing.
  constexpr std::size_t kHeader = core::Session::kSnapshotHeaderBytes;
  std::vector<std::uint8_t> blob(kHeader);
  const auto read_from = [&f, &blob](std::size_t at) {
    f.read(reinterpret_cast<char*>(blob.data() + at),
           static_cast<std::streamsize>(blob.size() - at));
    blob.resize(at + static_cast<std::size_t>(f.gcount()));
  };
  read_from(0);
  if (const std::string why = core::Session::snapshot_header_error(blob);
      !why.empty()) {
    throw std::runtime_error("net: " + path + ": " + why);
  }
  try {
    blob.resize(std::max<std::size_t>(kHeader, size));
  } catch (const std::exception& e) {  // bad_alloc, length_error
    throw std::runtime_error("net: " + path + ": cannot hold " +
                             std::to_string(size) + " bytes: " + e.what());
  }
  read_from(kHeader);
  return blob;
}

Connection::Connection(const GatewayConfig& config, std::uint16_t session_id,
                       SendFn send)
    : config_{config}, session_id_{session_id}, send_{std::move(send)} {}

Connection::~Connection() = default;

bool Connection::on_bytes(const std::uint8_t* data, std::size_t size) {
  if (closed()) return false;
  // Frames are handled where they lie in `data`; only one split across
  // calls is copied. Nothing after a frame that closes the connection is
  // parsed.
  decoder_.feed_frames(data, size, [this](const FrameView& f) {
    handle_frame(f);
    return !closed();
  });
  if (!closed() && decoder_.failed()) {
    protocol_error("framing: " + decoder_.error());
  }
  return !closed();
}

bool Connection::on_bytes(const std::vector<std::uint8_t>& bytes) {
  return on_bytes(bytes.data(), bytes.size());
}

void Connection::send_frame(MsgType type,
                            std::span<const std::uint8_t> payload) {
  if (!send_) return;
  encode_frame_into(reply_, type, session_id_, payload);
  send_(reply_);
}

void Connection::protocol_error(const std::string& reason) {
  if (state_ == State::kError) return;
  error_ = reason;
  send_frame(MsgType::kNack, encode_nack(Nack{reason}));
  state_ = State::kError;
}

void Connection::handle_frame(const FrameView& f) {
  // Clients address the gateway, not a session, until HELLO_ACK hands out
  // an id; after that both spellings are accepted.
  if (f.session_id != 0 && f.session_id != session_id_) {
    protocol_error("frame addressed to wrong session id " +
                   std::to_string(f.session_id));
    return;
  }
  switch (f.type) {
    case MsgType::kHello:
      handle_hello(f);
      return;
    case MsgType::kData:
      handle_data(f);
      return;
    case MsgType::kSnapshotReq:
      handle_snapshot_req();
      return;
    case MsgType::kDrain:
      if (state_ != State::kStreaming) {
        protocol_error("DRAIN before HELLO");
        return;
      }
      finish_session();
      return;
    case MsgType::kBye:
      // Abandon without a summary: the client walked away mid-stream.
      state_ = State::kDone;
      return;
    case MsgType::kHelloAck:
    case MsgType::kCredit:
    case MsgType::kNack:
    case MsgType::kSnapshotAck:
    case MsgType::kSummary:
      protocol_error(std::string{"unexpected "} + to_string(f.type) +
                     " from client");
      return;
  }
  protocol_error("unhandled frame type");
}

void Connection::handle_hello(const FrameView& f) {
  if (state_ != State::kAwaitHello) {
    protocol_error("duplicate HELLO");
    return;
  }
  Hello hello;
  try {
    hello = decode_hello({f.payload, f.payload + f.payload_size});
  } catch (const std::exception& e) {
    protocol_error(std::string{"malformed HELLO: "} + e.what());
    return;
  }
  if (hello.protocol_version != kProtocolVersion) {
    protocol_error("protocol version mismatch: client " +
                   std::to_string(hello.protocol_version) + ", server " +
                   std::to_string(kProtocolVersion));
    return;
  }
  if (!valid_session_name(hello.session_name)) {
    protocol_error("invalid session name");
    return;
  }
  name_ = hello.session_name;

  core::ScenarioConfig scenario = config_.default_scenario;
  if (!hello.config_text.empty()) {
    try {
      scenario = core::load_scenario_text(hello.config_text);
    } catch (const std::exception& e) {
      protocol_error(std::string{"bad config: "} + e.what());
      return;
    }
    if (const char* key =
            policy_override(scenario, config_.default_scenario)) {
      protocol_error(std::string{"bad config: "} + key +
                     " is gateway policy; HELLO may not change it");
      return;
    }
  }
  try {
    session_ = std::make_unique<core::Session>(scenario);
  } catch (const std::exception& e) {
    protocol_error(std::string{"scenario rejected: "} + e.what());
    return;
  }
  if (!config_.keep_history) session_->set_keep_history(false);

  if (!config_.snapshot_dir.empty()) {
    snapshot_path_ = config_.snapshot_dir + "/" + name_ + ".snap";
  }
  if (config_.resume && !snapshot_path_.empty() &&
      file_exists(snapshot_path_)) {
    try {
      session_->restore(read_blob(snapshot_path_));
    } catch (const std::exception& e) {
      protocol_error(std::string{"resume failed: "} + e.what());
      return;
    }
  }

  try {
    pump_.emplace(*session_,
                  snapshot_path_.empty() ? 0.0 : config_.snapshot_interval_sec,
                  [this] { return take_snapshot(); });
  } catch (const std::exception& e) {
    protocol_error(std::string{"bad snapshot interval: "} + e.what());
    return;
  }

  HelloAck ack;
  ack.config_fingerprint = config_fingerprint(session_->config_text());
  ack.events_fed = session_->events_fed();
  ack.position_ps = session_->position().count_ps();
  ack.credit = config_.credit_window;
  state_ = State::kStreaming;
  send_frame(MsgType::kHelloAck, encode_hello_ack(ack));
}

void Connection::handle_data(const FrameView& f) {
  if (state_ != State::kStreaming) {
    protocol_error("DATA before HELLO");
    return;
  }
  try {
    decode_data_into(f.payload, f.payload_size, events_);
  } catch (const std::exception& e) {
    protocol_error(std::string{"malformed DATA: "} + e.what());
    return;
  }
  const std::span<const aer::Event> events{events_};
  // Each frame is ingested, and its credit re-granted, before the next is
  // read, so every frame may spend the whole window.
  if (events.size() > config_.credit_window) {
    protocol_error("credit overrun: " + std::to_string(events.size()) +
                   " events against " + std::to_string(config_.credit_window) +
                   " credit");
    return;
  }
  // The prefix before an event that goes back in time, or past the
  // latest time a session takes, is ingested before the NACK; a failed
  // snapshot has NACKed already.
  const std::size_t pushed = pump_->push(events);
  ingested_ += pushed;
  if (pushed < events.size()) {
    protocol_error(events[pushed].time > aer::kLatestEventTime
                       ? "DATA timestamp out of range"
                       : "non-monotonic DATA timestamp");
    return;
  }
  send_frame(MsgType::kCredit,
             credit_payload(Credit{static_cast<std::uint64_t>(events.size())}));
}

void Connection::handle_snapshot_req() {
  if (state_ != State::kStreaming) {
    protocol_error("SNAPSHOT_REQ before HELLO");
    return;
  }
  if (snapshot_path_.empty()) {
    protocol_error("SNAPSHOT_REQ but the gateway has no snapshot dir");
    return;
  }
  if (!take_snapshot()) return;
  SnapshotAck ack;
  ack.position_ps = session_->position().count_ps();
  ack.blob_bytes = last_snapshot_bytes_;
  send_frame(MsgType::kSnapshotAck, encode_snapshot_ack(ack));
}

bool Connection::take_snapshot() {
  try {
    const std::vector<std::uint8_t> blob = session_->snapshot();
    last_snapshot_bytes_ = blob.size();
    write_blob_atomic(snapshot_path_, blob);
  } catch (const std::exception& e) {
    protocol_error(std::string{"snapshot failed: "} + e.what());
    return false;
  }
  return true;
}

void Connection::finish_session() {
  core::RunResult result;
  try {
    result = session_->finish();
  } catch (const std::exception& e) {
    protocol_error(std::string{"finish failed: "} + e.what());
    return;
  }
  if (!config_.out_dir.empty()) {
    try {
      core::write_run_summary_file(
          config_.out_dir + "/summary-" + name_ + ".txt", result);
    } catch (const std::exception& e) {
      protocol_error(std::string{"summary write failed: "} + e.what());
      return;
    }
  }
  summary_ = core::run_summary_text(result);
  send_frame(MsgType::kSummary, encode_summary(Summary{summary_}));
  send_frame(MsgType::kBye, {});
  state_ = State::kDone;
}

void Connection::drain() {
  if (closed()) return;
  if (state_ == State::kAwaitHello) {
    // Nothing was set up yet; just close.
    state_ = State::kDone;
    return;
  }
  finish_session();
}

}  // namespace aetr::net
