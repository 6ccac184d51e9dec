#include "net/client.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "obs/obs.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace pslocal::net {

namespace {

const obs::Counter g_sent("net.client.requests_sent");
const obs::Counter g_retries("net.client.retries");
const obs::Histogram g_rtt_ns("net.rtt_ns");

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  PSL_CHECK_MSG(flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
                "net: fcntl(O_NONBLOCK) failed: " << std::strerror(errno));
}

/// Remaining milliseconds of a deadline expressed as an absolute ns
/// timestamp; 0 once passed.
int remaining_ms(std::uint64_t deadline_ns) {
  const std::uint64_t now = now_ns();
  if (now >= deadline_ns) return 0;
  const std::uint64_t ms = (deadline_ns - now) / 1000000;
  return ms > 60'000'000 ? 60'000'000 : static_cast<int>(ms) + 1;
}

}  // namespace

Client::Client(Config config)
    : config_(std::move(config)),
      decoder_(config_.max_payload == 0 ? wire::kMaxPayload
                                        : config_.max_payload) {}

Client::~Client() { close(); }

Client::Client(Client&& other) noexcept
    : config_(std::move(other.config_)),
      fd_(std::exchange(other.fd_, -1)),
      decoder_(std::move(other.decoder_)),
      next_id_(other.next_id_),
      inflight_sent_(std::move(other.inflight_sent_)),
      parked_(std::move(other.parked_)) {}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    close();
    config_ = std::move(other.config_);
    fd_ = std::exchange(other.fd_, -1);
    decoder_ = std::move(other.decoder_);
    next_id_ = other.next_id_;
    inflight_sent_ = std::move(other.inflight_sent_);
    parked_ = std::move(other.parked_);
  }
  return *this;
}

void Client::connect() {
  if (fd_ >= 0) return;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  PSL_CHECK_MSG(fd >= 0, "net: socket failed: " << std::strerror(errno));
  set_nonblocking(fd);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    PSL_CHECK_MSG(false, "net: invalid host '" << config_.host << "'");
  }
  const int rc =
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
  if (rc != 0 && errno != EINPROGRESS) {
    const std::string why = std::strerror(errno);
    ::close(fd);
    PSL_CHECK_MSG(false, "net: connect " << config_.host << ":"
                                         << config_.port << " failed: " << why);
  }
  if (rc != 0) {
    const std::uint64_t deadline =
        now_ns() +
        static_cast<std::uint64_t>(config_.connect_timeout_ms) * 1000000ULL;
    pollfd pfd{fd, POLLOUT, 0};
    int ready;
    for (;;) {
      ready = ::poll(&pfd, 1, remaining_ms(deadline));
      if (ready < 0 && errno == EINTR) continue;  // signal: re-poll remainder
      break;
    }
    int soerr = 0;
    socklen_t len = sizeof soerr;
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soerr, &len);
    if (ready <= 0 || soerr != 0) {
      ::close(fd);
      PSL_CHECK_MSG(false, "net: connect " << config_.host << ":"
                                           << config_.port << " failed: "
                                           << (ready <= 0
                                                   ? "timeout"
                                                   : std::strerror(soerr)));
    }
  }
  fd_ = fd;
}

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  inflight_sent_.clear();
  parked_.clear();
}

const char* Client::outcome_name(Outcome o) {
  switch (o) {
    case Outcome::kOk: return "ok";
    case Outcome::kRejected: return "rejected";
    case Outcome::kError: return "error";
    case Outcome::kNack: return "nack";
    case Outcome::kTimeout: return "timeout";
    case Outcome::kTransport: return "transport";
  }
  return "unknown";
}

std::uint64_t Client::send(const service::Request& request) {
  PSL_CHECK_MSG(fd_ >= 0, "net: send on a disconnected client");
  const std::uint64_t id = next_id_++;
  wire::Frame frame;
  frame.kind = wire::FrameKind::kRequest;
  frame.request_id = id;
  frame.payload = wire::encode_request(request);
  // Trace context rides the frame header: an explicit per-request id
  // wins, else the ambient obs context (the enclosing ScopedSpan /
  // ScopedTraceContext); both are zero when untraced.
  const obs::TraceContext ctx = obs::current_trace_context();
  frame.trace_id = request.trace_id != 0 ? request.trace_id : ctx.trace_id;
  frame.parent_span_id =
      request.parent_span_id != 0 ? request.parent_span_id : ctx.span_id;
  // The QoS tenant id rides the header's payload-region prefix; an
  // empty tenant leaves the frame bytes identical to pre-QoS senders.
  frame.tenant = request.tenant;
  write_bytes(wire::encode_frame(frame));
  inflight_sent_[id] = now_ns();
  g_sent.add();
  return id;
}

Client::Result Client::stats(int timeout_ms) {
  PSL_CHECK_MSG(fd_ >= 0, "net: stats on a disconnected client");
  const std::uint64_t id = next_id_++;
  wire::Frame frame;
  frame.kind = wire::FrameKind::kStatsRequest;
  frame.request_id = id;
  const obs::TraceContext ctx = obs::current_trace_context();
  frame.trace_id = ctx.trace_id;
  frame.parent_span_id = ctx.span_id;
  write_bytes(wire::encode_frame(frame));
  inflight_sent_[id] = now_ns();
  return wait(id, timeout_ms);
}

void Client::write_bytes(const std::string& bytes) {
  const std::uint64_t deadline =
      now_ns() +
      static_cast<std::uint64_t>(config_.io_timeout_ms) * 1000000ULL;
  std::size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + written,
                             bytes.size() - written, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        pollfd pfd{fd_, POLLOUT, 0};
        const int ready = ::poll(&pfd, 1, remaining_ms(deadline));
        if (ready < 0 && errno == EINTR) continue;  // deadline still applies
        PSL_CHECK_MSG(ready >= 0,
                      "net: poll failed: " << std::strerror(errno));
        PSL_CHECK_MSG(ready > 0, "net: send timed out");
        continue;
      }
      PSL_CHECK_MSG(false, "net: send failed: " << std::strerror(errno));
    }
    written += static_cast<std::size_t>(n);
  }
}

Client::Result Client::finish(std::uint64_t id, const wire::Frame& frame,
                              std::uint64_t arrived_ns) {
  Result result;
  result.trace_id = frame.trace_id;
  const auto sent_it = inflight_sent_.find(id);
  if (sent_it != inflight_sent_.end()) {
    result.rtt_ns = arrived_ns - sent_it->second;
    g_rtt_ns.record(result.rtt_ns, frame.trace_id);
    inflight_sent_.erase(sent_it);
  }
  std::string error;
  if (frame.kind == wire::FrameKind::kResponse) {
    if (!wire::decode_response(frame.payload, result.response, &error)) {
      result.outcome = Outcome::kTransport;
      result.error = "bad response payload: " + error;
      close();
      return result;
    }
    result.response.id = id;
    result.response.total_ns = result.rtt_ns;
    switch (result.response.status) {
      case service::Response::Status::kOk: result.outcome = Outcome::kOk; break;
      case service::Response::Status::kRejected:
        result.outcome = Outcome::kRejected;
        break;
      case service::Response::Status::kError:
        result.outcome = Outcome::kError;
        break;
    }
    return result;
  }
  if (frame.kind == wire::FrameKind::kNack) {
    if (!wire::decode_nack(frame.payload, result.nack_code, &error,
                           &result.retry_after_us)) {
      result.outcome = Outcome::kTransport;
      result.error = "bad nack payload: " + error;
      close();
      return result;
    }
    result.outcome = Outcome::kNack;
    return result;
  }
  if (frame.kind == wire::FrameKind::kStatsResponse) {
    result.outcome = Outcome::kOk;
    result.stats_json = frame.payload;
    return result;
  }
  result.outcome = Outcome::kTransport;
  result.error = "server sent a request frame";
  close();
  return result;
}

Client::Result Client::await_frame(std::uint64_t id, int timeout_ms) {
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(timeout_ms) * 1000000ULL;
  for (;;) {
    // A frame for `id` may already be parked or buffered.
    const auto parked_it = parked_.find(id);
    if (parked_it != parked_.end()) {
      Parked parked = std::move(parked_it->second);
      parked_.erase(parked_it);
      return finish(id, parked.frame, parked.arrived_ns);
    }
    wire::Frame frame;
    const auto dec = decoder_.next(frame);
    if (dec == wire::FrameDecoder::Result::kCorrupt) {
      Result result;
      result.outcome = Outcome::kTransport;
      result.error = "corrupt stream: " + decoder_.error();
      close();
      return result;
    }
    if (dec == wire::FrameDecoder::Result::kFrame) {
      const std::uint64_t arrived = now_ns();
      if (frame.request_id == id) return finish(id, frame, arrived);
      parked_[frame.request_id] = {std::move(frame), arrived};
      continue;
    }

    // Poll before the deadline check: even at a 0ms budget (try_wait)
    // one non-blocking readiness probe runs, so bytes the kernel already
    // holds are pumped into the decoder instead of being starved.
    const int wait_ms = remaining_ms(deadline);
    pollfd pfd{fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, wait_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      Result result;
      result.outcome = Outcome::kTransport;
      result.error = std::string("poll failed: ") + std::strerror(errno);
      close();
      return result;
    }
    if (ready == 0) {
      if (remaining_ms(deadline) == 0) {
        Result result;
        result.outcome = Outcome::kTimeout;
        return result;
      }
      continue;
    }

    char buf[64 * 1024];
    const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
    if (n == 0) {
      Result result;
      result.outcome = Outcome::kTransport;
      result.error = "server closed the connection";
      close();
      return result;
    }
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      Result result;
      result.outcome = Outcome::kTransport;
      result.error = std::string("recv failed: ") + std::strerror(errno);
      close();
      return result;
    }
    decoder_.feed(buf, static_cast<std::size_t>(n));
  }
}

Client::Result Client::wait(std::uint64_t id, int timeout_ms) {
  PSL_CHECK_MSG(fd_ >= 0, "net: wait on a disconnected client");
  return await_frame(id, timeout_ms < 0 ? config_.io_timeout_ms : timeout_ms);
}

Client::Result Client::try_wait(std::uint64_t id) {
  PSL_CHECK_MSG(fd_ >= 0, "net: try_wait on a disconnected client");
  return await_frame(id, 0);
}

Client::Result Client::call(const service::Request& request, int timeout_ms) {
  const std::uint64_t id = send(request);
  return wait(id, timeout_ms);
}

std::vector<std::uint64_t> Client::backoff_delays_us(
    const RetryPolicy& policy, std::size_t retries) {
  std::vector<std::uint64_t> delays;
  delays.reserve(retries);
  Rng rng(policy.seed);
  for (std::size_t r = 0; r < retries; ++r) {
    // base << r, saturating at the cap (r is clamped well before the
    // shift could overflow a plausible base delay).
    std::uint64_t d = r < 20 ? policy.base_delay_us << r : policy.max_delay_us;
    if (d > policy.max_delay_us) d = policy.max_delay_us;
    const std::uint64_t half = d / 2;
    delays.push_back(half + rng.next_below(half + 1));
  }
  return delays;
}

Client::Result Client::call_with_retry(const service::Request& request,
                                       const RetryPolicy& policy,
                                       int timeout_ms) {
  PSL_EXPECTS(policy.max_attempts >= 1);
  const std::vector<std::uint64_t> delays =
      backoff_delays_us(policy, policy.max_attempts - 1);
  Result result;
  for (std::uint32_t attempt = 0; attempt < policy.max_attempts; ++attempt) {
    result = call(request, timeout_ms);
    result.attempts = attempt + 1;
    const bool retryable =
        result.outcome == Outcome::kNack &&
        (result.nack_code == wire::NackCode::kQueueFull ||
         result.nack_code == wire::NackCode::kShedRetryAfter);
    if (!retryable || attempt + 1 == policy.max_attempts) return result;
    g_retries.add();
    // Honor the server's shed hint: it names the instant a token (or
    // queue slot) exists, so sleeping less just buys another NACK.
    const std::uint64_t sleep_us =
        std::max(delays[attempt], result.retry_after_us);
    std::this_thread::sleep_for(std::chrono::microseconds(sleep_us));
  }
  return result;
}

}  // namespace pslocal::net
