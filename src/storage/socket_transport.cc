#include "storage/socket_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <utility>

namespace mlcask::storage {

namespace {

Status ErrnoStatus(const std::string& what, int err) {
  return Status::Unavailable(what + ": " + std::strerror(err));
}

/// Scatter-gather write of every iovec, restarting on EINTR and advancing
/// through partial writes. MSG_NOSIGNAL: a dead peer must surface as EPIPE,
/// not kill the process with SIGPIPE. Mutates `iov` (offsets advance).
Status SendParts(int fd, std::vector<iovec>* iov) {
  // Linux caps one sendmsg at IOV_MAX (1024) entries; batch in slices.
  constexpr size_t kMaxIov = 1024;
  size_t idx = 0;
  while (idx < iov->size()) {
    msghdr msg{};
    msg.msg_iov = iov->data() + idx;
    msg.msg_iovlen = std::min(iov->size() - idx, kMaxIov);
    ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("socket write failed", errno);
    }
    size_t left = static_cast<size_t>(n);
    while (idx < iov->size() && left >= (*iov)[idx].iov_len) {
      left -= (*iov)[idx].iov_len;
      ++idx;
    }
    if (idx < iov->size() && left > 0) {
      (*iov)[idx].iov_base = static_cast<char*>((*iov)[idx].iov_base) + left;
      (*iov)[idx].iov_len -= left;
    }
  }
  return Status::Ok();
}

iovec MakeIov(const char* data, size_t len) {
  iovec iov;
  iov.iov_base = const_cast<char*>(data);
  iov.iov_len = len;
  return iov;
}

/// Builds a connected or bound socket for `ep`. For servers, `bind_side`
/// binds+listens; for clients it connects.
StatusOr<int> OpenSocket(const Endpoint& ep, bool bind_side) {
  if (ep.kind == Endpoint::Kind::kLoopback) {
    return Status::InvalidArgument(
        "loopback: endpoints have no wire; use LoopbackTransport");
  }
  if (ep.kind == Endpoint::Kind::kUnix) {
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return ErrnoStatus("socket(AF_UNIX)", errno);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, ep.path.c_str(), sizeof(addr.sun_path) - 1);
    if (bind_side) {
      ::unlink(ep.path.c_str());  // a stale file must not wedge restarts
      if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
          ::listen(fd, 64) != 0) {
        Status st = ErrnoStatus("bind/listen " + ep.ToString(), errno);
        ::close(fd);
        return st;
      }
    } else if (::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                         sizeof(addr)) != 0) {
      Status st = ErrnoStatus("connect " + ep.ToString(), errno);
      ::close(fd);
      return st;
    }
    return fd;
  }
  // TCP: resolve host (empty host = 127.0.0.1 for clients, any for servers).
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  if (bind_side) hints.ai_flags = AI_PASSIVE;
  const std::string host =
      !ep.host.empty() ? ep.host : (bind_side ? std::string() : "127.0.0.1");
  const std::string port = std::to_string(ep.port);
  addrinfo* res = nullptr;
  int rc = ::getaddrinfo(host.empty() ? nullptr : host.c_str(), port.c_str(),
                         &hints, &res);
  if (rc != 0) {
    return Status::Unavailable("resolve " + ep.ToString() + ": " +
                               ::gai_strerror(rc));
  }
  Status last = Status::Unavailable("no address for " + ep.ToString());
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last = ErrnoStatus("socket(AF_INET)", errno);
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (bind_side) {
      ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
      if (::bind(fd, ai->ai_addr, ai->ai_addrlen) == 0 &&
          ::listen(fd, 64) == 0) {
        ::freeaddrinfo(res);
        return fd;
      }
    } else if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) {
      ::freeaddrinfo(res);
      return fd;
    }
    last = ErrnoStatus((bind_side ? "bind/listen " : "connect ") +
                           ep.ToString(),
                       errno);
    ::close(fd);
  }
  ::freeaddrinfo(res);
  return last;
}

Status SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return ErrnoStatus("fcntl(O_NONBLOCK)", errno);
  }
  return Status::Ok();
}

}  // namespace

// --------------------------------------------------------------- client ---

StatusOr<std::unique_ptr<SocketTransport>> SocketTransport::Connect(
    const Endpoint& endpoint, Options options) {
  MLCASK_ASSIGN_OR_RETURN(int fd, OpenSocket(endpoint, /*bind_side=*/false));
  return std::unique_ptr<SocketTransport>(
      new SocketTransport(fd, endpoint, std::move(options)));
}

StatusOr<std::unique_ptr<SocketTransport>> SocketTransport::Connect(
    std::string_view spec, Options options) {
  MLCASK_ASSIGN_OR_RETURN(Endpoint ep, Endpoint::Parse(spec));
  return Connect(ep, std::move(options));
}

SocketTransport::SocketTransport(int fd, Endpoint endpoint, Options options)
    : endpoint_(std::move(endpoint)),
      options_(std::move(options)),
      fd_(fd),
      jitter_rng_(options_.redial_jitter_seed != 0
                      ? options_.redial_jitter_seed
                      : std::random_device{}()) {
  reader_ = std::thread([this] { ReaderLoop(); });
}

SocketTransport::~SocketTransport() {
  stopping_.store(true, std::memory_order_release);
  redial_cv_.notify_all();  // wakes a backoff sleep
  {
    // Under write_mu_ so the shutdown hits whichever fd is current — the
    // reader swaps fd_ during redial and checks stopping_ under this lock.
    std::lock_guard<std::mutex> lock(write_mu_);
    ::shutdown(fd_, SHUT_RDWR);  // wakes the reader out of read()
  }
  if (reader_.joinable()) reader_.join();
  ::close(fd_);
  FailAllPending(Status::Unavailable("transport destroyed"));
}

TransportFuture SocketTransport::AsyncCall(std::string_view request) {
  uint64_t unused_id = 0;
  return AsyncCallWithId(request, &unused_id);
}

TransportFuture SocketTransport::AsyncCallWithId(std::string_view request,
                                                 uint64_t* id_out) {
  const uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  *id_out = id;
  std::promise<StatusOr<std::string>> promise;
  TransportFuture future = promise.get_future();
  if (request.size() > options_.max_frame_payload) {
    // Refuse BEFORE framing: an oversized frame would be rejected by the
    // peer's decoder as stream corruption, killing every in-flight call on
    // the session. This way the one offending call gets a clear status and
    // the session lives. (Also guards the u32 length field against >4 GiB
    // truncation — max_frame_payload is a uint32_t.)
    promise.set_value(Status::InvalidArgument(
        "request of " + std::to_string(request.size()) +
        " bytes exceeds the frame payload limit (" +
        std::to_string(options_.max_frame_payload) + ")"));
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.transport_errors += 1;
    return future;
  }
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    if (!broken_.ok()) {
      promise.set_value(broken_);
      std::lock_guard<std::mutex> stats_lock(stats_mu_);
      stats_.transport_errors += 1;
      return future;
    }
    Pending pending;
    pending.promise = std::move(promise);
    // Retained so a redial can replay the call on the fresh connection.
    pending.request.assign(request.data(), request.size());
    pending_.emplace(id, std::move(pending));
  }
  const uint64_t deadline_ms = PeekRequestDeadlineMs(request);
  if (deadline_ms > 0) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.deadline_stamped_calls += 1;
    if (stats_.hop_budgets_ms.size() < TransportStats::kMaxHopBudgetSamples) {
      stats_.hop_budgets_ms.push_back(deadline_ms);
    }
  }
  SendFault fault;
  if (options_.injector != nullptr) fault = options_.injector->OnClientSend();
  if (fault.delay_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(fault.delay_ms));
  }
  Status sent = SendRequest(id, request, fault);
  if (!sent.ok()) {
    if (options_.redial_budget_ms > 0) {
      // Degrade instead of failing: the reader notices the dead connection
      // (the shutdown below guarantees it wakes), redials, and replays this
      // call along with every other pending one.
      std::lock_guard<std::mutex> lock(write_mu_);
      connected_ = false;
      if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
    } else {
      // The peer is gone for everyone, not just this call.
      FailAllPending(sent);
    }
  }
  return future;
}

Status SocketTransport::SendRequest(uint64_t id, std::string_view request,
                                    const SendFault& fault) {
  if (fault.drop_before) {
    // "Frame dropped" on a stream socket: the only honest simulation is
    // killing the connection before the bytes leave — the reader sees EOF,
    // redials, and the replay delivers the request exactly once.
    std::lock_guard<std::mutex> lock(write_mu_);
    if (connected_ && fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
    return Status::Ok();
  }
  if (options_.chunk_threshold > 0 &&
      request.size() >= options_.chunk_threshold) {
    return SendChunked(id, request, fault);
  }
  // Scatter-gather: header + payload leave as one sendmsg, the payload
  // bytes never copied into a frame buffer.
  std::string header;
  AppendFrameHeader(&header, FrameType::kData, id,
                    static_cast<uint32_t>(request.size()));
  if (fault.garble) {
    // Corrupt the length field to an impossible size: the peer's decoder
    // reports Corruption and closes, exercising the redial+replay path
    // with a guaranteed-detectable garble.
    header[10] = header[11] = header[12] = header[13] = '\xff';
  }
  std::vector<iovec> iov;
  iov.push_back(MakeIov(header.data(), header.size()));
  if (!request.empty()) iov.push_back(MakeIov(request.data(), request.size()));
  std::lock_guard<std::mutex> lock(write_mu_);
  if (!connected_) return Status::Ok();  // queued; replay will deliver it
  Status sent = SendParts(fd_, &iov);
  if (sent.ok() && fault.drop_after && fd_ >= 0) {
    // Request delivered, response lost: the replay-ledger scenario.
    ::shutdown(fd_, SHUT_RDWR);
  }
  return sent;
}

Status SocketTransport::SendChunked(uint64_t id, std::string_view payload,
                                    const SendFault& fault) {
  const auto cuts = wire::WireChunker().Split(payload);
  // Hash the chunk addresses for the manifest BEFORE taking the write lock:
  // SHA-256 over megabytes must not serialize other callers' sends.
  Sha256 manifest;
  std::vector<std::string> headers;
  headers.reserve(cuts.size() + 1);
  for (const auto& [offset, length] : cuts) {
    const Hash256 address =
        wire::WireChunkAddress(payload.substr(offset, length));
    manifest.Update(address.bytes.data(), address.bytes.size());
    std::string header;
    AppendFrameHeader(&header, FrameType::kChunk, id,
                      static_cast<uint32_t>(length));
    headers.push_back(std::move(header));
  }
  const std::string end_payload =
      wire::EncodeChunkEnd(payload.size(), cuts.size(), manifest.Finish());
  std::string end_header;
  AppendFrameHeader(&end_header, FrameType::kChunkEnd, id,
                    static_cast<uint32_t>(end_payload.size()));

  std::vector<iovec> iov;
  iov.reserve(cuts.size() * 2 + 2);
  for (size_t i = 0; i < cuts.size(); ++i) {
    iov.push_back(MakeIov(headers[i].data(), headers[i].size()));
    iov.push_back(
        MakeIov(payload.data() + cuts[i].first, cuts[i].second));
  }
  iov.push_back(MakeIov(end_header.data(), end_header.size()));
  iov.push_back(MakeIov(end_payload.data(), end_payload.size()));

  if (fault.garble && !headers.empty()) {
    // Same guaranteed-detectable corruption as the monolithic path.
    headers[0][10] = headers[0][11] = headers[0][12] = headers[0][13] = '\xff';
  }

  Status sent;
  {
    std::lock_guard<std::mutex> lock(write_mu_);
    if (!connected_) return Status::Ok();  // replay will deliver it
    sent = SendParts(fd_, &iov);
    if (sent.ok() && fault.drop_after && fd_ >= 0) {
      ::shutdown(fd_, SHUT_RDWR);
    }
  }
  if (sent.ok()) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.chunk_frames_sent += cuts.size() + 1;
  }
  return sent;
}

StatusOr<std::string> SocketTransport::Call(std::string_view request) {
  // A request stamped with a remaining deadline budget must not be waited
  // on longer than that budget: the blocking wait honors the TIGHTER of the
  // session timeout and the caller's end-to-end deadline.
  uint64_t timeout_ms = options_.call_timeout_ms;
  const uint64_t stamped_ms = PeekRequestDeadlineMs(request);
  if (stamped_ms > 0) {
    timeout_ms = timeout_ms == 0 ? stamped_ms
                                 : std::min(timeout_ms, stamped_ms);
  }
  uint64_t id = 0;
  TransportFuture future = AsyncCallWithId(request, &id);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  return CollectWithDeadline(&future, id, deadline, timeout_ms);
}

std::vector<StatusOr<std::string>> SocketTransport::CallMany(
    const std::vector<std::string>& requests) {
  // Issue everything first (that's the whole point), then collect against
  // ONE shared deadline — the documented call_timeout bounds the batch the
  // same way it bounds a single Call.
  std::vector<uint64_t> ids(requests.size(), 0);
  std::vector<TransportFuture> futures;
  futures.reserve(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    futures.push_back(AsyncCallWithId(requests[i], &ids[i]));
  }
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(options_.call_timeout_ms);
  std::vector<StatusOr<std::string>> responses;
  responses.reserve(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    responses.push_back(CollectWithDeadline(&futures[i], ids[i], deadline,
                                            options_.call_timeout_ms));
  }
  return responses;
}

StatusOr<std::string> SocketTransport::CollectWithDeadline(
    TransportFuture* future, uint64_t id,
    std::chrono::steady_clock::time_point deadline, uint64_t timeout_ms) {
  if (timeout_ms == 0 ||
      future->wait_until(deadline) == std::future_status::ready) {
    return future->get();
  }
  // Deregister the pending call so a LATE response is dropped by the
  // reader instead of being counted as a completed round trip — the caller
  // sees this call fail exactly once, in exactly one stats bucket. If the
  // entry is already gone, the response (or a connection failure) resolved
  // the future between the timeout and this lock: honor that result.
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    if (pending_.erase(id) == 0) return future->get();
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.transport_errors += 1;
  }
  return Status::DeadlineExceeded(
      "call to " + endpoint_.ToString() + " exceeded " +
      std::to_string(timeout_ms) + "ms");
}

void SocketTransport::FailAllPending(const Status& status) {
  std::unordered_map<uint64_t, Pending> orphaned;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    if (broken_.ok()) broken_ = status;
    orphaned.swap(pending_);
  }
  if (!orphaned.empty()) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.transport_errors += orphaned.size();
  }
  for (auto& [id, pending] : orphaned) {
    (void)id;
    pending.promise.set_value(status);
  }
}

void SocketTransport::ReaderLoop() {
  // Session manager: pump frames until the connection dies, then run the
  // recovery state machine (degraded -> redialing -> recovered) and pump
  // the replacement. Terminal only on destruction, redial-budget
  // exhaustion, or consecutive barren sessions (a flapping peer that never
  // delivers a frame must not redial forever).
  constexpr int kMaxBarrenSessions = 8;
  int barren_sessions = 0;
  for (;;) {
    bool delivered = false;
    Status session = PumpSession(&delivered);
    if (stopping_.load(std::memory_order_acquire)) {
      conn_state_.store(ConnState::kFailed, std::memory_order_relaxed);
      FailAllPending(session);
      return;
    }
    if (options_.redial_budget_ms == 0) {
      // Fail-fast mode: first connection loss fails the session.
      conn_state_.store(ConnState::kFailed, std::memory_order_relaxed);
      FailAllPending(session);
      return;
    }
    barren_sessions = delivered ? 0 : barren_sessions + 1;
    if (barren_sessions >= kMaxBarrenSessions) {
      conn_state_.store(ConnState::kFailed, std::memory_order_relaxed);
      FailAllPending(Status::Unavailable(
          "peer " + endpoint_.ToString() + " flapping: " +
          std::to_string(barren_sessions) +
          " consecutive sessions delivered no frame"));
      return;
    }
    conn_state_.store(ConnState::kDegraded, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(write_mu_);
      connected_ = false;
    }
    Status redialed = Redial();
    if (!redialed.ok()) {
      conn_state_.store(ConnState::kFailed, std::memory_order_relaxed);
      FailAllPending(redialed);
      return;
    }
    conn_state_.store(ConnState::kRecovered, std::memory_order_relaxed);
  }
}

Status SocketTransport::PumpSession(bool* delivered) {
  // Fresh decode state per connection: a garble that killed the previous
  // session must not poison this one.
  FrameDecoder decoder(options_.max_frame_payload);
  // Reassembles incoming chunk-streamed responses; reader-thread-only.
  wire::StreamAssembler assembler(options_.max_frame_payload);
  int fd = -1;
  {
    std::lock_guard<std::mutex> lock(write_mu_);
    fd = fd_;
  }
  char buf[64 * 1024];
  for (;;) {
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      Status eof = decoder.Finish();
      return eof.ok() ? Status::Unavailable("peer " + endpoint_.ToString() +
                                            " closed the connection")
                      : eof;
    }
    decoder.Feed(std::string_view(buf, static_cast<size_t>(n)));
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      stats_.peak_decoder_buffer_bytes =
          std::max(stats_.peak_decoder_buffer_bytes,
                   decoder.peak_buffer_bytes());
    }
    for (;;) {
      Frame frame;
      auto next = decoder.Next(&frame);
      if (!next.ok()) {
        // Version skew on a response is still correlated (frozen header):
        // fail that one call with the clear status and keep the stream;
        // anything else is corruption — the stream is untrustworthy.
        if (next.status().code() == StatusCode::kUnimplemented) {
          std::promise<StatusOr<std::string>> waiter;
          bool found = false;
          {
            std::lock_guard<std::mutex> lock(pending_mu_);
            auto it = pending_.find(frame.id);
            if (it != pending_.end()) {
              waiter = std::move(it->second.promise);
              pending_.erase(it);
              found = true;
            }
          }
          if (found) {
            {
              std::lock_guard<std::mutex> lock(stats_mu_);
              stats_.transport_errors += 1;
            }
            *delivered = true;  // the peer answered; session is live
            waiter.set_value(next.status());
          }
          continue;
        }
        return next.status();
      }
      if (!*next) break;  // need more bytes
      if (frame.type == FrameType::kChunk) {
        Status accepted = assembler.OnChunk(frame.id, frame.payload);
        if (!accepted.ok()) {
          // A chunk stream that violates limits means the framing itself
          // can no longer be trusted.
          return accepted;
        }
        std::lock_guard<std::mutex> lock(stats_mu_);
        stats_.chunk_frames_received += 1;
        continue;
      }
      if (frame.type == FrameType::kChunkEnd) {
        auto assembled = assembler.OnEnd(frame.id, frame.payload);
        if (!assembled.ok()) {
          // Manifest mismatch = the stream delivered corrupt bytes.
          return assembled.status();
        }
        {
          std::lock_guard<std::mutex> lock(stats_mu_);
          stats_.chunk_frames_received += 1;
        }
        frame.type = FrameType::kData;
        frame.payload = *std::move(assembled);
        // Falls through to the pending-call resolution below.
      }
      std::promise<StatusOr<std::string>> waiter;
      size_t request_bytes = 0;
      bool found = false;
      {
        std::lock_guard<std::mutex> lock(pending_mu_);
        auto it = pending_.find(frame.id);
        if (it != pending_.end()) {
          waiter = std::move(it->second.promise);
          request_bytes = it->second.request.size();
          pending_.erase(it);
          found = true;
        }
      }
      if (!found) continue;  // response to an abandoned/unknown id
      *delivered = true;
      if (frame.type == FrameType::kError) {
        {
          std::lock_guard<std::mutex> lock(stats_mu_);
          stats_.transport_errors += 1;
        }
        waiter.set_value(DecodeErrorPayload(frame.payload));
        continue;
      }
      {
        // One unit: a reader polling stats never sees a call counted
        // without its bytes (same contract as LoopbackTransport).
        std::lock_guard<std::mutex> lock(stats_mu_);
        stats_.calls += 1;
        stats_.request_bytes += request_bytes;
        stats_.response_bytes += frame.payload.size();
      }
      waiter.set_value(std::move(frame.payload));
    }
  }
}

Status SocketTransport::Redial() {
  conn_state_.store(ConnState::kRedialing, std::memory_order_relaxed);
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(options_.redial_budget_ms);
  // FULL-JITTER exponential backoff: the sleep before each attempt is drawn
  // uniformly from [0, cap], cap doubling per attempt up to 500ms. Pure
  // doubling would march every client orphaned by one server restart back in
  // lockstep — a synchronized retry wave that re-creates the overload.
  uint64_t backoff_cap =
      std::max<uint64_t>(1, options_.redial_initial_backoff_ms);
  Status last = Status::Unavailable("redial never attempted");
  int new_fd = -1;
  for (;;) {
    if (stopping_.load(std::memory_order_acquire)) {
      return Status::Unavailable("transport destroyed");
    }
    auto opened = OpenSocket(endpoint_, /*bind_side=*/false);
    if (opened.ok()) {
      new_fd = *opened;
      break;
    }
    last = opened.status();
    const uint64_t backoff =
        std::uniform_int_distribution<uint64_t>(0, backoff_cap)(jitter_rng_);
    if (std::chrono::steady_clock::now() +
            std::chrono::milliseconds(backoff) >=
        deadline) {
      return Status::Unavailable(
          "redial budget (" + std::to_string(options_.redial_budget_ms) +
          "ms) exhausted for " + endpoint_.ToString() + ": " +
          last.message());
    }
    {
      std::unique_lock<std::mutex> lock(redial_mu_);
      redial_cv_.wait_for(lock, std::chrono::milliseconds(backoff), [this] {
        return stopping_.load(std::memory_order_acquire);
      });
    }
    backoff_cap = std::min<uint64_t>(backoff_cap * 2, 500);
  }
  // Snapshot the calls to replay BEFORE going connected: anything arriving
  // after the swap sends itself; anything in this snapshot is sent below.
  // Correlation-id order preserves the per-connection ordering the 2PC
  // apply phase relies on.
  std::vector<std::pair<uint64_t, std::string>> replay;
  // Calls whose per-call retry budget is spent fail HERE with a typed
  // ResourceExhausted instead of riding yet another connection: under
  // sustained overload, retry amplification must converge, not compound.
  std::vector<std::promise<StatusOr<std::string>>> over_budget;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    replay.reserve(pending_.size());
    for (auto it = pending_.begin(); it != pending_.end();) {
      if (options_.max_call_replays > 0 &&
          it->second.replays >= options_.max_call_replays) {
        over_budget.push_back(std::move(it->second.promise));
        it = pending_.erase(it);
        continue;
      }
      it->second.replays += 1;
      replay.emplace_back(it->first, it->second.request);
      ++it;
    }
  }
  if (!over_budget.empty()) {
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      stats_.transport_errors += over_budget.size();
    }
    const Status spent = Status::ResourceExhausted(
        "retry budget (" + std::to_string(options_.max_call_replays) +
        " replays) spent redialing " + endpoint_.ToString());
    for (auto& waiter : over_budget) waiter.set_value(spent);
  }
  std::sort(replay.begin(), replay.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  {
    std::lock_guard<std::mutex> lock(write_mu_);
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(new_fd);
      return Status::Unavailable("transport destroyed");
    }
    ::close(fd_);
    fd_ = new_fd;
    connected_ = true;
  }
  redials_.fetch_add(1, std::memory_order_relaxed);
  for (const auto& [id, request] : replay) {
    // Replays carry no injected faults — the fault hit the ORIGINAL
    // transmission; recovery must be clean or it is not recovery.
    Status sent = SendRequest(id, request, SendFault{});
    if (!sent.ok()) {
      // The replacement died mid-replay: let the pump observe it and run
      // another redial cycle (bounded by the barren-session cap).
      break;
    }
  }
  return Status::Ok();
}

TransportStats SocketTransport::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

std::string SocketTransport::Name() const {
  return "socket(" + endpoint_.ToString() + ")";
}

namespace {

/// Lock-free high-water-mark update for the admission peak counters.
void StoreMax(std::atomic<uint64_t>* peak, uint64_t value) {
  uint64_t current = peak->load(std::memory_order_relaxed);
  while (value > current &&
         !peak->compare_exchange_weak(current, value,
                                      std::memory_order_relaxed)) {
  }
}

}  // namespace

// --------------------------------------------------------------- server ---

StatusOr<std::unique_ptr<SocketTransportServer>> SocketTransportServer::Bind(
    const Endpoint& endpoint, Options options) {
  MLCASK_ASSIGN_OR_RETURN(int fd, OpenSocket(endpoint, /*bind_side=*/true));
  Endpoint bound = endpoint;
  if (bound.kind == Endpoint::Kind::kTcp && bound.port == 0) {
    sockaddr_in addr{};
    socklen_t len = sizeof(addr);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
      bound.port = ntohs(addr.sin_port);
    }
  }
  if (bound.kind == Endpoint::Kind::kTcp && bound.host.empty()) {
    bound.host = "127.0.0.1";  // the spec clients should dial
  }
  return std::unique_ptr<SocketTransportServer>(
      new SocketTransportServer(fd, std::move(bound), std::move(options)));
}

StatusOr<std::unique_ptr<SocketTransportServer>> SocketTransportServer::Bind(
    std::string_view spec, Options options) {
  MLCASK_ASSIGN_OR_RETURN(Endpoint ep, Endpoint::Parse(spec));
  return Bind(ep, std::move(options));
}

SocketTransportServer::SocketTransportServer(int listen_fd, Endpoint endpoint,
                                             Options options)
    : endpoint_(std::move(endpoint)),
      options_(std::move(options)),
      listen_fd_(listen_fd),
      chunk_cache_(options_.chunk_cache_bytes) {}

SocketTransportServer::~SocketTransportServer() { Shutdown(); }

Status SocketTransportServer::Serve(TransportHandler handler) {
  if (handler == nullptr) {
    return Status::InvalidArgument("Serve needs a handler");
  }
  ServerState expected = ServerState::kInitial;
  if (!state_.compare_exchange_strong(expected, ServerState::kStarting,
                                      std::memory_order_acq_rel)) {
    return expected == ServerState::kStarting ||
                   expected == ServerState::kStarted
               ? Status::FailedPrecondition("server already serving")
               : Status::FailedPrecondition("server shut down");
  }
  handler_ = std::move(handler);
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  Status up = Status::Ok();
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    up = ErrnoStatus("epoll/eventfd setup failed", errno);
  }
  if (up.ok()) up = SetNonBlocking(listen_fd_);
  if (up.ok()) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = listen_fd_;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) != 0) {
      up = ErrnoStatus("epoll_ctl(listen)", errno);
    }
    ev.data.fd = wake_fd_;
    if (up.ok() &&
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) {
      up = ErrnoStatus("epoll_ctl(wake)", errno);
    }
  }
  if (!up.ok()) {
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    if (wake_fd_ >= 0) ::close(wake_fd_);
    epoll_fd_ = wake_fd_ = -1;
    state_.store(ServerState::kStopped, std::memory_order_release);
    return up;
  }
  loop_thread_ = std::thread([this] { LoopThread(); });
  const size_t workers = std::max<size_t>(1, options_.worker_threads);
  workers_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerThread(); });
  }
  state_.store(ServerState::kStarted, std::memory_order_release);
  return Status::Ok();
}

void SocketTransportServer::LoopThread() {
  epoll_event events[64];
  while (!stop_.load(std::memory_order_acquire)) {
    int n = ::epoll_wait(epoll_fd_, events, 64, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        uint64_t drained = 0;
        while (::read(wake_fd_, &drained, sizeof(drained)) > 0) {
        }
        continue;  // queued flushes run below
      }
      if (fd == listen_fd_) {
        AcceptReady();
        continue;
      }
      auto it = connections_.find(fd);
      if (it == connections_.end()) continue;  // closed earlier this batch
      std::shared_ptr<Connection> connection = it->second;
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0 &&
          (events[i].events & EPOLLIN) == 0) {
        CloseConnection(connection);
        continue;
      }
      if ((events[i].events & EPOLLIN) != 0) {
        ReadReady(connection);
      }
      if ((events[i].events & EPOLLOUT) != 0 &&
          connections_.count(fd) != 0) {
        if (!FlushConnection(connection)) CloseConnection(connection);
      }
    }
    // Worker-produced responses queued since the last pass.
    std::vector<std::shared_ptr<Connection>> ready;
    {
      std::lock_guard<std::mutex> lock(notify_mu_);
      ready.swap(notify_);
    }
    for (const auto& connection : ready) {
      if (!FlushConnection(connection)) CloseConnection(connection);
    }
  }
  // Teardown: retire every connection. Marking closed under the lock makes
  // late worker output a silent drop instead of a write to a recycled fd.
  for (auto& [fd, connection] : connections_) {
    {
      std::lock_guard<std::mutex> lock(connection->mu);
      connection->closed = true;
      connection->fd = -1;
      connection->outbox.clear();
    }
    ::close(fd);
  }
  connections_.clear();
}

void SocketTransportServer::AcceptReady() {
  for (;;) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN (drained) or listen socket closed
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    auto connection =
        std::make_shared<Connection>(options_.max_frame_payload, &chunk_cache_);
    connection->fd = fd;
    connection->epoll_events = EPOLLIN;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      continue;
    }
    connections_.emplace(fd, std::move(connection));
  }
}

void SocketTransportServer::ReadReady(
    const std::shared_ptr<Connection>& connection) {
  char buf[64 * 1024];
  for (;;) {
    ssize_t n = ::recv(connection->fd, buf, sizeof(buf), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      CloseConnection(connection);
      return;
    }
    if (n == 0) {
      CloseConnection(connection);
      return;
    }
    connection->decoder.Feed(std::string_view(buf, static_cast<size_t>(n)));
    for (;;) {
      Frame frame;
      auto next = connection->decoder.Next(&frame);
      if (!next.ok()) {
        if (next.status().code() == StatusCode::kUnimplemented) {
          // Version skew, id recovered from the frozen header: tell the
          // exact caller why with an ERROR frame, then keep serving — one
          // message in another version must not take down the session.
          OutPart part;
          AppendFrame(&part.header, FrameType::kError, frame.id,
                      EncodeErrorPayload(next.status()));
          {
            std::lock_guard<std::mutex> lock(connection->mu);
            connection->outbox.push_back(std::move(part));
          }
          if (!FlushConnection(connection)) {
            CloseConnection(connection);
            return;
          }
          continue;
        }
        // Garbled stream: nothing correlatable to answer. Closing fails the
        // peer's pending calls as Unavailable instead of hanging them.
        CloseConnection(connection);
        return;
      }
      if (!*next) break;  // need more bytes
      if (frame.type == FrameType::kError) continue;  // clients never send
      const size_t payload_bytes = frame.payload.size();
      if (frame.type == FrameType::kData) {
        // Admission control: a DATA frame past any queue cap is shed HERE —
        // answered immediately with a typed ResourceExhausted ERROR frame,
        // never queued, handler never run — so queue depth and memory stay
        // bounded no matter how far offered load exceeds capacity. Chunk
        // frames are exempt (dropping one mid-stream would corrupt
        // reassembly); their memory is bounded by the assembler's limits.
        bool shed =
            (options_.max_queued_jobs > 0 &&
             queued_jobs_.load(std::memory_order_relaxed) >=
                 options_.max_queued_jobs) ||
            (options_.max_queued_bytes > 0 &&
             queued_bytes_.load(std::memory_order_relaxed) + payload_bytes >
                 options_.max_queued_bytes);
        if (!shed) {
          std::lock_guard<std::mutex> lock(connection->mu);
          shed = (options_.max_conn_queued_jobs > 0 &&
                  connection->jobs.size() >= options_.max_conn_queued_jobs) ||
                 (options_.max_conn_queued_bytes > 0 &&
                  connection->queued_bytes + payload_bytes >
                      options_.max_conn_queued_bytes);
        }
        if (shed) {
          shed_jobs_.fetch_add(1, std::memory_order_relaxed);
          OutPart part;
          AppendFrame(&part.header, FrameType::kError, frame.id,
                      EncodeErrorPayload(Status::ResourceExhausted(
                          "server admission queue full")));
          {
            std::lock_guard<std::mutex> lock(connection->mu);
            connection->outbox.push_back(std::move(part));
          }
          if (!FlushConnection(connection)) {
            CloseConnection(connection);
            return;
          }
          continue;
        }
      }
      bool schedule = false;
      {
        std::lock_guard<std::mutex> lock(connection->mu);
        Job job;
        job.type = frame.type;
        job.id = frame.id;
        job.payload = std::move(frame.payload);
        job.enqueued = std::chrono::steady_clock::now();
        connection->jobs.push_back(std::move(job));
        connection->queued_bytes += payload_bytes;
        if (!connection->job_active) {
          // Claim the strand: exactly one worker drains this connection's
          // jobs at a time, so requests are handled in arrival order.
          connection->job_active = true;
          schedule = true;
        }
      }
      const uint64_t jobs_now =
          queued_jobs_.fetch_add(1, std::memory_order_relaxed) + 1;
      const uint64_t bytes_now =
          queued_bytes_.fetch_add(payload_bytes, std::memory_order_relaxed) +
          payload_bytes;
      StoreMax(&peak_queued_jobs_, jobs_now);
      StoreMax(&peak_queued_bytes_, bytes_now);
      if (schedule) {
        std::lock_guard<std::mutex> lock(work_mu_);
        work_queue_.push_back(connection);
        work_cv_.notify_one();
      }
    }
    if (n < static_cast<ssize_t>(sizeof(buf))) return;  // drained for now
  }
}

bool SocketTransportServer::FlushConnection(
    const std::shared_ptr<Connection>& connection) {
  std::lock_guard<std::mutex> lock(connection->mu);
  if (connection->closed || connection->fd < 0) return true;
  while (!connection->outbox.empty()) {
    // Gather up to 64 parts per sendmsg: header and payload slices go to
    // the kernel as they are, never coalesced into a staging buffer.
    iovec iov[64];
    size_t niov = 0;
    for (const OutPart& part : connection->outbox) {
      if (niov >= 63) break;
      if (part.header_off < part.header.size()) {
        iov[niov++] = MakeIov(part.header.data() + part.header_off,
                              part.header.size() - part.header_off);
      }
      if (part.body != nullptr && part.body_len > 0) {
        iov[niov++] = MakeIov(part.body->data() + part.body_off,
                              part.body_len);
      }
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = niov;
    ssize_t n = ::sendmsg(connection->fd, &msg, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // Kernel buffer full: arm EPOLLOUT and resume when writable.
        if ((connection->epoll_events & EPOLLOUT) == 0) {
          connection->epoll_events = EPOLLIN | EPOLLOUT;
          epoll_event ev{};
          ev.events = connection->epoll_events;
          ev.data.fd = connection->fd;
          ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, connection->fd, &ev);
        }
        return true;
      }
      return false;  // peer gone: caller retires the connection
    }
    size_t left = static_cast<size_t>(n);
    while (!connection->outbox.empty()) {
      OutPart& part = connection->outbox.front();
      size_t take =
          std::min(left, part.header.size() - part.header_off);
      part.header_off += take;
      left -= take;
      if (part.header_off < part.header.size()) break;
      if (part.body != nullptr) {
        take = std::min(left, part.body_len);
        part.body_off += take;
        part.body_len -= take;
        left -= take;
        if (part.body_len > 0) break;
      }
      connection->outbox.pop_front();
      if (left == 0) break;
    }
  }
  if ((connection->epoll_events & EPOLLOUT) != 0) {
    connection->epoll_events = EPOLLIN;
    epoll_event ev{};
    ev.events = connection->epoll_events;
    ev.data.fd = connection->fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, connection->fd, &ev);
  }
  return true;
}

void SocketTransportServer::CloseConnection(
    const std::shared_ptr<Connection>& connection) {
  int fd = -1;
  {
    std::lock_guard<std::mutex> lock(connection->mu);
    if (connection->closed) return;
    connection->closed = true;
    fd = connection->fd;
    connection->fd = -1;
    connection->outbox.clear();
  }
  if (fd < 0) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  connections_.erase(fd);
}

void SocketTransportServer::AbortConnection(
    const std::shared_ptr<Connection>& connection) {
  // Workers never close fds (the loop owns them); a half-close makes the
  // loop observe EOF and retire the connection on its own thread.
  std::lock_guard<std::mutex> lock(connection->mu);
  if (!connection->closed && connection->fd >= 0) {
    ::shutdown(connection->fd, SHUT_RDWR);
  }
}

void SocketTransportServer::WorkerThread() {
  for (;;) {
    std::shared_ptr<Connection> connection;
    {
      std::unique_lock<std::mutex> lock(work_mu_);
      work_cv_.wait(lock, [this] {
        return workers_stop_ || !work_queue_.empty();
      });
      if (work_queue_.empty()) return;  // stopping and drained
      connection = std::move(work_queue_.front());
      work_queue_.pop_front();
    }
    // Drain this connection's strand: one worker at a time, arrival order.
    for (;;) {
      Job job;
      {
        std::lock_guard<std::mutex> lock(connection->mu);
        if (connection->jobs.empty()) {
          connection->job_active = false;
          break;
        }
        // Jobs of a CLOSED connection still execute: the request was
        // delivered in full, so the peer may legitimately believe it
        // happened — dropping it here would turn a lost RESPONSE into a
        // lost WRITE. Executing it lands the mutation and records it in
        // the replay ledger, so the peer's redial replay gets the recorded
        // answer instead of a second application. Only the response is
        // discarded (EnqueueResponse is a no-op once closed).
        job = std::move(connection->jobs.front());
        connection->jobs.pop_front();
        connection->queued_bytes -= job.payload.size();
      }
      queued_jobs_.fetch_sub(1, std::memory_order_relaxed);
      queued_bytes_.fetch_sub(job.payload.size(), std::memory_order_relaxed);
      ProcessJob(connection, std::move(job));
    }
  }
}

void SocketTransportServer::ProcessJob(
    const std::shared_ptr<Connection>& connection, Job job) {
  if (job.type == FrameType::kChunk) {
    Status accepted = connection->assembler.OnChunk(job.id, job.payload);
    if (!accepted.ok()) AbortConnection(connection);
    return;
  }
  if (job.type == FrameType::kChunkEnd) {
    auto assembled = connection->assembler.OnEnd(job.id, job.payload);
    if (!assembled.ok()) {
      // Bad manifest/bookkeeping: the stream delivered corrupt bytes, and
      // there is no trustworthy way to keep decoding it.
      AbortConnection(connection);
      return;
    }
    job.payload = *std::move(assembled);
  }
  // Deadline check at dequeue: a request whose remaining budget was spent
  // while it sat in the queue is dropped UNEXECUTED with a typed
  // DeadlineExceeded — running it would burn a worker on an answer the
  // caller has already abandoned, and (for mutations) would claim a replay
  // ledger slot for a response nobody collects. The caller's own deadline
  // already fired client-side; this keeps the server's goodput honest.
  const uint64_t deadline_ms = PeekRequestDeadlineMs(job.payload);
  if (deadline_ms > 0) {
    const auto waited_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - job.enqueued)
            .count();
    if (waited_ms >= 0 && static_cast<uint64_t>(waited_ms) >= deadline_ms) {
      expired_jobs_.fetch_add(1, std::memory_order_relaxed);
      EnqueueError(connection, job.id,
                   Status::DeadlineExceeded(
                       "request deadline expired in the admission queue"));
      return;
    }
  }
  if (options_.injector != nullptr) {
    JobFault fault = options_.injector->OnServerJob(job.payload.size());
    if (fault.kill) {
      // The chaos "kill -9 mid-2PC": nothing is flushed, no destructor
      // runs — indistinguishable from a power cut on this shard.
      ::kill(::getpid(), SIGKILL);
    }
    if (fault.delay_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(fault.delay_ms));
    }
  }
  std::string response = handler_(job.payload);
  EnqueueResponse(connection, job.id, std::move(response));
}

void SocketTransportServer::EnqueueResponse(
    const std::shared_ptr<Connection>& connection, uint64_t id,
    std::string response) {
  std::vector<OutPart> parts;
  if (response.size() > options_.max_frame_payload) {
    // Same refusal as the client side: an oversized frame would read as
    // stream corruption at the peer and kill its whole session.
    OutPart part;
    AppendFrame(&part.header, FrameType::kError, id,
                EncodeErrorPayload(Status::FailedPrecondition(
                    "response of " + std::to_string(response.size()) +
                    " bytes exceeds the frame payload limit")));
    parts.push_back(std::move(part));
  } else if (options_.chunk_threshold > 0 &&
             response.size() >= options_.chunk_threshold) {
    // Stream the response: all chunk parts reference ONE shared buffer.
    auto body = std::make_shared<const std::string>(std::move(response));
    const auto cuts = wire::WireChunker().Split(*body);
    Sha256 manifest;
    parts.reserve(cuts.size() + 1);
    for (const auto& [offset, length] : cuts) {
      const Hash256 address = wire::WireChunkAddress(
          std::string_view(body->data() + offset, length));
      manifest.Update(address.bytes.data(), address.bytes.size());
      OutPart part;
      AppendFrameHeader(&part.header, FrameType::kChunk, id,
                        static_cast<uint32_t>(length));
      part.body = body;
      part.body_off = offset;
      part.body_len = length;
      parts.push_back(std::move(part));
    }
    const std::string end_payload =
        wire::EncodeChunkEnd(body->size(), cuts.size(), manifest.Finish());
    OutPart end;
    AppendFrame(&end.header, FrameType::kChunkEnd, id, end_payload);
    parts.push_back(std::move(end));
  } else {
    OutPart part;
    AppendFrameHeader(&part.header, FrameType::kData, id,
                      static_cast<uint32_t>(response.size()));
    const size_t length = response.size();
    part.body = std::make_shared<const std::string>(std::move(response));
    part.body_off = 0;
    part.body_len = length;
    parts.push_back(std::move(part));
  }
  {
    std::lock_guard<std::mutex> lock(connection->mu);
    if (connection->closed) return;
    for (OutPart& part : parts) {
      connection->outbox.push_back(std::move(part));
    }
  }
  NotifyWritable(connection);
}

void SocketTransportServer::EnqueueError(
    const std::shared_ptr<Connection>& connection, uint64_t id,
    const Status& status) {
  OutPart part;
  AppendFrame(&part.header, FrameType::kError, id, EncodeErrorPayload(status));
  {
    std::lock_guard<std::mutex> lock(connection->mu);
    if (connection->closed) return;
    connection->outbox.push_back(std::move(part));
  }
  NotifyWritable(connection);
}

void SocketTransportServer::NotifyWritable(
    std::shared_ptr<Connection> connection) {
  {
    std::lock_guard<std::mutex> lock(notify_mu_);
    notify_.push_back(std::move(connection));
  }
  uint64_t one = 1;
  ssize_t written = ::write(wake_fd_, &one, sizeof(one));
  (void)written;  // eventfd writes only fail when shutting down
}

void SocketTransportServer::Shutdown() {
  for (;;) {
    ServerState state = state_.load(std::memory_order_acquire);
    if (state == ServerState::kStopped) return;
    if (state == ServerState::kInitial) {
      if (state_.compare_exchange_strong(state, ServerState::kStopped,
                                         std::memory_order_acq_rel)) {
        CloseListener();
        return;
      }
      continue;
    }
    if (state == ServerState::kStarted) {
      if (state_.compare_exchange_strong(state, ServerState::kStopping,
                                         std::memory_order_acq_rel)) {
        break;  // this thread performs the teardown
      }
      continue;
    }
    // kStarting (Serve mid-flight) or kStopping (another thread tearing
    // down): wait for the transition to settle.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  stop_.store(true, std::memory_order_release);
  uint64_t one = 1;
  ssize_t written = ::write(wake_fd_, &one, sizeof(one));
  (void)written;
  if (loop_thread_.joinable()) loop_thread_.join();
  // Refuse new connections BEFORE draining the workers: a redialing client
  // must see its connect() fail, not land in the backlog of a listener
  // nobody will accept from again and hang there until the drain ends.
  CloseListener();
  {
    std::lock_guard<std::mutex> lock(work_mu_);
    workers_stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  wake_fd_ = epoll_fd_ = -1;
  state_.store(ServerState::kStopped, std::memory_order_release);
}

void SocketTransportServer::CloseListener() {
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (endpoint_.kind == Endpoint::Kind::kUnix) {
    ::unlink(endpoint_.path.c_str());
  }
}

}  // namespace mlcask::storage
