#include "service/merge_client.h"

#include <chrono>
#include <cstdio>
#include <random>
#include <thread>

namespace mlcask::service {

MergeServiceClient::MergeServiceClient(storage::Transport* transport,
                                       std::string tenant)
    : transport_(transport), tenant_(std::move(tenant)) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "mc%08x-",
                static_cast<unsigned>(std::random_device{}()));
  token_prefix_ = buf;
}

std::string MergeServiceClient::NextReplayToken() {
  return token_prefix_ + std::to_string(++token_seq_);
}

StatusOr<SubmitResult> MergeServiceClient::Submit(MergeJobSpec spec) {
  spec.tenant = tenant_;
  auto response =
      transport_->CallOwned(EncodeSubmitRequest(spec, NextReplayToken()));
  MLCASK_RETURN_IF_ERROR(response.status());
  return DecodeSubmitResponse(*response);
}

StatusOr<PollResult> MergeServiceClient::Poll(const std::string& session_id) {
  auto response = transport_->CallOwned(
      EncodeSessionRequest(ServiceOp::kPollMerge, tenant_, session_id));
  MLCASK_RETURN_IF_ERROR(response.status());
  return DecodePollResponse(*response);
}

StatusOr<MergeWinner> MergeServiceClient::Fetch(
    const std::string& session_id) {
  auto response = transport_->CallOwned(
      EncodeSessionRequest(ServiceOp::kFetchWinner, tenant_, session_id));
  MLCASK_RETURN_IF_ERROR(response.status());
  return DecodeWinnerResponse(*response);
}

StatusOr<SessionState> MergeServiceClient::Cancel(
    const std::string& session_id) {
  auto response = transport_->CallOwned(
      EncodeSessionRequest(ServiceOp::kCancelMerge, tenant_, session_id));
  MLCASK_RETURN_IF_ERROR(response.status());
  return DecodeCancelResponse(*response);
}

StatusOr<MergeWinner> MergeServiceClient::AwaitWinner(
    const std::string& session_id, uint64_t poll_interval_ms,
    uint64_t timeout_ms) {
  using Clock = std::chrono::steady_clock;
  const auto give_up =
      timeout_ms > 0 ? Clock::now() + std::chrono::milliseconds(timeout_ms)
                     : Clock::time_point::max();
  for (;;) {
    auto poll = Poll(session_id);
    MLCASK_RETURN_IF_ERROR(poll.status());
    if (IsTerminal(poll->state)) {
      if (poll->state == SessionState::kFailed) {
        // Surface the session's own terminal status, not a generic fetch
        // error: shed/expired sessions resolve typed end to end.
        return Status(poll->error_code, poll->error_message);
      }
      return Fetch(session_id);
    }
    if (Clock::now() >= give_up) {
      return Status::DeadlineExceeded("merge session still " +
                                      std::string(SessionStateName(
                                          poll->state)) +
                                      " after await timeout");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(poll_interval_ms));
  }
}

}  // namespace mlcask::service
