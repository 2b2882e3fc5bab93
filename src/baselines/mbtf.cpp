#include "baselines/mbtf.h"

#include <algorithm>

#include "snapshot/io.h"
#include "util/check.h"

namespace asyncmac::baselines {

std::unique_ptr<sim::Protocol> MbtfProtocol::clone() const {
  return std::make_unique<MbtfProtocol>(*this);
}

void MbtfProtocol::ensure_init(const sim::StationContext& ctx) {
  if (!list_.empty()) return;
  list_.resize(ctx.n());
  for (std::uint32_t i = 0; i < ctx.n(); ++i)
    list_[i] = static_cast<StationId>(i + 1);
}

StationId MbtfProtocol::holder() const {
  AM_CHECK(!list_.empty());
  return list_[token_];
}

void MbtfProtocol::sequence_ended(const sim::StationContext& ctx) {
  const bool big = seq_len_ >= ctx.n();
  const StationId h = list_[token_];
  const std::size_t next_index = (token_ + 1) % list_.size();
  const StationId successor = list_[next_index];
  if (big && seq_len_ > 0) {
    // Move the big holder to the front; the token continues with the
    // holder's old successor, whose index may have shifted by the move.
    list_.erase(list_.begin() +
                static_cast<std::vector<StationId>::difference_type>(token_));
    list_.insert(list_.begin(), h);
  }
  token_ = static_cast<std::size_t>(
      std::find(list_.begin(), list_.end(), successor) - list_.begin());
  AM_CHECK(token_ < list_.size());
  seq_len_ = 0;
}

SlotAction MbtfProtocol::next_action(const std::optional<sim::SlotResult>& prev,
                                     sim::StationContext& ctx) {
  ensure_init(ctx);
  if (prev) {
    if (prev->feedback == Feedback::kSilence) {
      sequence_ended(ctx);
    } else {
      ++seq_len_;
    }
  }
  if (list_[token_] == ctx.id() && !ctx.queue_empty())
    return SlotAction::kTransmitPacket;
  return SlotAction::kListen;
}

void MbtfProtocol::save_state(snapshot::Writer& w) const {
  w.u64(list_.size());
  for (StationId s : list_) w.u32(s);
  w.u64(token_);
  w.u64(seq_len_);
}

void MbtfProtocol::load_state(snapshot::Reader& r, sim::StationContext&) {
  const std::uint64_t count = r.count(4);
  list_.clear();
  list_.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) list_.push_back(r.u32());
  token_ = static_cast<std::size_t>(r.u64());
  seq_len_ = r.u64();
}

}  // namespace asyncmac::baselines
