#include "baselines/mbtf.h"

#include <algorithm>

#include "snapshot/state.h"
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

template <typename S, typename Self>
void MbtfProtocol::fields(S& s, Self& self) {
  elements(s, self.list_, 4);
  field(s, self.token_);
  field(s, self.seq_len_);
}

void MbtfProtocol::save_state(snapshot::Writer& w) const { fields(w, *this); }

void MbtfProtocol::load_state(snapshot::Reader& r, sim::StationContext& ctx) {
  fields(r, *this);
  // holder() and sequence_ended() read list_[token_] unchecked, so the
  // list must be empty (before the first slot) or hold each station ID
  // once, and the token must index it.
  const auto corrupt = [](const char* what) {
    return snapshot::SnapshotError(snapshot::ErrorKind::kCorrupt,
                                   std::string("mbtf ") + what);
  };
  if (!list_.empty() && list_.size() != ctx.n())
    throw corrupt("list length is neither 0 nor the station count");
  std::vector<StationId> ids = list_;
  std::sort(ids.begin(), ids.end());
  for (std::size_t i = 0; i < ids.size(); ++i)
    if (ids[i] != i + 1)
      throw corrupt("list is not a permutation of the station IDs");
  if (token_ >= std::max<std::size_t>(list_.size(), 1))
    throw corrupt("token past the end of its list");
}

}  // namespace asyncmac::baselines
