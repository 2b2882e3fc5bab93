#include "verify/reference_channel.h"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "channel/ledger.h"

namespace asyncmac::verify {

namespace {

template <typename... Ts>
trace::CheckResult fail(const Ts&... parts) {
  std::ostringstream os;
  (os << ... << parts);
  return {false, os.str()};
}

}  // namespace

void ReferenceChannel::ensure_admissions() const {
  if (admissions_valid_) return;
  admission_.assign(txs_.size(),
                    static_cast<std::uint8_t>(channel::Admission::kOk));
  if (restrained_.enabled()) {
    // Replay adds in (begin, station) order — the order the engines
    // register slots in (events sorted by time, ties by station id; a
    // single station never opens two slots at one tick). For each add,
    // count the earlier non-rejected transmissions still on air at its
    // begin; the k-th and later concurrent ones are jammed or rejected.
    std::vector<std::size_t> order(txs_.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [this](std::size_t a, std::size_t b) {
                       return std::tie(txs_[a].begin, txs_[a].station) <
                              std::tie(txs_[b].begin, txs_[b].station);
                     });
    for (std::size_t pos = 0; pos < order.size(); ++pos) {
      const std::size_t i = order[pos];
      std::uint32_t on_air = 0;
      for (std::size_t prev = 0; prev < pos; ++prev) {
        const std::size_t j = order[prev];
        if (static_cast<channel::Admission>(admission_[j]) ==
            channel::Admission::kRejected)
          continue;
        if (txs_[j].end > txs_[i].begin) ++on_air;
      }
      if (on_air >= restrained_.k)
        admission_[i] = static_cast<std::uint8_t>(
            restrained_.jam ? channel::Admission::kJammed
                            : channel::Admission::kRejected);
    }
  }
  admissions_valid_ = true;
}

channel::Admission ReferenceChannel::admission(std::size_t i) const {
  ensure_admissions();
  return static_cast<channel::Admission>(admission_[i]);
}

bool ReferenceChannel::successful(std::size_t i) const {
  if (cached_) return success_cache_[i];
  if (admission(i) == channel::Admission::kRejected) return false;
  for (std::size_t j = 0; j < txs_.size(); ++j) {
    if (j == i) continue;
    if (admission(j) == channel::Admission::kRejected) continue;
    if (channel::intervals_overlap(txs_[i].begin, txs_[i].end, txs_[j].begin,
                                   txs_[j].end))
      return false;
  }
  return true;
}

bool ReferenceChannel::successful(StationId station, Tick begin,
                                  Tick end) const {
  for (std::size_t i = 0; i < txs_.size(); ++i) {
    if (txs_[i].station == station && txs_[i].begin == begin &&
        txs_[i].end == end)
      return successful(i);
  }
  throw std::logic_error("reference channel: no such transmission");
}

void ReferenceChannel::cache_success() {
  success_cache_.assign(txs_.size(), false);
  cached_ = false;  // successful(i) must compute, not read the cache
  for (std::size_t i = 0; i < txs_.size(); ++i)
    success_cache_[i] = successful(i);
  cached_ = true;
}

Feedback ReferenceChannel::feedback(Tick s, Tick t) const {
  bool overlap = false;
  for (std::size_t i = 0; i < txs_.size(); ++i) {
    // Rejected transmissions never reached the medium: no ack, no busy.
    if (admission(i) == channel::Admission::kRejected) continue;
    if (txs_[i].end > s && txs_[i].end <= t && successful(i))
      return Feedback::kAck;
    if (channel::intervals_overlap(txs_[i].begin, txs_[i].end, s, t))
      overlap = true;
  }
  return overlap ? Feedback::kBusy : Feedback::kSilence;
}

trace::CheckResult check_channel_oracle(
    const std::vector<trace::SlotRecord>& slots,
    channel::RestrainedSpec restrained) {
  const Tick horizon = trace::checkable_horizon(slots);
  const auto txs = trace::transmissions_of(slots);

  // (a) against (b) first: trace::check_feedback_consistency on the one
  // Ledger replay, which keeps each checkable slot's feedback for the
  // comparison with the reference.
  channel::Ledger ledger(/*keep_history=*/false, restrained);
  for (const auto& t : txs) ledger.add(t);
  std::vector<Feedback> replayed;
  if (auto r = trace::check_feedback_consistency(slots, horizon, ledger,
                                                 &replayed);
      !r)
    return r;

  ReferenceChannel ref;
  ref.set_restrained(restrained);
  for (const auto& t : txs) ref.add(t);
  ref.cache_success();

  if (restrained.enabled()) {
    // The replayed Ledger decided every admission at add; the naive
    // reference re-derives them by counting. They must agree entrywise
    // (the replay window holds all entries — nothing was pruned).
    const auto& window = ledger.window();
    for (std::size_t i = 0; i < window.size(); ++i) {
      if (window[i].admission != static_cast<std::uint8_t>(ref.admission(i)))
        return fail("ledger/reference disagree on admission of station ",
                    window[i].station, " [", window[i].begin, ",",
                    window[i].end, "): ledger says ",
                    unsigned{window[i].admission}, ", reference says ",
                    static_cast<unsigned>(ref.admission(i)));
    }
  }

  // The recorded feedback equals the replay's on every checkable slot, so
  // the replay against the reference covers (a) against (c) too.
  for (std::size_t i = 0; i < slots.size(); ++i) {
    const trace::SlotRecord& s = slots[i];
    if (s.end > horizon) continue;  // may depend on unrecorded slots
    const Feedback from_ref = ref.feedback(s.begin, s.end);
    if (replayed[i] != from_ref)
      return fail("ledger/reference disagree on slot [", s.begin, ",", s.end,
                  ") of station ", s.station, ": ledger says ",
                  to_string(replayed[i]), ", reference says ",
                  to_string(from_ref));
  }
  return {};
}

trace::CheckResult check_ledger_history(const sim::Engine& engine) {
  const channel::Ledger& ledger = engine.ledger();
  // Union of archived and live entries = everything ever registered.
  std::vector<channel::Transmission> all = ledger.full_history();
  for (const auto& t : ledger.window()) all.push_back(t);

  const std::uint64_t registered = ledger.stats().transmissions;
  if (all.size() != registered)
    return fail("ledger history leak: ", registered,
                " transmissions registered but history+window hold ",
                all.size());

  ReferenceChannel ref;
  ref.set_restrained(ledger.restrained());
  for (const auto& t : all) ref.add(t);
  ref.cache_success();

  for (std::size_t i = 0; i < all.size(); ++i) {
    const channel::Transmission& t = all[i];
    const bool archived = i < ledger.full_history().size();
    if (archived && !t.decided)
      return fail("archived transmission [", t.begin, ",", t.end,
                  ") of station ", t.station, " was never finalized");
    if (t.admission != static_cast<std::uint8_t>(ref.admission(i)))
      return fail("admission of station ", t.station, " [", t.begin, ",",
                  t.end, ") is ", unsigned{t.admission},
                  " but the reference derives ",
                  static_cast<unsigned>(ref.admission(i)),
                  archived ? " (archived by prune)" : " (live window)");
    if (!t.decided) continue;  // in-flight tail of the live window
    if (t.successful != ref.successful(i))
      return fail("success flag of station ", t.station, " [", t.begin, ",",
                  t.end, ") is ", t.successful ? "true" : "false",
                  " but the reference derives ",
                  ref.successful(i) ? "true" : "false",
                  archived ? " (archived by prune)" : " (live window)");
  }
  return {};
}

}  // namespace asyncmac::verify
