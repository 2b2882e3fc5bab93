// asyncmac/baselines/mbtf.h
//
// MBTF — Move-Big-To-Front (after Chlebus, Kowalski, Rokicki, "Maximum
// throughput of multiple access channels in adversarial environments",
// ref. [6] of the paper): the synchronous comparator of Table I's three
// less restrictive rows, universally stable at R = 1 with queues
// O(n^2 + b).
//
// Rendering used here (documented adaptation — see DESIGN.md): all
// stations simulate a shared list of station IDs, initially sorted by ID,
// plus a token position. The token holder withholds the channel while its
// queue is non-empty (one packet per slot); a globally silent slot ends
// its sequence. At a sequence end every station applies the same update:
// if the holder's transmission sequence was "big" (>= n packets) the
// holder is moved to the front of the list — giving heavily loaded
// stations priority on the next cycle, the defining trait of MBTF — and
// the token advances to the holder's old successor. Feedback at R = 1 is
// global, so the simulated lists never diverge.
#pragma once

#include <vector>

#include "sim/protocol.h"

namespace asyncmac::baselines {

class MbtfProtocol final : public sim::Protocol {
 public:
  std::unique_ptr<sim::Protocol> clone() const override;
  SlotAction next_action(const std::optional<sim::SlotResult>& prev,
                         sim::StationContext& ctx) override;
  std::string name() const override { return "MBTF"; }

  StationId holder() const;
  const std::vector<StationId>& list() const noexcept { return list_; }

  void save_state(snapshot::Writer& w) const override;
  void load_state(snapshot::Reader& r, sim::StationContext& ctx) override;

 private:
  template <typename S, typename Self>
  static void fields(S& s, Self& self);
  void ensure_init(const sim::StationContext& ctx);
  void sequence_ended(const sim::StationContext& ctx);

  std::vector<StationId> list_;  // shared (simulated) station order
  std::size_t token_ = 0;        // index into list_
  std::uint64_t seq_len_ = 0;    // packets heard in the current sequence
};

}  // namespace asyncmac::baselines
