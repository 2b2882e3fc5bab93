// asyncmac/channel/ledger.h
//
// The transmission ledger is the heart of the channel model: it records
// every transmission interval and answers, exactly, the two questions the
// paper's feedback model poses at the end of each station slot [s, t):
//
//   ack     — did a *successful* transmission end at a time e in (s, t] ?
//   busy    — otherwise, did any transmission overlap [s, t) ?
//   silence — otherwise.
//
// (Every instant of a station's timeline belongs to exactly one of its
// slots because end times are charged to the slot via the half-open rule
// e in (s, t].)
//
// A transmission T = [a, b) is successful iff no other transmission
// overlaps it (Section II). Success is decidable at time b: any
// transmission starting at or after b cannot overlap a past half-open
// interval. The ledger therefore finalizes transmissions lazily once the
// caller's clock passes their end.
//
// Contract with the engine: transmissions are added in non-decreasing
// order of begin time, and feedback(s, t) is only queried when every
// transmission with begin < t has already been added. The simulation
// engine meets this by processing slot boundaries in time order
// (a transmission is registered at its slot's start event).
//
// The window and the channel rules over it (admission, success, the
// feedback seek-and-scan, pruning, the snapshot layout) live in
// channel::Window (window.h). This class adds what the per-slot hot path
// needs in front of it: the inline O(1) silence fast paths, the
// repeat-query memo and batched telemetry — and, for the engine's dense
// path, the two gates under which a query changes nothing but counters,
// with a charge for queries answered from them.
#pragma once

#include <cstdint>
#include <vector>

#include "channel/transmission.h"
#include "channel/window.h"
#include "snapshot/fwd.h"
#include "util/check.h"
#include "util/types.h"

namespace asyncmac::channel {

class Ledger {
 public:
  /// When keep_history is true every finalized transmission is retained in
  /// full_history() for trace rendering; otherwise finalized transmissions
  /// are pruned once out of range. `restrained` selects the k-restrained
  /// channel (channel/transmission.h); the default is unrestrained.
  explicit Ledger(bool keep_history = false, RestrainedSpec restrained = {})
      : window_(keep_history, restrained) {}
  ~Ledger() { flush_telemetry(); }

  Ledger(const Ledger&) = delete;
  Ledger& operator=(const Ledger&) = delete;

  /// Register a transmission occupying [t.begin, t.end). Begins must be
  /// non-decreasing across calls and durations strictly positive.
  /// Precondition (engine-guaranteed): one station's transmissions never
  /// overlap each other — a station occupies one slot at a time — so a
  /// (station, begin, end) triple identifies a transmission uniquely.
  /// On a restrained channel the admission verdict is fixed here: the
  /// on-air count at t.begin (non-rejected entries with end > t.begin)
  /// decides kOk vs kJammed/kRejected. Rejected transmissions are decided
  /// unsuccessful immediately and never touch the medium — overlap scans
  /// and feedback classification skip them. t.end is finite: a Ledger
  /// never holds an open entry (channel/window.h), because the silence
  /// fast path in feedback() reads latest_end(), which an open entry does
  /// not move.
  void add(const Transmission& t);

  /// Exact feedback for a slot [s, t). Uniform for transmitters and
  /// listeners: a transmitter's own (whole-slot) transmission makes the
  /// rule yield ack exactly when that transmission succeeded and busy
  /// when it collided. Requires t <= the latest safe query time (all
  /// transmissions beginning before t already added). Cost is
  /// O(log distance + neighborhood), not O(W): the begin-sorted window is
  /// seeked, galloping back from the newest entry, to the first entry
  /// that can reach the slot (Window::feedback). Two
  /// O(1) silence fast paths skip the seek entirely: an empty window, and
  /// a slot starting at or after latest_end() (every registered interval
  /// is already over, so nothing can overlap [s, t) or ack-end inside it).
  /// Defined inline so the engine's per-event loops resolve the fast
  /// paths without a cross-TU call; only the neighborhood scan lives out
  /// of line.
  Feedback feedback(Tick s, Tick t) {
    AM_CHECK(s < t);
    ++pending_queries_;
    // O(1) silence fast paths. An empty window trivially yields silence.
    // When s >= latest_end() every registered interval has end <= s, so
    // none overlaps [s, t) or ends inside (s, t] — but undecided entries
    // must still be finalized so LedgerStats stay current for adaptive
    // adversaries reading channel_stats() mid-run.
    if (window_.empty()) {
      ++pending_fast_silence_;
      return Feedback::kSilence;
    }
    if (s >= window_.latest_end()) {
      ++pending_fast_silence_;
      if (!window_.all_finalized()) window_.finalize_until(t);
      return Feedback::kSilence;
    }
    // Repeat-query memo: stations whose slots share boundaries (all of
    // them under a synchronous policy) ask about the same [s, t) back to
    // back, and with no add/prune in between the window contents, the
    // decided flags relevant to [s, t) (feedback_slow finalizes through t
    // on the first query) and hence the answer AND the scan length are
    // all unchanged — so replay the recorded result and charge exactly
    // the telemetry the real scan would have. A pure cache: cold-memo
    // (e.g. freshly resumed) and warm-memo runs produce identical
    // feedback, stats and counters, so it is deliberately not serialized.
    if (memo_valid_ && s == memo_s_ && t == memo_t_) {
      pending_scanned_ += memo_scanned_;
      ++pending_memo_hits_;
      return memo_fb_;
    }
    return feedback_slow(s, t);
  }

  /// True when feedback(s, t) takes an O(1) silence fast path that moves
  /// nothing but counters, for every t > s: an empty window, or s at or
  /// past every registered end with nothing left to finalize.
  bool quiet_at(Tick s) const noexcept {
    return window_.empty() ||
           (s >= window_.latest_end() && window_.all_finalized());
  }

  /// True when feedback(s, t) replays the memo: it then returns
  /// memo_feedback() and moves nothing but counters.
  bool memo_at(Tick s, Tick t) const noexcept {
    return memo_valid_ && s == memo_s_ && t == memo_t_ && !window_.empty() &&
           s < window_.latest_end();
  }
  Feedback memo_feedback() const noexcept { return memo_fb_; }

  /// Charge `m` queries of slot [s, t) that the caller answered from
  /// quiet_at(s) or memo_at(s, t) without calling feedback(): adds exactly
  /// the counters those m feedback() calls would have added.
  void skip_queries(Tick s, Tick t, std::uint64_t m) {
    pending_queries_ += m;
    if (quiet_at(s)) {
      pending_fast_silence_ += m;
      return;
    }
    AM_CHECK(memo_at(s, t));
    pending_memo_hits_ += m;
    pending_scanned_ += m * memo_scanned_;
  }

  /// Push batched telemetry deltas into the global atomic instruments.
  /// feedback()/add() accumulate plain-integer counters on the hot path;
  /// prune_before(), the destructor and the engine's run() exit flush
  /// them, so instrument readings lag a live run by at most one prune
  /// interval.
  void flush_telemetry();

  /// Finalize the success flag of all transmissions with end <= now.
  void finalize_until(Tick now) { window_.finalize_until(now); }

  /// Drop finalized transmissions with end <= horizon; the engine passes
  /// the minimum current-slot start over all stations, so no future
  /// feedback query can reference a pruned interval.
  void prune_before(Tick horizon);

  /// Was the most recently finalized transmission of `station` ending
  /// exactly at time `end` successful? Used by the engine to decide packet
  /// delivery for a transmit slot that just ended.
  bool transmission_successful(StationId station, Tick end) const {
    return window_.transmission_successful(station, end);
  }

  const LedgerStats& stats() const noexcept { return window_.stats(); }

  /// The restrained-channel configuration this ledger was built with.
  const RestrainedSpec& restrained() const noexcept {
    return window_.restrained();
  }

  /// Live window (unpruned), ordered by begin. A copy: for inspection,
  /// not for per-slot use.
  std::vector<Transmission> window() const { return window_.entries(); }

  /// The flat window itself (dead-prefix and layout inspection).
  const Window& flat_window() const noexcept { return window_; }

  /// All finalized transmissions ever (empty unless keep_history).
  const std::vector<Transmission>& full_history() const noexcept {
    return window_.history();
  }

  /// Largest end time among registered transmissions (0 when none yet).
  Tick latest_end() const noexcept { return window_.latest_end(); }

  /// Largest duration among registered transmissions (0 when none yet).
  /// Feedback queries only scan entries with begin > s - max_duration();
  /// differential tests target slots straddling exactly that boundary.
  Tick max_duration() const noexcept { return window_.max_duration(); }

  /// Checkpoint/resume (docs/CHECKPOINT.md): serialize/restore the full
  /// mutable state — live window, finalized cursor, archived history,
  /// cumulative stats and the batched telemetry deltas. load_state
  /// requires the ledger to have been constructed with the same
  /// keep_history flag (SnapshotError::kMismatch otherwise).
  void save_state(snapshot::Writer& w) const;
  void load_state(snapshot::Reader& r);

 private:
  /// The seek-and-scan tail of feedback(): neighborhood classification for
  /// slots the inline fast paths cannot decide.
  Feedback feedback_slow(Tick s, Tick t);

  Window window_;

  // Repeat-query memo (see feedback()). Valid only while the window is
  // untouched: add() and prune_before() invalidate, load_state() starts
  // cold. Not serialized — replay is observably identical to re-scanning.
  bool memo_valid_ = false;
  Tick memo_s_ = 0;
  Tick memo_t_ = 0;
  Feedback memo_fb_ = Feedback::kSilence;
  std::uint64_t memo_scanned_ = 0;

  // Batched telemetry deltas (plain integers on the hot path; see
  // flush_telemetry).
  std::uint64_t pending_adds_ = 0;
  std::uint64_t pending_queries_ = 0;
  std::uint64_t pending_scanned_ = 0;
  std::uint64_t pending_fast_silence_ = 0;
  // Memo effectiveness: a hit replays the memo, a miss runs the seek-and-
  // scan tail. Fast-silence queries are neither (the memo never sees them).
  std::uint64_t pending_memo_hits_ = 0;
  std::uint64_t pending_memo_misses_ = 0;
  std::uint64_t pending_prunes_ = 0;
  std::uint64_t pending_pruned_entries_ = 0;
  std::size_t window_peak_local_ = 0;
};

}  // namespace asyncmac::channel
