#include "channel/ledger.h"

#include "snapshot/io.h"
#include "telemetry/registry.h"

namespace asyncmac::channel {

namespace {
// Telemetry instruments (write-only observability; see DESIGN.md §5 and
// docs/OBSERVABILITY.md). The hot paths (add, feedback) never touch these
// directly: deltas accumulate in plain Ledger members and reach the
// atomic instruments through flush_telemetry() on the cold path.
struct LedgerTelemetry {
  telemetry::Counter& adds =
      telemetry::Registry::global().counter("channel.transmissions");
  telemetry::Counter& feedback_queries =
      telemetry::Registry::global().counter("channel.feedback_queries");
  telemetry::Counter& feedback_scanned =
      telemetry::Registry::global().counter("channel.feedback_scanned");
  telemetry::Counter& feedback_fast_silence =
      telemetry::Registry::global().counter("channel.feedback_fast_silence");
  telemetry::Counter& memo_hits =
      telemetry::Registry::global().counter("channel.memo_hits");
  telemetry::Counter& memo_misses =
      telemetry::Registry::global().counter("channel.memo_misses");
  telemetry::Counter& prunes =
      telemetry::Registry::global().counter("channel.prunes");
  telemetry::Counter& pruned_entries =
      telemetry::Registry::global().counter("channel.pruned_entries");
  telemetry::MaxGauge& window_peak =
      telemetry::Registry::global().gauge("channel.window_peak");

  static LedgerTelemetry& get() {
    static LedgerTelemetry t;
    return t;
  }
};
}  // namespace

void Ledger::add(const Transmission& t) {
  // The memo survives an add that provably cannot change a replay of its
  // query: the feedback scan only reaches entries with begin < t (so an
  // entry beginning at or after memo_t_ is never scanned — the common
  // case, since stations at one boundary query [s, t) and then commit
  // their next slot beginning at t), and the scan's seek point depends on
  // max_duration(), so a new global maximum shifts the scanned count.
  if (window_.add(t) || t.begin < memo_t_) memo_valid_ = false;
  ++pending_adds_;
  if (window_.live() > window_peak_local_) window_peak_local_ = window_.live();
}

Feedback Ledger::feedback_slow(Tick s, Tick t) {
  // The O(1) silence fast paths (and the pending_queries_ accounting) ran
  // inline in the header; from here on the slot provably neighbors at
  // least one live interval.
  ++pending_memo_misses_;
  std::uint64_t scanned = 0;
  const Feedback fb = window_.feedback(s, t, scanned);
  pending_scanned_ += scanned;
  memo_valid_ = true;
  memo_s_ = s;
  memo_t_ = t;
  memo_fb_ = fb;
  memo_scanned_ = scanned;
  return fb;
}

void Ledger::prune_before(Tick horizon) {
  memo_valid_ = false;
  pending_pruned_entries_ += window_.prune_before(horizon);
  ++pending_prunes_;
  flush_telemetry();
}

void Ledger::flush_telemetry() {
  if ((pending_adds_ | pending_queries_ | pending_scanned_ |
       pending_fast_silence_ | pending_memo_hits_ | pending_memo_misses_ |
       pending_prunes_ | pending_pruned_entries_ | window_peak_local_) == 0)
    return;
  LedgerTelemetry& t = LedgerTelemetry::get();
  t.adds.add(pending_adds_);
  t.feedback_queries.add(pending_queries_);
  t.feedback_scanned.add(pending_scanned_);
  t.feedback_fast_silence.add(pending_fast_silence_);
  t.memo_hits.add(pending_memo_hits_);
  t.memo_misses.add(pending_memo_misses_);
  t.prunes.add(pending_prunes_);
  t.pruned_entries.add(pending_pruned_entries_);
  t.window_peak.observe(window_peak_local_);
  pending_adds_ = pending_queries_ = pending_scanned_ =
      pending_fast_silence_ = pending_memo_hits_ = pending_memo_misses_ =
          pending_prunes_ = pending_pruned_entries_ = 0;
  window_peak_local_ = 0;
}

void Ledger::save_state(snapshot::Writer& w) const {
  window_.save(w);
  // Batched telemetry deltas ride along so a resumed run flushes the same
  // not-yet-flushed counts (telemetry itself is outside the determinism
  // contract, but carrying the deltas keeps it *approximately* seamless).
  w.u64(pending_adds_);
  w.u64(pending_queries_);
  w.u64(pending_scanned_);
  w.u64(pending_fast_silence_);
  w.u64(pending_memo_hits_);
  w.u64(pending_memo_misses_);
  w.u64(pending_prunes_);
  w.u64(pending_pruned_entries_);
  w.u64(window_peak_local_);
}

void Ledger::load_state(snapshot::Reader& r) {
  memo_valid_ = false;  // cold memo; replay is identical to re-scanning
  window_.load(r);
  pending_adds_ = r.u64();
  pending_queries_ = r.u64();
  pending_scanned_ = r.u64();
  pending_fast_silence_ = r.u64();
  pending_memo_hits_ = r.u64();
  pending_memo_misses_ = r.u64();
  pending_prunes_ = r.u64();
  pending_pruned_entries_ = r.u64();
  window_peak_local_ = static_cast<std::size_t>(r.u64());
}

}  // namespace asyncmac::channel
