#include "channel/lane_ledger.h"

#include "snapshot/io.h"
#include "telemetry/registry.h"
#include "util/check.h"

namespace asyncmac::channel {

namespace {
// The same channel.* instruments the scalar Ledger flushes into — the
// registry resolves by name, so a lockstep lane contributes to exactly
// the counters its scalar twin would (see ledger.cpp).
struct LaneLedgerTelemetry {
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

  static LaneLedgerTelemetry& get() {
    static LaneLedgerTelemetry t;
    return t;
  }
};
}  // namespace

LaneLedger::LaneLedger(std::uint32_t lanes, bool keep_history,
                       RestrainedSpec restrained)
    : K_(lanes) {
  AM_REQUIRE(lanes >= 1, "lane ledger needs at least one lane");
  win_.assign(K_, Window(keep_history, restrained));
  live_count_.assign(K_, 0);
  fin_pending_.assign(K_, 0);
  latest_end_.assign(K_, 0);
  memo_valid_.assign(K_, 0);
  memo_s_.assign(K_, 0);
  memo_t_.assign(K_, 0);
  memo_fb_.assign(K_, static_cast<std::uint8_t>(Feedback::kSilence));
  memo_scanned_.assign(K_, 0);
  pend_adds_.assign(K_, 0);
  pend_queries_.assign(K_, 0);
  pend_scanned_.assign(K_, 0);
  pend_fast_silence_.assign(K_, 0);
  pend_memo_hits_.assign(K_, 0);
  pend_memo_misses_.assign(K_, 0);
  pend_prunes_.assign(K_, 0);
  pend_pruned_entries_.assign(K_, 0);
  window_peak_.assign(K_, 0);
  code_.assign(K_, 0);
  rare_.assign(K_, 0);
}

LaneLedger::~LaneLedger() {
  for (std::uint32_t k = 0; k < K_; ++k) flush_telemetry(k);
}

void LaneLedger::sync_summary(std::uint32_t lane) {
  const Window& w = win_[lane];
  live_count_[lane] = static_cast<std::uint32_t>(w.live());
  fin_pending_[lane] = w.all_finalized() ? 0 : 1;
  latest_end_[lane] = w.latest_end();
}

void LaneLedger::add(std::uint32_t lane, const Transmission& t) {
  // The scalar Ledger's memo-survival rule (ledger.cpp): an add can only
  // be ignored when its begin is at or past memo_t_ and it did not grow
  // the global max duration (which shifts the scan's seek point).
  if (win_[lane].add(t) || t.begin < memo_t_[lane]) memo_valid_[lane] = 0;
  sync_summary(lane);
  ++pend_adds_[lane];
  if (win_[lane].live() > window_peak_[lane])
    window_peak_[lane] = win_[lane].live();
}

Feedback LaneLedger::feedback_slow(std::uint32_t lane, Tick s, Tick t) {
  ++pend_memo_misses_[lane];
  std::uint64_t scanned = 0;
  const Feedback fb = win_[lane].feedback(s, t, scanned);
  sync_summary(lane);
  pend_scanned_[lane] += scanned;
  memo_valid_[lane] = 1;
  memo_s_[lane] = s;
  memo_t_[lane] = t;
  memo_fb_[lane] = static_cast<std::uint8_t>(fb);
  memo_scanned_[lane] = scanned;
  return fb;
}

bool LaneLedger::feedback_all(Tick s, Tick t,
                              const std::vector<std::uint32_t>& active,
                              Feedback* fb) {
  AM_CHECK(s < t);
  // Pass 0 — cohort-wide fast-silence gate: the vectorized analogue of
  // the scalar Ledger's two O(1) silence fast paths. On mostly-listen
  // workloads (the dominant shape for arrow protocols) every lane is
  // code 0 — empty live window, or a query starting at/after every known
  // transmission end with no finalization pending — and the whole call
  // collapses to one AND-reduction plus three unit-stride counter loops,
  // all over flat arrays with no calls: exactly what the auto-vectorizer
  // lifts to SIMD. Byte-identity: code 0 touches only pend_queries_ and
  // pend_fast_silence_, the same increments the general pass makes.
  if (active.size() == K_) {
    std::uint32_t all_quiet = 1;
    for (std::uint32_t k = 0; k < K_; ++k)
      all_quiet &= static_cast<std::uint32_t>(live_count_[k] == 0) |
                   (static_cast<std::uint32_t>(s >= latest_end_[k]) &
                    static_cast<std::uint32_t>(fin_pending_[k] == 0));
    if (all_quiet != 0) {
      for (std::uint32_t k = 0; k < K_; ++k) ++pend_queries_[k];
      for (std::uint32_t k = 0; k < K_; ++k) ++pend_fast_silence_[k];
      for (std::uint32_t k = 0; k < K_; ++k) fb[k] = Feedback::kSilence;
      return true;
    }
    // Pass 0b — cohort-wide memo-replay gate. Under a synchronous slot
    // policy every station's slot in a round spans the same [s, t), so
    // once one event in a busy round pays the seek-and-scan, the other
    // n-1 replay the memo — in every lane at once when the cohort moves
    // in step (the common case for seed-varying lanes on deterministic
    // protocols). The gate checks each lane would classify exactly code 2
    // (live window, s below latest end, memo match) and then applies the
    // code-2 increments verbatim, skipping the general pass.
    std::uint32_t all_memo = 1;
    for (std::uint32_t k = 0; k < K_; ++k)
      all_memo &= static_cast<std::uint32_t>(live_count_[k] != 0) &
                  static_cast<std::uint32_t>(s < latest_end_[k]) &
                  static_cast<std::uint32_t>(memo_valid_[k] != 0) &
                  static_cast<std::uint32_t>(s == memo_s_[k]) &
                  static_cast<std::uint32_t>(t == memo_t_[k]);
    if (all_memo != 0) {
      for (std::uint32_t k = 0; k < K_; ++k) ++pend_queries_[k];
      for (std::uint32_t k = 0; k < K_; ++k) ++pend_memo_hits_[k];
      for (std::uint32_t k = 0; k < K_; ++k)
        pend_scanned_[k] += memo_scanned_[k];
      for (std::uint32_t k = 0; k < K_; ++k)
        fb[k] = static_cast<Feedback>(memo_fb_[k]);
      return false;
    }
  }
  // Pass 1 — branch-light classification over the contiguous summary
  // arrays. The common outcomes (fast silence, memo replay) complete
  // here; pass 0 already drained the all-quiet events, so this runs only
  // when some lane has live entries or pending finalization.
  std::size_t nrare = 0;
  for (std::size_t a = 0; a < active.size(); ++a) {
    const std::uint32_t k = active[a];
    ++pend_queries_[k];
    const bool empty = live_count_[k] == 0;
    const bool fast = s >= latest_end_[k];
    const bool memo =
        memo_valid_[k] != 0 && s == memo_s_[k] && t == memo_t_[k];
    // 0 = fast silence, 1 = fast silence needing finalize catch-up,
    // 2 = memo replay, 3 = slow seek-and-scan.
    const std::uint8_t code =
        empty ? 0 : fast ? (fin_pending_[k] ? 1 : 0) : memo ? 2 : 3;
    pend_fast_silence_[k] += code <= 1;
    pend_scanned_[k] += code == 2 ? memo_scanned_[k] : 0;
    pend_memo_hits_[k] += code == 2;
    fb[k] = code == 2 ? static_cast<Feedback>(memo_fb_[k])
                      : Feedback::kSilence;
    code_[k] = code;
    rare_[nrare] = k;
    nrare += (code == 1) | (code == 3);
  }
  // Pass 2 — the rare lanes only: finalize catch-up keeps LedgerStats
  // current for adaptive adversaries; the slow tail is the lane Window's
  // seek-and-scan, the same code the scalar Ledger runs.
  for (std::size_t a = 0; a < nrare; ++a) {
    const std::uint32_t k = rare_[a];
    if (code_[k] == 1) {
      win_[k].finalize_until(t);
      sync_summary(k);
    } else {
      fb[k] = feedback_slow(k, s, t);
    }
  }
  return false;
}

void LaneLedger::prune_before(std::uint32_t lane, Tick horizon) {
  memo_valid_[lane] = 0;
  pend_pruned_entries_[lane] += win_[lane].prune_before(horizon);
  sync_summary(lane);
  ++pend_prunes_[lane];
  flush_telemetry(lane);
}

void LaneLedger::flush_telemetry(std::uint32_t lane) {
  if ((pend_adds_[lane] | pend_queries_[lane] | pend_scanned_[lane] |
       pend_fast_silence_[lane] | pend_memo_hits_[lane] |
       pend_memo_misses_[lane] | pend_prunes_[lane] |
       pend_pruned_entries_[lane] | window_peak_[lane]) == 0)
    return;
  LaneLedgerTelemetry& t = LaneLedgerTelemetry::get();
  t.adds.add(pend_adds_[lane]);
  t.feedback_queries.add(pend_queries_[lane]);
  t.feedback_scanned.add(pend_scanned_[lane]);
  t.feedback_fast_silence.add(pend_fast_silence_[lane]);
  t.memo_hits.add(pend_memo_hits_[lane]);
  t.memo_misses.add(pend_memo_misses_[lane]);
  t.prunes.add(pend_prunes_[lane]);
  t.pruned_entries.add(pend_pruned_entries_[lane]);
  t.window_peak.observe(static_cast<std::size_t>(window_peak_[lane]));
  pend_adds_[lane] = pend_queries_[lane] = pend_scanned_[lane] =
      pend_fast_silence_[lane] = pend_memo_hits_[lane] =
          pend_memo_misses_[lane] = pend_prunes_[lane] =
              pend_pruned_entries_[lane] = 0;
  window_peak_[lane] = 0;
}

void LaneLedger::save_state(std::uint32_t lane, snapshot::Writer& w) const {
  // Ledger::save_state's exact field order: the window's part, then the
  // batched telemetry deltas.
  win_[lane].save(w);
  w.u64(pend_adds_[lane]);
  w.u64(pend_queries_[lane]);
  w.u64(pend_scanned_[lane]);
  w.u64(pend_fast_silence_[lane]);
  w.u64(pend_memo_hits_[lane]);
  w.u64(pend_memo_misses_[lane]);
  w.u64(pend_prunes_[lane]);
  w.u64(pend_pruned_entries_[lane]);
  w.u64(window_peak_[lane]);
}

}  // namespace asyncmac::channel
