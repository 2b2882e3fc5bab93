#include "energy/meter.h"

#include "snapshot/state.h"

namespace asyncmac::energy {

template <typename S, typename Self>
void EnergyMeter::fields(S& s, Self& self) {
  echo(s, "energy meter station count differs from the snapshot's", self.n_);
  for (StationId i = 1; i <= self.n_; ++i) field(s, self.tx_slots_[i]);
  for (StationId i = 1; i <= self.n_; ++i) field(s, self.listen_slots_[i]);
  for (StationId i = 1; i <= self.n_; ++i) field(s, self.sleep_slots_[i]);
}

void EnergyMeter::save_state(snapshot::Writer& w) const { fields(w, *this); }

void EnergyMeter::load_state(snapshot::Reader& r) { fields(r, *this); }

}  // namespace asyncmac::energy
