#include "sim/simulator.hpp"

namespace rvcap::sim {

// Out-of-line: component.hpp only forward-declares Simulator, keeping
// the hot wake() path header-inline without an include cycle.
void Component::wake_at(Cycles t) {
  if (sim_ == nullptr) return;
  sim_->schedule_wake(this, t);
}

}  // namespace rvcap::sim
