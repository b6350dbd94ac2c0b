// Background single-event-upset process — the radiation environment.
//
// A sim::Component that injects Poisson-spaced configuration upsets
// into ConfigMemory while the design runs, exactly the continuous
// threat model the scrub service exists for. Event times ride the
// kernel's time wheel (wake_at), so under the scheduled kernel the
// process costs nothing between events yet fires on the identical
// cycle as under the flat loop.
//
// Everything is drawn from the fault injector's "seu.upset" site
// streams, so a single seed replays the whole upset history:
//  * spacing   — exponential inter-arrival with a configurable mean
//                (core cycles), quantized to >= 1 cycle;
//  * gating    — each due event passes through should_fire(), so tests
//                arm the site to enable the process, cap the event
//                count with a plan, or disarm mid-run;
//  * targeting — partition (region mask), frame, word and bit come
//                from the site's parameter stream;
//  * burst     — an event flips `burst` adjacent bits (MBU), wrapping
//                across word boundaries within the frame.
//
// Events aimed at an unloaded partition are suppressed (no configured
// bits to hit) but still logged and still consume the same stream
// steps, so the schedule is independent of what lands.
#pragma once

#include <vector>

#include "fabric/config_memory.hpp"
#include "sim/component.hpp"
#include "sim/fault_injector.hpp"

namespace rvcap::fabric {

class SeuProcess : public sim::Component {
 public:
  struct Config {
    u64 mean_cycles = 200'000;   // mean exponential inter-arrival
    u32 burst = 1;               // adjacent bits per event (>1 = MBU)
    std::vector<usize> targets;  // partition handles (region mask)
  };

  /// One scheduled upset event (landed or suppressed).
  struct Event {
    Cycles at = 0;
    FrameAddr fa{};
    u32 word = 0;
    u32 bit = 0;
    u32 burst = 1;
    bool landed = false;
  };

  SeuProcess(std::string name, ConfigMemory& cfg, sim::FaultInjector& fi,
             Config c);

  bool tick() override;
  /// Background radiation never holds the SoC busy: run_until_idle()
  /// quiesces with upsets still pending on the wheel.
  bool busy() const override { return false; }

  const Config& config() const { return cfg_; }
  const std::vector<Event>& log() const { return log_; }
  u64 events() const { return log_.size(); }
  u64 landed() const { return landed_; }

 private:
  void fire();
  u64 next_gap();

  ConfigMemory& mem_;
  sim::FaultInjector& fi_;
  Config cfg_;
  std::vector<std::vector<FrameAddr>> addrs_;  // per target, config order
  std::vector<Event> log_;
  Cycles next_at_ = 0;
  u64 landed_ = 0;
  bool started_ = false;
};

}  // namespace rvcap::fabric
