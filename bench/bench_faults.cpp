// Robustness study: fault-rate sweep over the self-healing
// reconfiguration pipeline. For each instrumented fault site, inject at
// increasing probability and report activation success rate, recovery
// rate, and the latency cost of a recovered activation versus a clean
// one. Deterministic: one fixed seed drives every injection decision.
// Writes the cells to BENCH_faults.json (override with
// BENCH_FAULTS_JSON); every field is simulated, so a rerun reproduces
// the file byte for byte.
#include <cstdlib>
#include <string>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "driver/dpr_manager.hpp"
#include "driver/hwicap_driver.hpp"
#include "sim/fault_injector.hpp"

using namespace rvcap;
namespace sites = sim::fault_sites;

namespace {

struct SweepResult {
  u32 ok_count = 0;
  u32 attempts = 0;
  u64 recoveries = 0;
  u64 exhausted = 0;
  double clean_us = 0;     // mean activation latency, no recovery needed
  double recovered_us = 0; // mean activation latency when recovery ran
};

SweepResult run_sweep(std::string_view site, double probability, u64 seed,
                      u32 activations) {
  soc::ArianeSoc soc((soc::SocConfig()));
  driver::RvCapDriver drv(soc.cpu(), soc.plic());
  sim::FaultInjector fi(seed);
  driver::DprManager mgr(drv, soc.config_memory(), soc.rp0_handle(),
                         nullptr);
  soc.attach_fault_injector(&fi);
  mgr.set_fault_injector(&fi);
  driver::DprManager::RecoveryPolicy pol;
  pol.scrub_after_recovery = true;  // frame-ECC verify before recouple
  mgr.set_policy(pol);

  // A wedged DMA must time out in bounded simulated time.
  auto t = drv.timeouts();
  t.irq_wait_cycles = 3'000'000;
  drv.set_timeouts(t);

  struct Mod { const char* name; u32 id; Addr addr; };
  const Mod mods[] = {{"sobel", accel::kRmIdSobel, 0x8A00'0000},
                      {"median", accel::kRmIdMedian, 0x8B00'0000}};
  for (const Mod& m : mods) {
    const auto pbit = bitstream::generate_partial_bitstream(
        soc.device(), soc.rp0(), {m.id, m.name});
    soc.ddr().poke(m.addr, pbit);
    if (!ok(mgr.register_staged(m.name, m.id, m.addr,
                                static_cast<u32>(pbit.size())))) {
      return {};
    }
  }

  // `probability` is per ACTIVATION: each activate() call is faulted
  // with chance p, by arming a single-shot fault at a random point of
  // the transfer. (Arming an unlimited per-query probability instead
  // would make word-granularity sites fire thousands of times per
  // bitstream and nothing would ever converge.)
  SplitMix64 decide(seed ^ 0xA5A5'5A5A);

  SweepResult r;
  u64 clean_cycles = 0, recovered_cycles = 0;
  u32 clean_n = 0, recovered_n = 0;
  for (u32 i = 0; i < activations; ++i) {
    fi.disarm(site);
    if (decide.next_double() < probability) {
      // DMA sites are queried once per transfer; ICAP sites once per
      // configuration word, so only those take a positional skip.
      const bool word_granular = site.rfind("icap.", 0) == 0;
      const u32 skip =
          word_granular ? static_cast<u32>(decide.next_below(50'000)) : 0;
      fi.arm(site, sim::FaultInjector::Plan{1, 1.0, skip});
    }
    const u64 recoveries_before = mgr.stats().recoveries;
    const Cycles t0 = soc.sim().now();
    const Status st = mgr.activate(mods[i % 2].name);
    const Cycles dt = soc.sim().now() - t0;
    ++r.attempts;
    if (ok(st)) ++r.ok_count;
    if (mgr.stats().recoveries > recoveries_before) {
      recovered_cycles += dt;
      ++recovered_n;
    } else if (ok(st)) {
      clean_cycles += dt;
      ++clean_n;
    }
  }
  r.recoveries = mgr.stats().recoveries;
  r.exhausted = mgr.stats().retries_exhausted;
  r.clean_us = clean_n ? cycles_to_us(clean_cycles) / clean_n : 0.0;
  r.recovered_us =
      recovered_n ? cycles_to_us(recovered_cycles) / recovered_n : 0.0;
  return r;
}

}  // namespace

int main() {
  bench::print_header(
      "ROBUSTNESS: fault sweep over self-healing reconfiguration");

  constexpr u64 kSeed = 0xB0B0'CAFE;
  constexpr u32 kActivations = 6;
  const std::string_view sweep_sites[] = {
      sites::kDmaMm2sSlvErr, sites::kDmaMm2sEarlyIoc, sites::kDmaMm2sStall,
      sites::kIcapSyncLoss,  sites::kIcapCrcCorrupt,
  };
  const double probabilities[] = {0.25, 0.75};

  std::printf("\n%-22s %6s | %8s %9s %9s | %10s %12s\n", "site", "p",
              "ok-rate", "recover", "exhaust", "clean(us)", "recover(us)");
  bool all_converged = true;
  std::string json = "{\n  \"cells\": [\n";
  for (const std::string_view site : sweep_sites) {
    for (const double p : probabilities) {
      const SweepResult r = run_sweep(site, p, kSeed, kActivations);
      std::printf("%-22s %6.2f | %7.0f%% %9llu %9llu | %10.1f %12.1f\n",
                  std::string(site).c_str(), p,
                  100.0 * r.ok_count / (r.attempts ? r.attempts : 1),
                  static_cast<unsigned long long>(r.recoveries),
                  static_cast<unsigned long long>(r.exhausted),
                  r.clean_us, r.recovered_us);
      // With a bounded per-site probability and 3 attempts per call the
      // sweep should essentially always converge to kOk.
      if (r.ok_count != r.attempts) all_converged = false;
      char buf[512];
      std::snprintf(buf, sizeof(buf),
                    "%s    {\"site\": \"%s\", \"p\": %.2f, "
                    "\"attempts\": %u, \"ok\": %u, \"recoveries\": %llu, "
                    "\"exhausted\": %llu, \"clean_us\": %.1f, "
                    "\"recovered_us\": %.1f}",
                    json.back() == '\n' ? "" : ",\n",
                    std::string(site).c_str(), p, r.attempts, r.ok_count,
                    static_cast<unsigned long long>(r.recoveries),
                    static_cast<unsigned long long>(r.exhausted), r.clean_us,
                    r.recovered_us);
      json += buf;
    }
  }
  json += "\n  ],\n  \"all_converged\": ";
  json += all_converged ? "true" : "false";
  json += "\n}\n";

  const char* path = std::getenv("BENCH_FAULTS_JSON");
  if (path == nullptr) path = "BENCH_faults.json";
  if (std::FILE* f = std::fopen(path, "w")) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("\nwrote %s\n", path);
  }

  std::printf("\nevery activation above either succeeded first try or was\n"
              "healed by the recovery pipeline (DMA reset -> datapath abort\n"
              "-> partition blank -> retry), with the RP decoupled from the\n"
              "first fault until a verified-good configuration was active.\n");
  bench::print_footnote();
  return all_converged ? 0 : 1;
}
