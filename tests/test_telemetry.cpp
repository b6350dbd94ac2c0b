// One telemetry channel: every driver stack exports its Stats through
// the CounterRegistry, which firmware reads over the PerfRegs window.
//
// The coverage test builds the full driver stack on a two-slot SoC and
// checks that each layer adds exactly the names it registers. A name
// collision rebinds an existing entry instead of adding one, so it
// shows up here as a shortfall.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "driver/bitstream_source.hpp"
#include "driver/dpr_manager.hpp"
#include "driver/placement_engine.hpp"
#include "driver/reconfig_service.hpp"
#include "driver/recovery_journal.hpp"
#include "driver/recovery_manager.hpp"
#include "driver/scrub_service.hpp"
#include "driver/slot_scheduler.hpp"
#include "obs/export.hpp"
#include "soc/ariane_soc.hpp"
#include "storage/sd_card.hpp"

namespace rvcap {
namespace {

using driver::DprManager;
using driver::ReconfigService;

TEST(TelemetryCoverage, EveryDriverStackRegistersItsStats) {
  soc::SocConfig cfg;
  cfg.num_slots = 2;
  soc::ArianeSoc soc(cfg);
  driver::RvCapDriver drv(soc.cpu(), soc.plic());
  const obs::CounterRegistry& reg = soc.sim().obs().counters();

  std::vector<std::string> names;  // every name a driver stack added
  auto expect_adds = [&](const char* stack, usize expected, auto&& build) {
    const usize before = reg.counter_count();
    build();
    EXPECT_EQ(reg.counter_count() - before, expected) << stack;
    for (usize i = before; i < reg.counter_count(); ++i) {
      names.emplace_back(reg.counter_name(i));
    }
  };

  std::vector<std::unique_ptr<DprManager>> mgrs;
  std::vector<std::unique_ptr<ReconfigService>> svcs;
  for (u32 s = 0; s < 2; ++s) {
    DprManager::Config mc;
    mc.slot_id = s;
    expect_adds("DprManager", 19, [&] {
      mgrs.push_back(std::make_unique<DprManager>(
          drv, soc.config_memory(), soc.slot_handle(s), nullptr, mc));
    });
    ReconfigService::Config sc;
    sc.slot_id = s;
    expect_adds("ReconfigService", 14, [&] {
      svcs.push_back(std::make_unique<ReconfigService>(*mgrs[s], sc));
    });
  }
  std::unique_ptr<driver::ScrubService> scrub;
  expect_adds("ScrubService", 25, [&] {
    scrub = std::make_unique<driver::ScrubService>(
        drv, soc.config_memory(), *svcs[0],
        driver::ScrubService::Config{0x8C00'0000, 0x8D00'0000});
  });
  std::unique_ptr<driver::SlotScheduler> sched;
  expect_adds("SlotScheduler", 16, [&] {
    sched = std::make_unique<driver::SlotScheduler>(
        drv, driver::SlotScheduler::Config{});
  });
  std::unique_ptr<driver::PlacementEngine> engine;
  expect_adds("PlacementEngine", 10, [&] {
    engine = std::make_unique<driver::PlacementEngine>(
        drv, soc.allocator(), driver::PlacementEngine::Config{});
  });
  std::unique_ptr<driver::BitstreamDelivery> delivery;
  expect_adds("BitstreamDelivery", 5, [&] {
    delivery = std::make_unique<driver::BitstreamDelivery>(soc.cpu());
  });
  storage::MemBlockIo io(soc.sd_card());
  driver::RecoveryJournal journal(
      io, driver::RecoveryJournal::region_for(soc.sd_card().block_count()));
  std::unique_ptr<driver::RecoveryManager> recovery;
  expect_adds("RecoveryManager", 14, [&] {
    recovery = std::make_unique<driver::RecoveryManager>(soc.cpu(), journal);
  });

  const std::string text = obs::stats_text(soc.sim().obs());
  for (const std::string& n : names) {
    EXPECT_NE(text.find("] " + n + " = "), std::string::npos) << n;
    // perfbench owns the driver.* prefix and sums these suffixes into
    // its own AXI metrics.
    EXPECT_NE(n.rfind("driver.", 0), 0u) << n;
    EXPECT_FALSE(n.ends_with(".beats") || n.ends_with(".stall_cycles")) << n;
  }
}

}  // namespace
}  // namespace rvcap
