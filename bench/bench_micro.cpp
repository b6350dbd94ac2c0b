// Micro-benchmarks (google-benchmark) of the simulation substrate
// itself: how fast the kernel, interconnect, ICAP path and workload
// generators run on the host. These guard against performance
// regressions that would make the table harnesses impractically slow.
//
// After the google-benchmark suite, main() runs the kernel comparison:
// each workload executes once under Mode::kFlat and once under
// Mode::kScheduled, asserts cycle-level equivalence, prints the
// SimStats work-avoidance counters, and appends the wall-clock numbers
// to BENCH_kernel.json (the perf trajectory record). Exit status is
// non-zero if the two kernels diverge.
// `bench_micro --trace[=path]` skips the benchmark suite and instead
// captures a fully traced DMA reconfiguration: it writes a
// Perfetto-loadable Chrome trace (default trace.json), prints the
// counter/histogram dump, and reports the tracing overhead on the
// tick rate (EXPERIMENTS.md).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "accel/filters.hpp"
#include "bench_util.hpp"
#include "bitstream/generator.hpp"
#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "driver/primitives.hpp"
#include "driver/spi_sd.hpp"
#include "fabric/frame_ecc.hpp"
#include "icap/icap.hpp"
#include "mem/ddr.hpp"
#include "obs/export.hpp"
#include "sim/simulator.hpp"
#include "storage/fat32.hpp"

namespace {

using namespace rvcap;

void BM_FifoPushPop(benchmark::State& state) {
  sim::Fifo<u64> f(64);
  u64 v = 0;
  for (auto _ : state) {
    f.push(v++);
    benchmark::DoNotOptimize(f.pop());
  }
}
BENCHMARK(BM_FifoPushPop);

class Nop : public sim::Component {
 public:
  Nop() : Component("nop") {}
  bool tick() override {
    benchmark::DoNotOptimize(count_++);
    return true;  // free-running: measures raw dispatch, never sleeps
  }

 private:
  u64 count_ = 0;
};

void BM_SimulatorTick(benchmark::State& state) {
  sim::Simulator s;
  std::vector<std::unique_ptr<Nop>> comps;
  for (i64 i = 0; i < state.range(0); ++i) {
    comps.push_back(std::make_unique<Nop>());
    s.add(comps.back().get());
  }
  for (auto _ : state) s.step();
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimulatorTick)->Arg(8)->Arg(64)->Arg(256);

void BM_DdrBurstRead(benchmark::State& state) {
  sim::Simulator s;
  mem::DdrController ddr("ddr");
  s.add(&ddr);
  for (auto _ : state) {
    ddr.port().ar.push(axi::AxiAr{0x1000, 15, 3});
    u32 got = 0;
    while (got < 16) {
      s.step();
      while (ddr.port().r.can_pop()) {
        ddr.port().r.pop();
        ++got;
      }
    }
  }
  state.SetBytesProcessed(state.iterations() * 16 * 8);
}
BENCHMARK(BM_DdrBurstRead);

void BM_IcapWordDecode(benchmark::State& state) {
  const auto dev = fabric::DeviceGeometry::kintex7_325t();
  fabric::ConfigMemory cfg(dev);
  icap::Icap icap("icap", cfg);
  sim::Simulator s;
  s.add(&icap);
  for (auto _ : state) {
    if (icap.port().can_push()) icap.port().push(bitstream::kNop);
    s.step();
  }
  state.SetBytesProcessed(state.iterations() * 4);
}
BENCHMARK(BM_IcapWordDecode);

void BM_GeneratePartialBitstream(benchmark::State& state) {
  const auto dev = fabric::DeviceGeometry::kintex7_325t();
  const auto rp = fabric::case_study_partition(dev);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bitstream::generate_partial_bitstream(dev, rp, {1, "bench"}));
  }
  state.SetBytesProcessed(state.iterations() * 650892);
}
BENCHMARK(BM_GeneratePartialBitstream);

void BM_GoldenFilter(benchmark::State& state) {
  const auto kind = static_cast<accel::FilterKind>(state.range(0));
  const accel::Image img = accel::make_test_image(512, 512, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(accel::apply_golden(kind, img));
  }
  state.SetBytesProcessed(state.iterations() * 512 * 512);
}
BENCHMARK(BM_GoldenFilter)->Arg(0)->Arg(1)->Arg(2);

void BM_ConfigCrc(benchmark::State& state) {
  bitstream::ConfigCrc crc;
  u32 w = 0;
  for (auto _ : state) {
    crc.update(2, w++);
    benchmark::DoNotOptimize(crc.value());
  }
  state.SetBytesProcessed(state.iterations() * 4);
}
BENCHMARK(BM_ConfigCrc);

void BM_Crc32(benchmark::State& state) {
  // One staged image's worth of bytes per iteration (the size of the
  // staged-CRC verify in DprManager::activate).
  std::vector<u8> data(650892);
  SplitMix64 rng(3);
  for (auto& b : data) b = rng.next_byte();
  for (auto _ : state) benchmark::DoNotOptimize(crc32(data));
  state.SetBytesProcessed(state.iterations() * data.size());
}
BENCHMARK(BM_Crc32);

void BM_FrameEcc(benchmark::State& state) {
  // One configuration frame per iteration, as ConfigMemory::write_frame
  // computes it.
  std::vector<u32> frame(fabric::kFrameWords);
  SplitMix64 rng(4);
  for (auto& w : frame) w = static_cast<u32>(rng.next());
  for (auto _ : state) {
    benchmark::DoNotOptimize(fabric::compute_frame_ecc(frame));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() * frame.size() * 4);
}
BENCHMARK(BM_FrameEcc);

void BM_SplitMix64(benchmark::State& state) {
  SplitMix64 rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.next());
}
BENCHMARK(BM_SplitMix64);

// ------------------------------------------------------------------
// Kernel comparison: flat vs. scheduled on SoC-scale workloads.
// ------------------------------------------------------------------

/// One workload execution under one kernel mode.
struct KernelRun {
  double seconds = 0;
  Cycles final_cycle = 0;
  sim::SimStats stats;
  double mbps = 0;   // reconfiguration cells only
  bool loaded = true;
  u32 crc = 0;       // icap_readback, spi_sd_stage: CRC-32 of the bytes
  u64 bus_ops = 0;   // spi_sd_stage: the CPU's bus reads + writes
};

/// The kernel work done since `before` (a cell that times one phase).
sim::SimStats stats_since(const sim::Simulator& sim,
                          const sim::SimStats& before) {
  sim::SimStats s = sim.stats();
  s.ticks_issued -= before.ticks_issued;
  s.ticks_skipped -= before.ticks_skipped;
  s.wakeups -= before.wakeups;
  s.time_skip_jumps -= before.time_skip_jumps;
  s.cycles_skipped -= before.cycles_skipped;
  return s;
}

const char* mode_name(sim::Simulator::Mode m) {
  return m == sim::Simulator::Mode::kFlat ? "flat" : "scheduled";
}

/// Idle-heavy workload: a fully assembled SoC left alone for a long
/// stretch of simulated time (the shape of the deadline/service
/// benches, where the platform waits between reconfigurations).
KernelRun run_idle_wait(sim::Simulator::Mode mode, Cycles cycles) {
  soc::SocConfig cfg;
  cfg.sim_mode = mode;
  soc::ArianeSoc soc(cfg);
  const auto t0 = std::chrono::steady_clock::now();
  soc.sim().run_cycles(cycles);
  const auto t1 = std::chrono::steady_clock::now();
  KernelRun r;
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  r.final_cycle = soc.sim().now();
  r.stats = soc.sim().stats();
  return r;
}

/// Busy workload: a complete Listing-1 reconfiguration (DMA + ICAP
/// streaming, interrupt completion). Little idle time, so this bounds
/// the scheduled kernel's bookkeeping overhead from above.
KernelRun run_dma_reconfig(sim::Simulator::Mode mode,
                           bool enable_trace = false) {
  soc::SocConfig cfg;
  cfg.sim_mode = mode;
  soc::ArianeSoc soc(cfg);
  driver::RvCapDriver drv(soc.cpu(), soc.plic());
  soc.sim().obs().sink().set_enabled(enable_trace);
  const auto t0 = std::chrono::steady_clock::now();
  const auto res = bench::run_rvcap_reconfig(soc, drv, accel::kRmIdSobel,
                                             driver::DmaMode::kInterrupt);
  const auto t1 = std::chrono::steady_clock::now();
  KernelRun r;
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  r.final_cycle = soc.sim().now();
  r.stats = soc.sim().stats();
  r.mbps = res.mbps;
  r.loaded = res.loaded;
  return r;
}

/// CPU-paced workload: one Fig. 3 window (2 columns) programmed
/// through the AXI_HWICAP keyhole at unroll 16. Every configuration
/// word is an uncached store, a timed register call over the HWICAP
/// window's converter chain, so this cell measures the CPU's bus waits
/// rather than the stream datapath.
KernelRun run_hwicap_program(sim::Simulator::Mode mode) {
  soc::SocConfig cfg;
  cfg.sim_mode = mode;
  cfg.with_hwicap = true;
  soc::ArianeSoc soc(cfg);
  driver::HwIcapDriver drv(soc.cpu(), 16);
  std::vector<fabric::Partition::ColumnRef> cols;
  const u32 row = soc.device().rows() / 2;
  for (u32 c = 2; c < 4; ++c) cols.push_back({row, c});
  const fabric::Partition rp("RP_sweep2", std::move(cols));
  const usize handle = soc.add_partition(rp);
  const auto pbit =
      bitstream::generate_partial_bitstream(soc.device(), rp, {7, "sweep"});
  const Addr staging = soc::MemoryMap::kPbitStagingBase;
  soc.ddr().poke(staging, pbit);
  const driver::ReconfigModule m{"", 7, staging,
                                 static_cast<u32>(pbit.size())};
  const auto t0 = std::chrono::steady_clock::now();
  const Status st = drv.init_reconfig_process(m);
  const auto t1 = std::chrono::steady_clock::now();
  KernelRun r;
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  r.final_cycle = soc.sim().now();
  r.stats = soc.sim().stats();
  r.mbps = pbit.size() / drv.last_timing().reconfig_us();
  r.loaded = ok(st) && soc.config_memory().partition_state(handle).loaded;
  return r;
}

/// Memory-path workload: ddr_crc over the case-study partial bitstream
/// staged in DDR (the staged-CRC verify of every activation). Each
/// 16-beat burst crosses main_xbar, rvcap.ddr_xbar and the DDR
/// controller; `loaded` holds whether the CRC matched.
KernelRun run_cpu_bulk_read(sim::Simulator::Mode mode, usize* bytes) {
  soc::SocConfig cfg;
  cfg.sim_mode = mode;
  soc::ArianeSoc soc(cfg);
  const auto pbit = bitstream::generate_partial_bitstream(
      soc.device(), soc.rp0(), {accel::kRmIdSobel, "sobel"});
  const Addr staging = soc::MemoryMap::kPbitStagingBase;
  soc.ddr().poke(staging, pbit);
  *bytes = pbit.size();
  const auto t0 = std::chrono::steady_clock::now();
  const u32 crc =
      driver::ddr_crc(soc.cpu(), staging, static_cast<u32>(pbit.size()));
  const auto t1 = std::chrono::steady_clock::now();
  KernelRun r;
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  r.final_cycle = soc.sim().now();
  r.stats = soc.sim().stats();
  r.loaded = crc == crc32(pbit);
  return r;
}

/// Readback workload: after a (untimed) Sobel load, every frame of RP0
/// is read back over the stream path (ICAP read port -> ICAP2AXIS ->
/// w7 -> DMA S2MM -> DDR). The stats cover the readback alone; *bytes
/// is the byte count landed in DDR.
KernelRun run_icap_readback(sim::Simulator::Mode mode, usize* bytes) {
  soc::SocConfig cfg;
  cfg.sim_mode = mode;
  soc::ArianeSoc soc(cfg);
  driver::RvCapDriver drv(soc.cpu(), soc.plic());
  const auto load = bench::run_rvcap_reconfig(soc, drv, accel::kRmIdSobel,
                                              driver::DmaMode::kInterrupt);
  const sim::SimStats before = soc.sim().stats();
  constexpr Addr kCmd = 0x8C00'0000;
  constexpr Addr kDst = 0x8D00'0000;
  u32 words = 0;
  const auto t0 = std::chrono::steady_clock::now();
  const Status st = drv.readback_partition(soc.device(), soc.rp0(), kCmd,
                                           kDst, &words);
  const auto t1 = std::chrono::steady_clock::now();
  KernelRun r;
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  r.final_cycle = soc.sim().now();
  r.stats = stats_since(soc.sim(), before);
  std::vector<u8> data(usize{words} * 4);
  soc.ddr().peek(kDst, data);
  *bytes = data.size();
  r.crc = crc32(data);
  r.loaded = load.loaded && ok(st) && words > 0;
  return r;
}

/// SD staging workload: RvCapDriver::init_RModules of one 16 KB file
/// from a FAT32 card into DDR, every byte an SPI shift polled by the
/// CPU (SPISR/SPIDTR/SPIDRR). The stats and bus ops cover
/// init_RModules alone; `crc` is over the staged bytes, *bytes their
/// count.
KernelRun run_spi_sd_stage(sim::Simulator::Mode mode, usize* bytes) {
  soc::SocConfig cfg;
  cfg.sim_mode = mode;
  soc::ArianeSoc soc(cfg);
  std::vector<u8> file(16 * 1024);
  SplitMix64 rng(0x5D5'7A6E);
  for (u8& b : file) b = static_cast<u8>(rng.next());
  storage::MemBlockIo host_io(soc.sd_card());
  bool ok_all = ok(storage::fat32_format(host_io));
  {
    storage::Fat32Volume host_vol(host_io);
    ok_all = ok_all && ok(host_vol.mount()) &&
             ok(host_vol.write_file("STAGE.PB", file));
  }
  driver::SpiSdDriver sd(soc.cpu());
  driver::CpuBlockIo io(sd, soc.sd_card().block_count());
  storage::Fat32Volume vol(io);
  ok_all = ok_all && ok(sd.init_card()) && ok(vol.mount());
  driver::RvCapDriver drv(soc.cpu(), soc.plic());
  driver::ReconfigModule mods[] = {{"STAGE.PB", 9, 0, 0}};
  const sim::SimStats before = soc.sim().stats();
  const u64 ops_before = soc.cpu().bus_reads() + soc.cpu().bus_writes();
  const auto t0 = std::chrono::steady_clock::now();
  const Status st = drv.init_RModules(mods, vol);
  const auto t1 = std::chrono::steady_clock::now();
  KernelRun r;
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  r.final_cycle = soc.sim().now();
  r.stats = stats_since(soc.sim(), before);
  r.bus_ops = soc.cpu().bus_reads() + soc.cpu().bus_writes() - ops_before;
  std::vector<u8> staged(mods[0].pbit_size);
  soc.ddr().peek(mods[0].start_address, staged);
  *bytes = staged.size();
  r.crc = crc32(staged);
  r.loaded = ok_all && ok(st) && staged == file;
  return r;
}

void print_run(const char* workload, sim::Simulator::Mode mode,
               const KernelRun& r) {
  std::printf(
      "  %-14s %-9s %9.3f s   cycle %12llu   ticks %12llu   "
      "skipped %12llu   wakeups %9llu   jumps %6llu\n",
      workload, mode_name(mode), r.seconds,
      static_cast<unsigned long long>(r.final_cycle),
      static_cast<unsigned long long>(r.stats.ticks_issued),
      static_cast<unsigned long long>(r.stats.ticks_skipped),
      static_cast<unsigned long long>(r.stats.wakeups),
      static_cast<unsigned long long>(r.stats.time_skip_jumps));
}

void json_run(std::FILE* f, const char* key, const KernelRun& r) {
  std::fprintf(f,
               "    \"%s\": {\"seconds\": %.6f, \"final_cycle\": %llu, "
               "\"ticks_issued\": %llu, \"ticks_skipped\": %llu, "
               "\"wakeups\": %llu, \"time_skip_jumps\": %llu, "
               "\"cycles_skipped\": %llu}",
               key, r.seconds,
               static_cast<unsigned long long>(r.final_cycle),
               static_cast<unsigned long long>(r.stats.ticks_issued),
               static_cast<unsigned long long>(r.stats.ticks_skipped),
               static_cast<unsigned long long>(r.stats.wakeups),
               static_cast<unsigned long long>(r.stats.time_skip_jumps),
               static_cast<unsigned long long>(r.stats.cycles_skipped));
}

int run_kernel_comparison() {
  using Mode = sim::Simulator::Mode;
  bench::print_header(
      "Kernel comparison: flat vs. activity-scheduled (BENCH_kernel.json)");

  // CI smoke runs (sanitizers, shared runners) shrink the idle window;
  // the recorded BENCH_kernel.json comes from a full local run.
  const bool quick = std::getenv("BENCH_KERNEL_QUICK") != nullptr;
  const Cycles idle_cycles = quick ? 200'000 : 5'000'000;

  const KernelRun idle_flat = run_idle_wait(Mode::kFlat, idle_cycles);
  const KernelRun idle_sched = run_idle_wait(Mode::kScheduled, idle_cycles);
  const KernelRun dma_flat = run_dma_reconfig(Mode::kFlat);
  const KernelRun dma_sched = run_dma_reconfig(Mode::kScheduled);
  const KernelRun hw_flat = run_hwicap_program(Mode::kFlat);
  const KernelRun hw_sched = run_hwicap_program(Mode::kScheduled);
  usize bulk_bytes = 0;
  const KernelRun bulk_flat = run_cpu_bulk_read(Mode::kFlat, &bulk_bytes);
  const KernelRun bulk_sched =
      run_cpu_bulk_read(Mode::kScheduled, &bulk_bytes);
  usize rb_bytes = 0;
  const KernelRun rb_flat = run_icap_readback(Mode::kFlat, &rb_bytes);
  const KernelRun rb_sched = run_icap_readback(Mode::kScheduled, &rb_bytes);
  usize sd_bytes = 0;
  const KernelRun sd_flat = run_spi_sd_stage(Mode::kFlat, &sd_bytes);
  const KernelRun sd_sched = run_spi_sd_stage(Mode::kScheduled, &sd_bytes);

  print_run("idle_wait", Mode::kFlat, idle_flat);
  print_run("idle_wait", Mode::kScheduled, idle_sched);
  print_run("dma_reconfig", Mode::kFlat, dma_flat);
  print_run("dma_reconfig", Mode::kScheduled, dma_sched);
  print_run("hwicap_program", Mode::kFlat, hw_flat);
  print_run("hwicap_program", Mode::kScheduled, hw_sched);
  print_run("cpu_bulk_read", Mode::kFlat, bulk_flat);
  print_run("cpu_bulk_read", Mode::kScheduled, bulk_sched);
  print_run("icap_readback", Mode::kFlat, rb_flat);
  print_run("icap_readback", Mode::kScheduled, rb_sched);
  print_run("spi_sd_stage", Mode::kFlat, sd_flat);
  print_run("spi_sd_stage", Mode::kScheduled, sd_sched);

  auto speedup = [](const KernelRun& flat, const KernelRun& sched) {
    return sched.seconds > 0 ? flat.seconds / sched.seconds : 0;
  };
  auto same_reconfig = [](const KernelRun& flat, const KernelRun& sched) {
    return flat.final_cycle == sched.final_cycle &&
           flat.mbps == sched.mbps && flat.loaded && sched.loaded;
  };
  const double idle_speedup = speedup(idle_flat, idle_sched);
  const double dma_speedup = speedup(dma_flat, dma_sched);
  const double hw_speedup = speedup(hw_flat, hw_sched);
  const double bulk_speedup = speedup(bulk_flat, bulk_sched);
  const double rb_speedup = speedup(rb_flat, rb_sched);
  const double sd_speedup = speedup(sd_flat, sd_sched);

  const bool idle_match = idle_flat.final_cycle == idle_sched.final_cycle;
  const bool dma_match = same_reconfig(dma_flat, dma_sched);
  const bool hw_match = same_reconfig(hw_flat, hw_sched);
  const bool bulk_match = bulk_flat.final_cycle == bulk_sched.final_cycle &&
                          bulk_flat.loaded && bulk_sched.loaded;
  const bool rb_match = rb_flat.final_cycle == rb_sched.final_cycle &&
                        rb_flat.crc == rb_sched.crc && rb_flat.loaded &&
                        rb_sched.loaded;
  const bool sd_match = sd_flat.final_cycle == sd_sched.final_cycle &&
                        sd_flat.crc == sd_sched.crc &&
                        sd_flat.bus_ops == sd_sched.bus_ops &&
                        sd_flat.loaded && sd_sched.loaded;

  std::printf("\n  idle_wait:      %.1fx speedup, cycle counts %s\n",
              idle_speedup, idle_match ? "MATCH" : "DIVERGED");
  std::printf("  dma_reconfig:   %.2fx speedup, cycle counts + MB/s %s "
              "(%.1f MB/s both modes)\n",
              dma_speedup, dma_match ? "MATCH" : "DIVERGED",
              dma_sched.mbps);
  std::printf("  hwicap_program: %.2fx speedup, cycle counts + MB/s %s "
              "(%.2f MB/s both modes)\n",
              hw_speedup, hw_match ? "MATCH" : "DIVERGED", hw_sched.mbps);
  std::printf("  cpu_bulk_read:  %.2fx speedup, cycle counts + CRC %s "
              "(%zu B)\n",
              bulk_speedup, bulk_match ? "MATCH" : "DIVERGED", bulk_bytes);
  std::printf("  icap_readback:  %.2fx speedup, cycle counts + bytes %s "
              "(%zu B)\n",
              rb_speedup, rb_match ? "MATCH" : "DIVERGED", rb_bytes);
  const auto ns_per_op = [](const KernelRun& r) {
    return r.bus_ops > 0 ? r.seconds * 1e9 / r.bus_ops : 0;
  };
  std::printf("  spi_sd_stage:   %.2fx speedup, cycle counts + bytes %s "
              "(%zu B, %llu bus ops, %.0f / %.0f host ns per bus op "
              "flat / scheduled)\n",
              sd_speedup, sd_match ? "MATCH" : "DIVERGED", sd_bytes,
              static_cast<unsigned long long>(sd_sched.bus_ops),
              ns_per_op(sd_flat), ns_per_op(sd_sched));

  const char* path = std::getenv("BENCH_KERNEL_JSON");
  if (path == nullptr) path = "BENCH_kernel.json";
  if (std::FILE* f = std::fopen(path, "w")) {
    std::fprintf(f, "{\n  \"bench\": \"bench_micro kernel comparison\",\n");
    std::fprintf(f, "  \"idle_wait\": {\n    \"cycles\": %llu,\n",
                 static_cast<unsigned long long>(idle_cycles));
    json_run(f, "flat", idle_flat);
    std::fprintf(f, ",\n");
    json_run(f, "scheduled", idle_sched);
    std::fprintf(f, ",\n    \"speedup\": %.2f, \"cycles_match\": %s\n  },\n",
                 idle_speedup, idle_match ? "true" : "false");
    std::fprintf(f, "  \"dma_reconfig\": {\n");
    json_run(f, "flat", dma_flat);
    std::fprintf(f, ",\n");
    json_run(f, "scheduled", dma_sched);
    std::fprintf(f,
                 ",\n    \"mbps\": %.2f, \"speedup\": %.2f, "
                 "\"cycles_match\": %s\n  },\n",
                 dma_sched.mbps, dma_speedup, dma_match ? "true" : "false");
    std::fprintf(f, "  \"hwicap_program\": {\n");
    json_run(f, "flat", hw_flat);
    std::fprintf(f, ",\n");
    json_run(f, "scheduled", hw_sched);
    std::fprintf(f,
                 ",\n    \"mbps\": %.2f, \"speedup\": %.2f, "
                 "\"cycles_match\": %s\n  },\n",
                 hw_sched.mbps, hw_speedup, hw_match ? "true" : "false");
    std::fprintf(f, "  \"cpu_bulk_read\": {\n");
    json_run(f, "flat", bulk_flat);
    std::fprintf(f, ",\n");
    json_run(f, "scheduled", bulk_sched);
    std::fprintf(f,
                 ",\n    \"bytes\": %zu, \"speedup\": %.2f, "
                 "\"cycles_match\": %s\n  },\n",
                 bulk_bytes, bulk_speedup, bulk_match ? "true" : "false");
    std::fprintf(f, "  \"icap_readback\": {\n");
    json_run(f, "flat", rb_flat);
    std::fprintf(f, ",\n");
    json_run(f, "scheduled", rb_sched);
    std::fprintf(f,
                 ",\n    \"bytes\": %zu, \"speedup\": %.2f, "
                 "\"cycles_match\": %s\n  },\n",
                 rb_bytes, rb_speedup, rb_match ? "true" : "false");
    std::fprintf(f, "  \"spi_sd_stage\": {\n");
    json_run(f, "flat", sd_flat);
    std::fprintf(f, ",\n");
    json_run(f, "scheduled", sd_sched);
    std::fprintf(f,
                 ",\n    \"bytes\": %zu, \"bus_ops\": %llu, "
                 "\"speedup\": %.2f, \"cycles_match\": %s\n  }\n}\n",
                 sd_bytes, static_cast<unsigned long long>(sd_sched.bus_ops),
                 sd_speedup, sd_match ? "true" : "false");
    std::fclose(f);
    std::printf("  wrote %s\n", path);
  } else {
    std::printf("  WARNING: could not open %s for writing\n", path);
  }

  if (!idle_match || !dma_match || !hw_match || !bulk_match || !rb_match ||
      !sd_match) {
    std::printf("\nKERNEL DIVERGENCE DETECTED — see DESIGN.md §9\n");
    return 1;
  }
  return 0;
}

// ------------------------------------------------------------------
// --trace mode: capture a Perfetto-loadable trace + overhead numbers
// ------------------------------------------------------------------

int run_trace_capture(const char* path) {
  bench::print_header("Traced DMA reconfiguration -> Chrome trace JSON");
  if (!obs::trace_compiled_in()) {
    std::printf("  built with RVCAP_NO_TRACE: event tracing is compiled "
                "out, nothing to capture\n");
    return 1;
  }

  // Overhead on the same workload: macros present but sink disabled
  // (the default build's steady state) vs. sink enabled and recording.
  const KernelRun off = run_dma_reconfig(sim::Simulator::Mode::kScheduled,
                                         /*enable_trace=*/false);
  const KernelRun on = run_dma_reconfig(sim::Simulator::Mode::kScheduled,
                                        /*enable_trace=*/true);
  const double rate_off =
      off.seconds > 0 ? static_cast<double>(off.final_cycle) / off.seconds : 0;
  const double rate_on =
      on.seconds > 0 ? static_cast<double>(on.final_cycle) / on.seconds : 0;
  std::printf("  compiled-in, disabled: %.1f Mcycle/s\n", rate_off / 1e6);
  std::printf("  enabled + recording:   %.1f Mcycle/s (%.1f%% of disabled)"
              "\n",
              rate_on / 1e6, rate_off > 0 ? 100.0 * rate_on / rate_off : 0);
  if (!off.loaded || !on.loaded) {
    std::printf("  ERROR: reconfiguration failed\n");
    return 1;
  }

  // The enabled run above threw its SoC away; capture a fresh traced
  // run and export everything it observed.
  soc::SocConfig cfg;
  soc::ArianeSoc soc(cfg);
  driver::RvCapDriver drv(soc.cpu(), soc.plic());
  soc.sim().obs().sink().set_enabled(true);
  const auto res = bench::run_rvcap_reconfig(soc, drv, accel::kRmIdSobel,
                                             driver::DmaMode::kInterrupt);
  if (!res.loaded) {
    std::printf("  ERROR: traced reconfiguration failed\n");
    return 1;
  }
  if (!obs::write_chrome_trace(soc.sim().obs(), path)) {
    std::printf("  ERROR: could not write %s\n", path);
    return 1;
  }
  const obs::TraceSink& sink = soc.sim().obs().sink();
  std::printf("  wrote %s (%llu events emitted, %zu retained)\n", path,
              static_cast<unsigned long long>(sink.total_events()),
              sink.events().size());
  std::printf("\n%s", obs::stats_text(soc.sim().obs()).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Strip --trace[=path] before google-benchmark sees the arg list.
  const char* trace_path = nullptr;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0) {
      trace_path = "trace.json";
    } else if (std::strncmp(argv[i], "--trace=", 8) == 0) {
      trace_path = argv[i] + 8;
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  if (trace_path != nullptr) return run_trace_capture(trace_path);

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return run_kernel_comparison();
}
