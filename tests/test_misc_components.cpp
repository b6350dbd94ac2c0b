// Coverage for the smaller components: floorplan rendering, the
// peripheral window decode of the CPU's register windows, channel
// wires, and the UART model.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "axi/crossbar.hpp"
#include "axi/wires.hpp"
#include "cpu/cpu.hpp"
#include "fabric/floorplan.hpp"
#include "sim/simulator.hpp"
#include "soc/uart.hpp"
#include "testutil.hpp"

namespace rvcap {
namespace {

TEST(Floorplan, RendersGridWithPartitionMarker) {
  const auto dev = fabric::DeviceGeometry::kintex7_325t();
  const auto rp = fabric::case_study_partition(dev);
  const fabric::FloorplanRegion regions[] = {{"RP0", &rp, '#'}};
  const std::string fp = fabric::render_floorplan(dev, regions);

  // One line per row plus legend; the marker appears exactly 13 times
  // (the partition's columns, one row).
  EXPECT_NE(fp.find("Y0"), std::string::npos);
  EXPECT_NE(fp.find("Y6"), std::string::npos);
  EXPECT_NE(fp.find("legend"), std::string::npos);
  EXPECT_NE(fp.find("RP0"), std::string::npos);
  EXPECT_NE(fp.find("3200 LUT"), std::string::npos);
  usize markers = 0;
  for (char c : fp) markers += (c == '#');
  EXPECT_EQ(markers, 13u + 1u);  // 13 grid cells + 1 legend occurrence
}

TEST(Floorplan, NoRegionsStillRendersDevice) {
  const auto dev = fabric::DeviceGeometry::kintex7_325t();
  const std::string fp = fabric::render_floorplan(dev, {});
  // 72 CLB columns per row, 7 rows — counted on grid lines only (the
  // header and legend also contain '.' characters).
  usize clbs = 0;
  std::istringstream lines(fp);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("  Y", 0) != 0) continue;
    for (char c : line) clbs += (c == '.');
  }
  EXPECT_EQ(clbs, 72u * 7u);
}

// The peripheral window: a decoded register window of the CPU in front
// of two register files, with a hole around them.
struct LiteBusFixture : ::testing::Test {
  LiteBusFixture() : cpu(s), xbar("xbar"), dev_a("a"), dev_b("b") {
    xbar.add_manager(&cpu.port());
    window(axi::AddrRange{0x1000, 0x100}, &dev_a);
    window(axi::AddrRange{0x2000, 0x100}, &dev_b);
    window(axi::AddrRange{0, 0x10000}, nullptr);
    s.add(&xbar);
    s.add(&dev_a);
    s.add(&dev_b);
  }
  void window(const axi::AddrRange& range, axi::AxiLiteSlave* device) {
    cpu.add_register_window(range, device, cpu::CpuContext::kDecodedHops,
                            xbar);
  }
  sim::Simulator s;
  cpu::CpuContext cpu;
  axi::AxiCrossbar xbar;
  test::ScratchRegs dev_a, dev_b;
};

TEST_F(LiteBusFixture, RoutesByWindow) {
  cpu.store32_uncached(0x1010, 42);
  EXPECT_EQ(dev_a.regs[0x1010], 42u);
  EXPECT_TRUE(dev_b.write_log.empty());
  EXPECT_EQ(cpu.bus_errors(), 0u);
}

TEST_F(LiteBusFixture, ReadReturnsDeviceData) {
  dev_b.regs[0x2004] = 0xBEEF;
  EXPECT_EQ(cpu.load32_uncached(0x2004), 0xBEEFu);
}

TEST_F(LiteBusFixture, UnmappedAccessGetsDecErr) {
  EXPECT_EQ(cpu.load32_uncached(0x9998), 0u);
  cpu.store32_uncached(0x9998, 1);
  EXPECT_EQ(cpu.bus_errors(), 2u);
  EXPECT_TRUE(dev_a.write_log.empty());
  EXPECT_TRUE(dev_b.write_log.empty());
  EXPECT_EQ(xbar.decode_errors(), 0u);  // the window's decoder answered
}

TEST_F(LiteBusFixture, OverlappingWindowRejected) {
  test::ScratchRegs extra("extra");
  EXPECT_THROW(window(axi::AddrRange{0x1080, 0x100}, &extra),
               std::invalid_argument);
}

TEST(Wires, AxisWireMovesOneBeatPerCycle) {
  sim::Simulator s;
  axi::AxisFifo a(8), b(8);
  axi::AxisWire wire("w", a, b);
  s.add(&wire);
  for (u64 i = 0; i < 5; ++i) a.push(axi::AxisBeat{i});
  s.run_cycles(5);
  EXPECT_EQ(b.size(), 5u);
  for (u64 i = 0; i < 5; ++i) EXPECT_EQ(b.pop()->data, i);
}

TEST(UartModel, LsrAlwaysReady) {
  sim::Simulator s;
  soc::Uart uart("uart");
  s.add(&uart);
  uart.port().ar.push(axi::LiteAr{soc::Uart::kLsr});
  ASSERT_TRUE(s.run_until([&] { return uart.port().r.can_pop(); }, 100));
  EXPECT_EQ(uart.port().r.pop()->data & 0x60, 0x60u);
}

}  // namespace
}  // namespace rvcap
