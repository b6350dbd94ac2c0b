// Coverage for the smaller components: floorplan rendering, the
// peripheral window decode of the register path, channel wires, and
// the UART model.
#include <gtest/gtest.h>

#include <sstream>

#include "axi/lite_path.hpp"
#include "axi/wires.hpp"
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

// The peripheral window: a decoded register path in front of two
// register files, driven as the 64-bit bus drives it.
struct LiteBusFixture : ::testing::Test {
  LiteBusFixture() : bus("litebus"), dev_a("a", 1), dev_b("b", 1) {
    bus.add_device(axi::AddrRange{0x1000, 0x100}, &dev_a.port());
    bus.add_device(axi::AddrRange{0x2000, 0x100}, &dev_b.port());
    s.add(&bus);
    s.add(&dev_a);
    s.add(&dev_b);
  }
  sim::Simulator s;
  axi::LitePath bus;
  test::ScratchRegs dev_a, dev_b;
};

TEST_F(LiteBusFixture, RoutesByWindow) {
  EXPECT_EQ(test::bfm_write64(s, bus.upstream(), 0x1010, 42, 0x0F),
            axi::Resp::kOkay);
  EXPECT_EQ(dev_a.regs[0x1010], 42u);
  EXPECT_TRUE(dev_b.write_log.empty());
}

TEST_F(LiteBusFixture, ReadReturnsDeviceData) {
  dev_b.regs[0x2004] = 0xBEEF;
  bus.upstream().ar.push(axi::AxiAr{0x2004, 0, 2});
  ASSERT_TRUE(s.run_until([&] { return bus.upstream().r.can_pop(); }, 1000));
  EXPECT_EQ(bus.upstream().r.pop()->data >> 32, 0xBEEFu);  // high lane
}

TEST_F(LiteBusFixture, UnmappedAccessGetsDecErr) {
  bus.upstream().ar.push(axi::AxiAr{0x9999, 0, 2});
  ASSERT_TRUE(s.run_until([&] { return bus.upstream().r.can_pop(); }, 1000));
  EXPECT_EQ(bus.upstream().r.pop()->resp, axi::Resp::kDecErr);
  EXPECT_EQ(test::bfm_write64(s, bus.upstream(), 0x9998, 1, 0x0F),
            axi::Resp::kDecErr);
  EXPECT_EQ(bus.decode_errors(), 2u);
}

TEST_F(LiteBusFixture, ResponsesStayInRequestOrder) {
  dev_a.regs[0x1000] = 1;
  dev_b.regs[0x2000] = 2;
  bus.upstream().ar.push(axi::AxiAr{0x1000, 0, 2});
  bus.upstream().ar.push(axi::AxiAr{0x2000, 0, 2});
  std::vector<u32> got;
  ASSERT_TRUE(s.run_until(
      [&] {
        while (bus.upstream().r.can_pop()) {
          got.push_back(static_cast<u32>(bus.upstream().r.pop()->data));
        }
        return got.size() == 2;
      },
      1000));
  EXPECT_EQ(got, (std::vector<u32>{1, 2}));
}

TEST_F(LiteBusFixture, OverlappingWindowRejected) {
  axi::AxiLitePort extra;
  EXPECT_THROW(bus.add_device(axi::AddrRange{0x1080, 0x100}, &extra),
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

TEST(Wires, LitePathCarriesBothDirections) {
  // The request reaches the device port in its own cycle; the response
  // is back upstream after the direct chain's response hops.
  sim::Simulator s;
  axi::AxiLitePort b;
  axi::LitePath path("w", b);
  s.add(&path);
  path.upstream().ar.push(axi::AxiAr{0x4, 0, 2});
  s.run_cycles(1);
  ASSERT_TRUE(b.ar.can_pop());
  b.r.push(axi::LiteR{7, axi::Resp::kOkay});
  s.run_cycles(axi::LitePath::kDirectHops - 1);
  EXPECT_FALSE(path.upstream().r.can_pop());
  s.run_cycles(1);
  ASSERT_TRUE(path.upstream().r.can_pop());
  EXPECT_EQ(path.upstream().r.pop()->data >> 32, 7u);  // high lane
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
