// Uniform bitstream acquisition: SD, network, verified DDR cache.
//
// The DprManager used to know exactly one way to find bytes — a FAT32
// path on the local SD card. Fleet deployment adds a second: pull the
// image from a shared repository over a lossy link (net::NetFetcher).
// BitstreamSource abstracts "get image X into DDR at Y, completely or
// not at all" so the staging path is source-agnostic, and
// BitstreamDelivery composes the concrete sources into the degradation
// chain the service relies on:
//
//   verified cache -> network -> SD fallback -> fail
//
// The in-DDR BitstreamCache is integrity-checked on EVERY hit: the
// stored CRC32 is recomputed over the cached bytes before they are
// copied out, and a mismatch poisons the entry (evicted, counted,
// traced) and falls through to a real source — a cache can go bad
// under the same DDR upsets the rest of the system models, and a
// poisoned hit must never masquerade as a fetch. Every delivery's path
// is a kNetDeliver trace event and lands in the net.delivery.* counters.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"
#include "cpu/cpu.hpp"
#include "driver/primitives.hpp"
#include "net/net_fetcher.hpp"
#include "obs/counters.hpp"
#include "storage/fat32.hpp"

namespace rvcap::driver {

/// Where to get a named image from. fetch() either lands the complete
/// image at `dest` (returning its exact size) or fails leaving the
/// destination unspecified — partial images are never reported as ok.
class BitstreamSource {
 public:
  virtual ~BitstreamSource() = default;
  virtual Status fetch(std::string_view image, Addr dest, u32 capacity,
                       u32* bytes_out) = 0;
  virtual bool has_image(std::string_view image) const = 0;
  virtual std::string_view source_name() const = 0;
};

/// Local SD card: `image` is a FAT32 path on the volume. The classic
/// path, now also the fallback when the network is out.
class SdBitstreamSource : public BitstreamSource {
 public:
  SdBitstreamSource(cpu::CpuContext& cpu, storage::Fat32Volume& volume)
      : cpu_(cpu), volume_(volume) {}

  Status fetch(std::string_view image, Addr dest, u32 capacity,
               u32* bytes_out) override;
  bool has_image(std::string_view image) const override;
  std::string_view source_name() const override { return "sd"; }

 private:
  cpu::CpuContext& cpu_;
  storage::Fat32Volume& volume_;
};

/// Networked repository via the TFTP-style fetcher. has_image() is
/// optimistic — only the server knows its catalogue, and asking costs
/// a round trip; fetch() reports kNotFound definitively.
class NetBitstreamSource : public BitstreamSource {
 public:
  explicit NetBitstreamSource(net::NetFetcher& fetcher)
      : fetcher_(fetcher) {}

  Status fetch(std::string_view image, Addr dest, u32 capacity,
               u32* bytes_out) override {
    return fetcher_.fetch(image, dest, capacity, bytes_out);
  }
  bool has_image(std::string_view) const override { return true; }
  std::string_view source_name() const override { return "net"; }

  net::NetFetcher& fetcher() { return fetcher_; }
  const net::NetFetcher& fetcher() const { return fetcher_; }

 private:
  net::NetFetcher& fetcher_;
};

/// Integrity-verified image cache in a dedicated DDR region. Slot
/// granular (one image per fixed-size slot, LRU eviction); the digest
/// recorded at insert is re-verified on every lookup before a byte is
/// copied out.
class BitstreamCache {
 public:
  struct Config {
    Addr base = 0;           // DDR region start (caller-reserved)
    u32 slot_bytes = 1 << 20;
    u32 slots = 4;
  };

  BitstreamCache(cpu::CpuContext& cpu, const Config& cfg);

  /// Verified hit: copies the cached image to `dest` and returns true.
  /// A digest mismatch evicts the entry (poisoned) and returns false.
  bool lookup(std::string_view image, Addr dest, u32 capacity,
              u32* bytes_out);
  /// Copy `bytes` at `src` into a cache slot under `image`. Oversized
  /// images are not cached (no error — caching is best-effort).
  void insert(std::string_view image, Addr src, u32 bytes);
  /// Drop an entry (e.g. the repository updated the image).
  void invalidate(std::string_view image);

  u64 hits() const { return hits_; }
  u64 misses() const { return misses_; }
  u64 poisoned() const { return poisoned_; }
  u64 evictions() const { return evictions_; }
  u64 inserts() const { return inserts_; }

 private:
  struct Entry {
    std::string image;
    u32 bytes = 0;
    u32 crc = 0;
    u64 last_use = 0;
    bool valid = false;
  };

  Entry* find(std::string_view image);
  void ddr_copy(Addr src, Addr dst, u32 bytes);
  Addr slot_addr(usize i) const {
    return cfg_.base + u64{static_cast<u32>(i)} * cfg_.slot_bytes;
  }

  cpu::CpuContext& cpu_;
  Config cfg_;
  std::vector<Entry> entries_;
  u64 use_clock_ = 0;
  TraceSource trace_;
  u64 hits_ = 0;
  u64 misses_ = 0;
  u64 poisoned_ = 0;
  u64 evictions_ = 0;
  u64 inserts_ = 0;
};

/// How a delivery was ultimately satisfied.
enum class DeliveryPath : u8 { kCache, kNet, kSdFallback, kFailed };
std::string_view to_string(DeliveryPath p);

/// The degradation chain: cache, then primary (network), then fallback
/// (SD). Successful real fetches are inserted into the cache so the
/// next request for the same image is a local copy. Every delivery's
/// outcome (path, status, latency) is a kNetDeliver trace event of
/// source "bitstream_delivery".
class BitstreamDelivery : public BitstreamSource {
 public:
  explicit BitstreamDelivery(cpu::CpuContext& cpu);

  void set_primary(BitstreamSource* s) { primary_ = s; }
  void set_fallback(BitstreamSource* s) { fallback_ = s; }
  void attach_cache(BitstreamCache* c) { cache_ = c; }

  Status fetch(std::string_view image, Addr dest, u32 capacity,
               u32* bytes_out) override;
  bool has_image(std::string_view image) const override;
  std::string_view source_name() const override { return "delivery"; }

  u64 cache_hits() const { return cache_hits_; }
  u64 net_deliveries() const { return net_ok_; }
  u64 sd_fallbacks() const { return sd_fallbacks_; }
  u64 failures() const { return failures_; }

 private:
  void record(u16 id, DeliveryPath path, Status status, Cycles cycles);
  u16 image_id(std::string_view image);

  cpu::CpuContext& cpu_;
  BitstreamSource* primary_ = nullptr;
  BitstreamSource* fallback_ = nullptr;
  BitstreamCache* cache_ = nullptr;

  std::map<std::string, u16, std::less<>> image_ids_;

  TraceSource trace_;
  obs::Histogram* delivery_hist_ = nullptr;

  u64 ok_ = 0;
  u64 cache_hits_ = 0;
  u64 net_ok_ = 0;
  u64 sd_fallbacks_ = 0;
  u64 failures_ = 0;
};

}  // namespace rvcap::driver
