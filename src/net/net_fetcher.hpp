// TFTP-style chunked bitstream fetch client (driver side).
//
// Host-software driver in the co-simulation style of src/driver: plain
// C++ whose every memory touch and wait goes through cpu::CpuContext,
// so fetch time is simulated time. The protocol is stop-and-wait, one
// outstanding chunk request (pr_tftp.c's flow: fetch into DDR, hand
// the base address to the reconfiguration machinery).
//
// Robustness contract per chunk: CRC32 verified against the server's
// digest before a byte lands in DDR; timeout + bounded retry with
// capped exponential backoff and seeded jitter (common/retry.hpp);
// stale and duplicated frames discarded by (image, chunk) match. Per
// transfer: resumable — a failed fetch records its high-water chunk
// and a later fetch of the same image to the same address continues
// where it stopped instead of starting over. Across transfers: a
// circuit breaker counts consecutive failed fetches and, once open,
// fails fast with Status::kUnavailable until a cooldown elapses; the
// first fetch after cooldown is the half-open probe that closes the
// breaker on success. Never returns kOk with a partial image in DDR.
#pragma once

#include <map>
#include <string>
#include <string_view>

#include "common/retry.hpp"
#include "common/status.hpp"
#include "cpu/cpu.hpp"
#include "net/net_link.hpp"
#include "obs/counters.hpp"

namespace rvcap::net {

class NetFetcher {
 public:
  struct Config {
    u32 chunk_bytes = 1024;          // must match the server's
    Cycles response_timeout = 50'000;  // per-attempt wait for a frame
    RetryPolicy retry{
        /*max_attempts=*/5,
        /*backoff_base=*/2'000,
        /*backoff_cap=*/32'000,
        /*jitter_permille=*/250,
    };
    u32 breaker_threshold = 3;   // consecutive failures to open
    Cycles breaker_cooldown = 500'000;  // open -> half-open delay
  };
  static constexpr u64 kRetrySeed = 0x5eed;  // jitter stream seed

  NetFetcher(cpu::CpuContext& cpu, NetLink& link, Config cfg);

  /// Fetch `image` into DDR at `dest` (capacity bytes available).
  /// kOk: *bytes_out holds the exact image size and DDR holds a
  /// complete, chunk-CRC-verified copy. Any other status: DDR contents
  /// at `dest` are unspecified and must not be consumed.
  Status fetch(std::string_view image, Addr dest, u32 capacity,
               u32* bytes_out);

  /// Breaker state, for tests and the delivery layer's fast-path.
  bool breaker_open() const;

  // ---- lifetime statistics ----
  u64 fetches_ok() const { return fetches_ok_; }
  u64 fetches_failed() const { return fetches_failed_; }
  u64 chunk_retries() const { return chunk_retries_; }
  u64 chunk_timeouts() const { return chunk_timeouts_; }
  u64 chunk_crc_errors() const { return chunk_crc_errors_; }
  u64 stale_frames() const { return stale_frames_; }
  u64 resumed_transfers() const { return resumed_transfers_; }
  u64 breaker_trips() const { return breaker_trips_; }
  u64 breaker_fast_fails() const { return breaker_fast_fails_; }

 private:
  /// Partial-transfer state for resume: chunks [0, next_chunk) are
  /// verified in DDR at `dest`.
  struct Partial {
    Addr dest = 0;
    u32 next_chunk = 0;
    u32 total_chunks = 0;
    u32 image_bytes = 0;
  };

  Status fetch_chunk(std::string_view image, u32 chunk, Addr dest,
                     u32 capacity, Partial* p);
  Status wait_response(std::string_view image, u32 chunk, NetFrame* out);
  u16 image_id(std::string_view image);
  void note_result(std::string_view image, Status s);

  cpu::CpuContext& cpu_;
  NetLink& link_;
  Config cfg_;
  u64 retry_streams_ = 0;  // per-chunk-loop jitter stream counter

  std::map<std::string, Partial, std::less<>> partial_;
  std::map<std::string, u16, std::less<>> image_ids_;

  // Circuit breaker.
  u32 consecutive_failures_ = 0;
  bool open_ = false;
  Cycles open_until_ = 0;

  obs::TraceSink* sink_ = nullptr;
  u16 src_ = 0;
  obs::Histogram* fetch_hist_ = nullptr;
  obs::Histogram* chunk_hist_ = nullptr;
  obs::Histogram* backoff_hist_ = nullptr;

  u64 fetches_ok_ = 0;
  u64 fetches_failed_ = 0;
  u64 chunk_retries_ = 0;
  u64 chunk_timeouts_ = 0;
  u64 chunk_crc_errors_ = 0;
  u64 stale_frames_ = 0;
  u64 resumed_transfers_ = 0;
  u64 breaker_trips_ = 0;
  u64 breaker_fast_fails_ = 0;
};

}  // namespace rvcap::net
