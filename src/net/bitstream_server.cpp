#include "net/bitstream_server.hpp"

#include <span>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "obs/observability.hpp"

namespace rvcap::net {

namespace sites = sim::fault_sites;

BitstreamServer::BitstreamServer(std::string name, NetLink& link, Config cfg)
    : Component(std::move(name)), cfg_(cfg), link_(link) {
  if (cfg_.chunk_bytes == 0) cfg_.chunk_bytes = 1024;
  link_.b_rx().watch_as_consumer(this);
  link_.b_tx().watch_as_producer(this);
}

void BitstreamServer::on_register(obs::Observability& o) {
  obs::CounterRegistry& c = o.counters();
  c.register_fn("net.server.requests", [this] { return requests_; });
  c.register_fn("net.server.served", [this] { return served_; });
  c.register_fn("net.server.errors", [this] { return errors_; });
  c.register_fn("net.server.stalled", [this] { return stalled_; });
}

NetFrame BitstreamServer::build_response(const NetFrame& req) const {
  NetFrame r;
  r.image = req.image;
  r.chunk = req.chunk;
  auto it = images_.find(req.image);
  if (it == images_.end()) {
    r.op = NetFrame::Op::kError;
    r.status = static_cast<u32>(Status::kNotFound);
    return r;
  }
  const std::vector<u8>& img = it->second;
  const u32 total =
      static_cast<u32>((img.size() + cfg_.chunk_bytes - 1) / cfg_.chunk_bytes);
  if (req.chunk >= total) {
    r.op = NetFrame::Op::kError;
    r.status = static_cast<u32>(Status::kOutOfRange);
    return r;
  }
  r.op = NetFrame::Op::kData;
  r.total_chunks = total;
  r.image_bytes = static_cast<u32>(img.size());
  const usize off = usize{req.chunk} * cfg_.chunk_bytes;
  const usize len = std::min<usize>(cfg_.chunk_bytes, img.size() - off);
  r.payload.assign(img.begin() + static_cast<long>(off),
                   img.begin() + static_cast<long>(off + len));
  r.crc = crc32(std::span<const u8>(r.payload));
  return r;
}

bool BitstreamServer::tick() {
  if (pending_) {
    if (sim_now() < ready_at_) return false;  // wheel wake pending
    if (!link_.b_tx().can_push()) return false;  // fifo pop wakes us
    link_.b_tx().push(std::move(response_));
    pending_ = false;
    return true;
  }
  if (!link_.b_rx().can_pop()) return false;
  NetFrame req = std::move(*link_.b_rx().pop());
  ++requests_;
  if (req.op != NetFrame::Op::kRrq) return true;  // drop strays
  if (fi_ != nullptr && fi_->should_fire(sites::kNetServerStall)) {
    // Overloaded server: request silently swallowed, client times out.
    ++stalled_;
    return true;
  }
  response_ = build_response(req);
  if (response_.op == NetFrame::Op::kError) {
    ++errors_;
  } else {
    ++served_;
  }
  pending_ = true;
  ready_at_ = sim_now() + kServiceCycles;
  wake_at(ready_at_);
  return true;
}

}  // namespace rvcap::net
