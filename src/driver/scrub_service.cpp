#include "driver/scrub_service.hpp"

#include <algorithm>

#include "common/units.hpp"
#include "driver/frame_check.hpp"

namespace rvcap::driver {

using fabric::EccClass;
using fabric::FrameAddr;
using fabric::kFrameWords;

ScrubService::ScrubService(RvCapDriver& drv, fabric::ConfigMemory& mem,
                           ReconfigService& svc, const Config& cfg)
    : drv_(drv), mem_(mem), svc_(svc), cfg_(cfg) {
  if (cfg_.frames_per_slice == 0) cfg_.frames_per_slice = 1;
  obs::Observability& o = drv_.cpu_context().simulator().obs();
  trace_ = TraceSource(drv_.cpu_context(), "scrub_service");
  obs::CounterRegistry& c = o.counters();
  c.register_fields("scrub.", stats_,
                    {{"passes", &Stats::passes},
                     {"frames", &Stats::frames_scrubbed},
                     {"detections", &Stats::detections},
                     {"correctable", &Stats::correctable},
                     {"uncorrectable", &Stats::uncorrectable},
                     {"essential", &Stats::essential},
                     {"benign", &Stats::benign},
                     {"rewrites", &Stats::frame_rewrites},
                     {"reloads", &Stats::partition_reloads},
                     {"rewrite_verify_failures",
                      &Stats::rewrite_verify_failures},
                     {"reload_failures", &Stats::reload_failures},
                     {"transport_errors", &Stats::transport_errors},
                     {"yields", &Stats::yields},
                     {"done_irqs", &Stats::done_irqs},
                     {"error_irqs", &Stats::error_irqs},
                     {"upsets_seen", &Stats::upsets_seen},
                     {"upsets_detected", &Stats::upsets_detected},
                     {"upsets_repaired", &Stats::upsets_repaired},
                     {"upsets_self_cancelled", &Stats::upsets_self_cancelled},
                     {"mttd_cycles_total", &Stats::mttd_cycles_total},
                     {"mttr_cycles_total", &Stats::mttr_cycles_total},
                     {"frames_per_sec", &Stats::last_pass_frames_per_sec}});
  c.register_fn("scrub.pending", [this] { return pending_upsets(); });
  c.register_fn("scrub.mean_mttd_cycles",
                [this] { return static_cast<u64>(mean_mttd_cycles()); });
  c.register_fn("scrub.mean_mttr_cycles",
                [this] { return static_cast<u64>(mean_mttr_cycles()); });
  mttd_cycles_ = c.histogram("scrub.mttd_cycles");
  mttr_cycles_ = c.histogram("scrub.mttr_cycles");
}

void ScrubService::watch_partition(usize handle, std::string module) {
  watches_.push_back({handle, std::move(module)});
  addrs_.push_back(mem_.partition(handle).frame_addrs(mem_.device()));
}

void ScrubService::set_irqs(irq::IrqLine done, irq::IrqLine error) {
  irq_done_ = done;
  irq_error_ = error;
}

void ScrubService::ack_irqs() {
  irq_done_.set(false);
  irq_error_.set(false);
}

void ScrubService::install_upset_feed() {
  mem_.set_upset_observer([this](const fabric::ConfigMemory::UpsetEvent& ev) {
    ++stats_.upsets_seen;
    // Upsets on frames outside any loaded partition are still scrubbed
    // (the frame was written at some point), so track every landed one.
    // now() is a pure read of the simulated clock — safe from inside a
    // ConfigMemory notification (no bus access, no time advance).
    pending_.push_back({ev.fa.encode(), now(), 0, ev.essential});
    trace_.emit(obs::EventKind::kScrubUpset, ev.fa.encode(),
                (u64{ev.word} << 8) | ev.bit);
  });
}

u64 ScrubService::pending_essential() const {
  u64 n = 0;
  for (const PendingUpset& p : pending_) n += p.essential ? 1 : 0;
  return n;
}

u64 ScrubService::max_pending_age(u64 now_cycles) const {
  u64 age = 0;
  for (const PendingUpset& p : pending_) {
    if (now_cycles > p.injected_at) age = std::max(age, now_cycles - p.injected_at);
  }
  return age;
}

void ScrubService::note_detected(PendingUpset& p, u64 t) {
  p.detected_at = t;
  ++stats_.upsets_detected;
  stats_.mttd_cycles_total += t - p.injected_at;
  if (mttd_cycles_ != nullptr) mttd_cycles_->record(t - p.injected_at);
}

void ScrubService::mark_detected(u32 far, u64 t) {
  for (PendingUpset& p : pending_) {
    if (p.far == far && p.detected_at == 0) note_detected(p, t);
  }
}

void ScrubService::resolve_if(
    const std::function<bool(const PendingUpset&)>& repaired, u64 t) {
  auto it = pending_.begin();
  while (it != pending_.end()) {
    if (!repaired(*it)) {
      ++it;
      continue;
    }
    if (it->detected_at == 0) note_detected(*it, t);
    ++stats_.upsets_repaired;
    stats_.mttr_cycles_total += t - it->injected_at;
    if (mttr_cycles_ != nullptr) mttr_cycles_->record(t - it->injected_at);
    it = pending_.erase(it);
  }
}

void ScrubService::resolve_repaired(u32 far, u64 t) {
  // Only upsets whose flip is actually gone from the fabric count as
  // repaired — one landing between the verify read and now stays
  // pending for the next pass.
  if (mem_.outstanding_flips(FrameAddr::decode(far)) != 0) return;
  resolve_if([far](const PendingUpset& p) { return p.far == far; }, t);
}

void ScrubService::resolve_partition(usize handle, u64 t) {
  const fabric::Partition& part = mem_.partition(handle);
  resolve_if(
      [&](const PendingUpset& p) {
        const FrameAddr fa = FrameAddr::decode(p.far);
        return part.contains(mem_.device(), fa) &&
               mem_.outstanding_flips(fa) == 0;
      },
      t);
}

void ScrubService::resolve_clean(u32 far, u64 /*t*/) {
  // A clean syndrome with pending upsets on the frame means the flips
  // cancelled out (the same bit hit an even number of times): the
  // fabric is intact, so the entries are closed rather than repaired.
  auto it = pending_.begin();
  while (it != pending_.end()) {
    if (it->far != far ||
        mem_.outstanding_flips(FrameAddr::decode(far)) != 0) {
      ++it;
      continue;
    }
    ++stats_.upsets_self_cancelled;
    it = pending_.erase(it);
  }
}

void ScrubService::verdict(obs::EventKind kind, const FrameAddr& fa,
                           EccClass cls, u32 word, u32 bit, bool essential) {
  trace_.emit(kind, fa.encode(), (u64{word} << 8) | bit,
              (u64{essential} << 8) | static_cast<u64>(cls));
}

void ScrubService::raise_done() {
  irq_done_.set(true);
  ++stats_.done_irqs;
}

void ScrubService::raise_error() {
  irq_error_.set(true);
  ++stats_.error_irqs;
}

void ScrubService::yield_to_queue() {
  // Background repair never outranks a foreground request that is
  // already admitted: dispatch the queue dry before touching the ICAP.
  while (svc_.queue_depth() > 0) {
    if (!svc_.step()) break;
    ++stats_.yields;
  }
}

Status ScrubService::read_frame(const FrameAddr& fa, std::vector<u32>* out) {
  const Status st =
      drv_.readback(fa, kFrameWords, cfg_.cmd_staging, cfg_.rb_buffer);
  if (ok(st)) load_frame(drv_.cpu_context(), cfg_.rb_buffer, out);
  return st;
}

Status ScrubService::escalate_reload(const Watch& w) {
  ++stats_.partition_reloads;
  if (w.module.empty()) {
    ++stats_.reload_failures;
    return Status::kNotFound;  // no reload source registered
  }
  intent(IntentOp::kScrubReload, w);
  ReconfigService::ActivationRequest req;
  req.module = w.module;
  req.client_id = kClientId;
  // The partition may still track as loaded (SEUs bypass the
  // activation trackers) — force the rewrite anyway.
  req.force = true;
  ReconfigService::RequestId id = 0;
  if (auto st = svc_.submit(req, &id); !ok(st)) {
    ++stats_.reload_failures;
    return st;
  }
  // drain() dispatches best-first, so foreground requests that arrive
  // meanwhile still jump ahead of this background reload.
  svc_.drain();
  if (!mem_.partition_state(w.handle).loaded) {
    ++stats_.reload_failures;
    const auto* rec = svc_.record(id);
    return rec != nullptr && !ok(rec->status) ? rec->status
                                              : Status::kInternal;
  }
  resolve_partition(w.handle, now());
  intent(IntentOp::kScrubReloadDone, w);
  return Status::kOk;
}

void ScrubService::intent(IntentOp op, const Watch& w) {
  if (intent_ == nullptr) return;
  IntentRecord r;
  r.op = op;
  r.slot = static_cast<u16>(w.handle);
  r.rm_id = mem_.partition_state(w.handle).rm_id;
  r.mtime = drv_.mtime();
  // A failed append must not block the repair: boot-time replay is the
  // consumer of whatever partial journal the power loss left behind.
  (void)intent_->append(r);
}

Status ScrubService::scrub_frame(const Watch& w) {
  const FrameAddr fa = addrs_[cur_watch_][cur_frame_];
  std::vector<u32> words;
  if (auto st = read_frame(fa, &words); !ok(st)) {
    ++stats_.transport_errors;
    verdict(obs::EventKind::kScrubReadFail, fa, EccClass::kClean, 0, 0,
            false);
    return st;
  }
  ++stats_.frames_scrubbed;

  fabric::EccDecode d;
  if (auto st = check_frame(mem_, fa, words, &d); !ok(st)) {
    return st;  // loaded => written
  }
  if (d.cls == EccClass::kClean) {
    resolve_clean(fa.encode(), now());
    return Status::kOk;
  }

  ++stats_.detections;
  trace_.emit(obs::EventKind::kScrubDetect, fa.encode(),
              static_cast<u64>(d.cls));
  mark_detected(fa.encode(), now());
  const auto ps = mem_.partition_state(w.handle);

  if (d.cls == EccClass::kCorrectable) {
    ++stats_.correctable;
    const bool essential = fabric::essential_bit(
        ps.rm_id, static_cast<u32>(cur_frame_), d.word, d.bit);
    essential ? ++stats_.essential : ++stats_.benign;
    // The base frame carries the RM manifest: rewriting it alone would
    // restart the partition's configuration pass, so escalate instead.
    if (cur_frame_ != 0) {
      words[d.word] ^= 1u << d.bit;
      // Re-read the rewritten frame before counting the repair.
      Status st = drv_.write_frame(fa, words, cfg_.cmd_staging);
      if (ok(st)) {
        std::vector<u32> check;
        fabric::EccDecode v;
        st = read_frame(fa, &check);
        if (ok(st)) st = check_frame(mem_, fa, check, &v);
        if (ok(st) && v.cls != EccClass::kClean) {
          // >2 flips can alias to a single-bit syndrome; the verify
          // read catches the miscorrection and forces a reload.
          st = Status::kCrcError;
        }
      }
      if (ok(st)) {
        ++stats_.frame_rewrites;
        verdict(obs::EventKind::kScrubRewrite, fa, d.cls, d.word, d.bit,
                essential);
        resolve_repaired(fa.encode(), now());
        return Status::kOk;
      }
      ++stats_.rewrite_verify_failures;
      verdict(obs::EventKind::kScrubRewriteFail, fa, d.cls, d.word, d.bit,
              essential);
    }
  } else {
    ++stats_.uncorrectable;
  }

  verdict(obs::EventKind::kScrubReload, fa, d.cls, d.word, d.bit, false);
  return escalate_reload(w);
}

void ScrubService::finish_pass() {
  ++stats_.passes;
  const u64 elapsed = now() - pass_start_;
  const u64 frames = addrs_[cur_watch_].size();
  stats_.last_pass_frames_per_sec =
      elapsed == 0 ? 0 : frames * kCoreClockHz / elapsed;
  trace_.emit(obs::EventKind::kScrubPass, stats_.passes, frames, elapsed);
  cur_frame_ = 0;
  cur_watch_ = (cur_watch_ + 1) % watches_.size();
  raise_done();
}

Status ScrubService::step() {
  if (watches_.empty()) return Status::kOk;
  drv_.cpu_context().spend_call_overhead();
  Status result = Status::kOk;
  for (u32 budget = cfg_.frames_per_slice; budget > 0; --budget) {
    yield_to_queue();
    const Watch& w = watches_[cur_watch_];
    if (cur_frame_ == 0) pass_start_ = now();
    if (!mem_.partition_state(w.handle).loaded) {
      // Nothing coherent to scrub against. With a reload source the
      // partition is brought back; without one the (empty) pass
      // completes trivially so rotation and scrub_pass() still advance.
      if (!w.module.empty()) {
        if (auto st = escalate_reload(w); !ok(st)) {
          raise_error();
          result = st;
          break;
        }
        continue;
      }
      ++stats_.passes;
      cur_frame_ = 0;
      cur_watch_ = (cur_watch_ + 1) % watches_.size();
      continue;
    }
    if (auto st = scrub_frame(w); !ok(st)) {
      raise_error();
      result = st;
      break;
    }
    if (++cur_frame_ >= addrs_[cur_watch_].size()) {
      // A pass boundary ends the slice: counters stay crisp (exactly
      // one partition traversal per pass) and the supervisor sees the
      // done IRQ before the next traversal starts.
      finish_pass();
      break;
    }
  }
  return result;
}

Status ScrubService::scrub_pass() {
  if (watches_.empty()) return Status::kOk;
  const u64 target = stats_.passes + watches_.size();
  u64 guard = 0;
  while (stats_.passes < target) {
    if (auto st = step(); !ok(st)) return st;
    if (++guard > 1'000'000) return Status::kTimeout;
  }
  return Status::kOk;
}

}  // namespace rvcap::driver
