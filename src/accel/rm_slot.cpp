#include "accel/rm_slot.hpp"

#include <stdexcept>

#include "accel/stream_filter.hpp"
#include "common/log.hpp"

namespace rvcap::accel {

RmSlot::RmSlot(std::string name, fabric::ConfigMemory& cfg,
               usize partition_handle, axi::AxisFifo& in)
    : Component(std::move(name)), cfg_(cfg), handle_(partition_handle),
      in_(in) {
  in_.watch_as_consumer(this);
  out_.watch_as_producer(this);
  cfg_.add_observer(this);
}

void RmSlot::register_behavior(
    u32 rm_id, std::function<std::unique_ptr<RmBehavior>()> make) {
  factories_[rm_id] = std::move(make);
}

bool RmSlot::tick() {
  bool progress = false;
  const auto st = cfg_.partition_state(handle_);
  const u32 wanted = st.loaded ? st.rm_id : 0;
  // A completed reload of the same module is still a fresh
  // configuration: the logic comes up in its initial state.
  if (wanted != active_id_ ||
      (wanted != 0 && st.loads_completed != active_load_count_)) {
    active_.reset();
    active_id_ = 0;
    if (wanted != 0) {
      const auto it = factories_.find(wanted);
      if (it == factories_.end()) {
        log_warn("rm_slot: no behavior registered for rm_id ", wanted);
      } else {
        active_ = it->second();
        active_->reset();
        active_id_ = wanted;
        active_load_count_ = st.loads_completed;
        ++activations_;
        log_debug("rm_slot: activated rm_id ", wanted);
      }
    }
    progress = true;
  }
  if (active_ != nullptr) {
    const u64 pushed_before = out_.total_pushed();
    if (active_->tick(in_, out_)) progress = true;
    if (st.essential_upsets != 0 && out_.total_pushed() != pushed_before) {
      // An outstanding essential upset garbles the module's datapath:
      // the beat it just emitted comes out corrupted, and stays that
      // way until the scrub service repairs the frame.
      if (axi::AxisBeat* beat = out_.back()) beat->data ^= kSeuCorruptMask;
      ++corrupted_beats_;
    }
  } else if (in_.can_pop()) {
    // Unconfigured fabric: beats fall on the floor (the isolator should
    // have prevented them from arriving in the first place).
    in_.pop();
    progress = true;
  }
  return progress;
}

bool RmSlot::busy() const {
  return (active_ != nullptr && active_->busy()) || in_.can_pop() ||
         out_.can_pop();
}

u32 RmSlot::rm_reg_read(u32 index) {
  if (index == 15) return active_id_;
  return active_ ? active_->reg_read(index) : 0;
}

void RmSlot::rm_reg_write(u32 index, u32 value) {
  if (active_ != nullptr) {
    active_->reg_write(index, value);
    wake();  // a register write may unblock module-side work
  }
}

void register_case_study_filters(RmSlot& slot) {
  slot.register_behavior(kRmIdSobel, [] {
    return std::make_unique<StreamFilter>(sobel_params());
  });
  slot.register_behavior(kRmIdMedian, [] {
    return std::make_unique<StreamFilter>(median_params());
  });
  slot.register_behavior(kRmIdGaussian, [] {
    return std::make_unique<StreamFilter>(gaussian_params());
  });
}

FilterKind rm_id_to_kind(u32 rm_id) {
  switch (rm_id) {
    case kRmIdSobel: return FilterKind::kSobel;
    case kRmIdMedian: return FilterKind::kMedian;
    case kRmIdGaussian: return FilterKind::kGaussian;
    default: throw std::invalid_argument("unknown rm_id");
  }
}

u32 kind_to_rm_id(FilterKind kind) {
  switch (kind) {
    case FilterKind::kSobel: return kRmIdSobel;
    case FilterKind::kMedian: return kRmIdMedian;
    case FilterKind::kGaussian: return kRmIdGaussian;
  }
  throw std::invalid_argument("unknown kind");
}

}  // namespace rvcap::accel
