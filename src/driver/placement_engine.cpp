#include "driver/placement_engine.hpp"

#include <algorithm>
#include <cstdio>

#include "bitstream/compress.hpp"
#include "bitstream/preflight.hpp"
#include "bitstream/relocate.hpp"
#include "common/bytes.hpp"

namespace rvcap::driver {

PlacementEngine::PlacementEngine(RvCapDriver& drv,
                                 fabric::FabricAllocator& alloc,
                                 const Config& cfg)
    : drv_(drv), alloc_(alloc), cfg_(cfg) {
  obs::Observability& o = drv_.cpu_context().simulator().obs();
  trace_ = TraceSource(drv_.cpu_context(), "placement_engine");
  obs::CounterRegistry& c = o.counters();
  c.register_fields("place.", stats_,
                    {{"requests", &Stats::requests},
                     {"relocations", &Stats::relocations},
                     {"reloc_hits", &Stats::reloc_cache_hits},
                     {"reloc_failures", &Stats::reloc_failures},
                     {"migrations", &Stats::migrations},
                     {"compactions", &Stats::compactions},
                     {"span_grants", &Stats::span_grants},
                     {"span_rejects", &Stats::span_rejects}});
  // Live state of the class slot 0's region belongs to.
  c.register_fn("place.free_regions", [this] {
    return alloc_.num_regions() == 0 ? 0
                                     : alloc_.free_count(alloc_.class_of(0));
  });
  c.register_fn("place.frag_pct", [this] {
    return alloc_.num_regions() == 0
               ? 0
               : static_cast<u64>(
                     alloc_.fragmentation(alloc_.class_of(0)) * 100.0);
  });
}

PlacementEngine::ModuleSpec* PlacementEngine::find(std::string_view name) {
  for (ModuleSpec& m : modules_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

PlacementEngine::Variant* PlacementEngine::find_variant(std::string_view name,
                                                        u32 region) {
  for (Variant& v : materialized_) {
    if (v.region == region && v.module == name) return &v;
  }
  return nullptr;
}

Status PlacementEngine::register_module(std::string name, u32 rm_id,
                                        u32 home_region, Addr addr,
                                        u32 bytes) {
  if (home_region >= alloc_.num_regions()) return Status::kInvalidArgument;
  if (find(name) != nullptr) return Status::kAlreadyExists;
  ModuleSpec m;
  m.name = std::move(name);
  m.rm_id = rm_id;
  m.home_region = home_region;
  m.src_addr = addr;
  m.src_bytes = bytes;
  m.src_crc = ddr_crc(drv_.cpu_context(), addr, bytes);
  modules_.push_back(std::move(m));
  return Status::kOk;
}

Status PlacementEngine::register_remote(std::string name, u32 rm_id,
                                        u32 home_region, std::string image) {
  if (home_region >= alloc_.num_regions()) return Status::kInvalidArgument;
  if (source_ == nullptr) return Status::kInvalidArgument;
  if (find(name) != nullptr) return Status::kAlreadyExists;
  ModuleSpec m;
  m.name = std::move(name);
  m.rm_id = rm_id;
  m.home_region = home_region;
  m.image = std::move(image);
  modules_.push_back(std::move(m));
  return Status::kOk;
}

bool PlacementEngine::has_module(std::string_view name) const {
  return const_cast<PlacementEngine*>(this)->find(name) != nullptr;
}

const PlacementEngine::ModuleSpec* PlacementEngine::module(
    std::string_view name) const {
  return const_cast<PlacementEngine*>(this)->find(name);
}

bool PlacementEngine::can_place(std::string_view name, u32 region) const {
  const ModuleSpec* m = module(name);
  if (m == nullptr || region >= alloc_.num_regions()) return false;
  return alloc_.compatible(m->home_region, region);
}

Status PlacementEngine::claim_arena_slot(Addr* addr) {
  if (cfg_.reloc_arena == 0) return Status::kInvalidArgument;
  if (next_arena_slot_ >= cfg_.reloc_slots) return Status::kNoSpace;
  *addr = cfg_.reloc_arena + u64{next_arena_slot_} * cfg_.reloc_slot_bytes;
  ++next_arena_slot_;
  return Status::kOk;
}

std::string PlacementEngine::variant_key(const ModuleSpec& m,
                                         u32 region) const {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "rl:%08x:r%u", m.src_crc, region);
  return buf;
}

Status PlacementEngine::ensure_source(ModuleSpec& m) {
  if (m.src_addr != 0) return Status::kOk;
  // Remote module: one delivery-chain fetch into a permanent arena
  // slot; every relocated variant derives from this single copy.
  if (source_ == nullptr) return Status::kInternal;
  Addr addr = 0;
  Status st = claim_arena_slot(&addr);
  if (!ok(st)) return st;
  u32 bytes = 0;
  st = source_->fetch(m.image, addr, cfg_.reloc_slot_bytes, &bytes);
  if (!ok(st)) {
    --next_arena_slot_;  // fetch landed nothing; reuse the slot
    return st;
  }
  m.src_addr = addr;
  m.src_bytes = bytes;
  m.src_crc = ddr_crc(drv_.cpu_context(), addr, bytes);
  return Status::kOk;
}

Status PlacementEngine::materialize(std::string_view name, u32 region,
                                    DprManager::StagedInfo* out) {
  ModuleSpec* m = find(name);
  if (m == nullptr) return Status::kNotFound;
  if (region >= alloc_.num_regions()) return Status::kInvalidArgument;
  ++stats_.requests;
  trace_.emit(obs::EventKind::kPlaceRequest, m->rm_id, region);

  Status st = ensure_source(*m);
  if (!ok(st)) {
    trace_.emit(obs::EventKind::kPlaceReject, m->rm_id, static_cast<u64>(st));
    return st;
  }

  if (region == m->home_region) {
    // The image is already implemented for this region.
    *out = {m->src_addr, m->src_bytes, m->rm_id};
    return Status::kOk;
  }
  if (!alloc_.compatible(m->home_region, region)) {
    trace_.emit(obs::EventKind::kPlaceReject, m->rm_id,
                static_cast<u64>(Status::kInvalidArgument));
    return Status::kInvalidArgument;
  }

  // Already materialized in the arena? Re-verify its seal before
  // reuse — a variant is golden data, never trusted blindly. A failed
  // re-check evicts the poisoned record; a fresh relocation replaces it.
  if (Variant* v = find_variant(name, region)) {
    if (ddr_crc(drv_.cpu_context(), v->addr, v->bytes) == v->crc) {
      ++stats_.reloc_cache_hits;
      trace_.emit(obs::EventKind::kPlaceRelocHit, m->rm_id, region);
      *out = {v->addr, v->bytes, m->rm_id};
      return Status::kOk;
    }
    materialized_.erase(materialized_.begin() + (v - materialized_.data()));
  }

  Addr addr = 0;
  st = claim_arena_slot(&addr);
  if (!ok(st)) {
    trace_.emit(obs::EventKind::kPlaceReject, m->rm_id, static_cast<u64>(st));
    return st;
  }

  // Shared variant cache: (source digest, target region) — a variant
  // relocated by any engine instance serves this one too, so one
  // network fetch of the source serves every slot of the class.
  const std::string key = variant_key(*m, region);
  if (variants_ != nullptr) {
    u32 bytes = 0;
    if (variants_->lookup(key, addr, cfg_.reloc_slot_bytes, &bytes)) {
      Variant v{std::string(name), region, addr, bytes,
                ddr_crc(drv_.cpu_context(), addr, bytes)};
      materialized_.push_back(std::move(v));
      ++stats_.reloc_cache_hits;
      trace_.emit(obs::EventKind::kPlaceRelocHit, m->rm_id, region);
      *out = {addr, bytes, m->rm_id};
      return Status::kOk;
    }
  }

  // Relocate: read the source image, retarget its FARs, re-validate
  // the result against the DESTINATION partition, seal under a CRC.
  cpu::CpuContext& cpu = drv_.cpu_context();
  std::vector<u8> src(m->src_bytes);
  cpu.read_buffer(m->src_addr, src);
  if (src.size() >= 4 &&
      load_be32(std::span<const u8>(src).first(4)) ==
          bitstream::kCompressMagic) {
    ++stats_.reloc_failures;
    --next_arena_slot_;
    trace_.emit(obs::EventKind::kPlaceReject, m->rm_id,
                static_cast<u64>(Status::kProtocolError));
    return Status::kProtocolError;
  }
  std::vector<u8> moved;
  st = bitstream::relocate_bitstream(alloc_.device(),
                                     alloc_.partition(m->home_region),
                                     alloc_.partition(region), src, &moved);
  if (!ok(st)) {
    ++stats_.reloc_failures;
    --next_arena_slot_;
    trace_.emit(obs::EventKind::kPlaceReject, m->rm_id, static_cast<u64>(st));
    return st;
  }
  const bitstream::PreflightReport report = bitstream::preflight_check(
      moved, alloc_.device(), alloc_.partition(region), bitstream::kIdCode);
  if (!ok(report.status)) {
    ++stats_.reloc_failures;
    --next_arena_slot_;
    trace_.emit(obs::EventKind::kPlaceReject, m->rm_id,
                static_cast<u64>(report.status));
    return report.status;
  }
  if (moved.size() > cfg_.reloc_slot_bytes) {
    ++stats_.reloc_failures;
    --next_arena_slot_;
    return Status::kNoSpace;
  }

  cpu.write_buffer(addr, moved);
  Variant v{std::string(name), region, addr, static_cast<u32>(moved.size()),
            crc32(moved)};
  *out = {addr, v.bytes, m->rm_id};
  materialized_.push_back(std::move(v));
  if (variants_ != nullptr) {
    variants_->insert(key, addr, static_cast<u32>(moved.size()));
  }
  ++stats_.relocations;
  trace_.emit(obs::EventKind::kPlaceRelocate, m->rm_id, m->home_region, region);
  return Status::kOk;
}

void PlacementEngine::note_migration(u64 task, u32 from_slot, u32 to_slot) {
  ++stats_.migrations;
  trace_.emit(obs::EventKind::kPlaceMigrate, task, from_slot, to_slot);
}

void PlacementEngine::note_compaction(u32 class_id, usize migrations,
                                      u32 len) {
  ++stats_.compactions;
  trace_.emit(obs::EventKind::kPlaceCompact, class_id, migrations, len);
}

void PlacementEngine::note_span_grant(u32 class_id, u32 base_region,
                                      u32 len) {
  ++stats_.span_grants;
  trace_.emit(obs::EventKind::kPlaceSpan, class_id, base_region, len);
}

void PlacementEngine::note_span_release(u32 class_id, u32 base_region,
                                        u32 len) {
  trace_.emit(obs::EventKind::kPlaceSpanFree, class_id, base_region, len);
}

void PlacementEngine::note_span_reject(u32 class_id) {
  ++stats_.span_rejects;
  trace_.emit(obs::EventKind::kPlaceReject, class_id,
              static_cast<u64>(Status::kNoSpace));
}

}  // namespace rvcap::driver
