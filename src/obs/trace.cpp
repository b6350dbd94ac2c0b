#include "obs/trace.hpp"

namespace rvcap::obs {

std::string_view event_name(EventKind k) {
  switch (k) {
    case EventKind::kAxiRead: return "axi_read";
    case EventKind::kAxiWrite: return "axi_write";
    case EventKind::kAxisBeat: return "axis_beat";
    case EventKind::kIcapWord: return "icap_word";
    case EventKind::kIcapFrame: return "icap_frame";
    case EventKind::kIcapDesync: return "icap_desync";
    case EventKind::kIcapReadWord: return "icap_read_word";
    case EventKind::kDmaMm2sStart: return "dma_mm2s_start";
    case EventKind::kDmaMm2sDone: return "dma_mm2s_done";
    case EventKind::kDmaMm2sError: return "dma_mm2s_error";
    case EventKind::kDmaS2mmStart: return "dma_s2mm_start";
    case EventKind::kDmaS2mmDone: return "dma_s2mm_done";
    case EventKind::kSvcSubmit: return "svc_submit";
    case EventKind::kSvcAdmit: return "svc_admit";
    case EventKind::kSvcReject: return "svc_reject";
    case EventKind::kSvcCoalesce: return "svc_coalesce";
    case EventKind::kSvcShed: return "svc_shed";
    case EventKind::kSvcCancel: return "svc_cancel";
    case EventKind::kSvcDeadlineMiss: return "svc_deadline_miss";
    case EventKind::kSvcDispatch: return "svc_dispatch";
    case EventKind::kSvcComplete: return "svc_complete";
    case EventKind::kSvcFail: return "svc_fail";
    case EventKind::kSvcHang: return "svc_hang";
    case EventKind::kDprStage: return "dpr_stage";
    case EventKind::kScrubUpset: return "scrub_upset";
    case EventKind::kScrubPass: return "scrub_pass";
    case EventKind::kScrubDetect: return "scrub_detect";
    case EventKind::kScrubRewrite: return "scrub_rewrite";
    case EventKind::kScrubRewriteFail: return "scrub_rewrite_fail";
    case EventKind::kScrubReload: return "scrub_reload";
    case EventKind::kScrubReadFail: return "scrub_read_fail";
    case EventKind::kIrqRaise: return "irq_raise";
    case EventKind::kIrqLower: return "irq_lower";
    case EventKind::kIrqClaim: return "irq_claim";
    case EventKind::kIrqComplete: return "irq_complete";
    case EventKind::kNetTx: return "net_tx";
    case EventKind::kNetRx: return "net_rx";
    case EventKind::kNetDrop: return "net_drop";
    case EventKind::kNetDup: return "net_dup";
    case EventKind::kNetCorrupt: return "net_corrupt";
    case EventKind::kNetReorder: return "net_reorder";
    case EventKind::kNetFetchStart: return "net_fetch_start";
    case EventKind::kNetFetchDone: return "net_fetch_done";
    case EventKind::kNetFetchFail: return "net_fetch_fail";
    case EventKind::kNetRetry: return "net_retry";
    case EventKind::kNetBreakerOpen: return "net_breaker_open";
    case EventKind::kNetBreakerClose: return "net_breaker_close";
    case EventKind::kNetCacheHit: return "net_cache_hit";
    case EventKind::kNetCacheMiss: return "net_cache_miss";
    case EventKind::kNetCachePoison: return "net_cache_poison";
    case EventKind::kNetFallback: return "net_fallback";
    case EventKind::kNetDeliver: return "net_deliver";
    case EventKind::kSlotPlace: return "slot_place";
    case EventKind::kSlotPreempt: return "slot_preempt";
    case EventKind::kSlotCapture: return "slot_capture";
    case EventKind::kSlotRestore: return "slot_restore";
    case EventKind::kSlotResume: return "slot_resume";
    case EventKind::kSlotRollback: return "slot_rollback";
    case EventKind::kSlotShed: return "slot_shed";
    case EventKind::kSlotSwapHang: return "slot_swap_hang";
    case EventKind::kSlotComplete: return "slot_complete";
    case EventKind::kSlotDeadlineMiss: return "slot_deadline_miss";
    case EventKind::kPlaceRequest: return "place_request";
    case EventKind::kPlaceRelocate: return "place_relocate";
    case EventKind::kPlaceRelocHit: return "place_reloc_hit";
    case EventKind::kPlaceReject: return "place_reject";
    case EventKind::kPlaceMigrate: return "place_migrate";
    case EventKind::kPlaceCompact: return "place_compact";
    case EventKind::kPlaceSpan: return "place_span";
    case EventKind::kPlaceSpanFree: return "place_span_free";
    case EventKind::kRecovPowerLoss: return "recov_power_loss";
    case EventKind::kRecovJournalAppend: return "recov_journal_append";
    case EventKind::kRecovJournalTorn: return "recov_journal_torn";
    case EventKind::kRecovJournalCorrupt: return "recov_journal_corrupt";
    case EventKind::kRecovBootScan: return "recov_boot_scan";
    case EventKind::kRecovSlotVerdict: return "recov_slot_verdict";
    case EventKind::kRecovGoldenReload: return "recov_golden_reload";
    case EventKind::kRecovQuarantine: return "recov_quarantine";
    case EventKind::kRecovReplay: return "recov_replay";
    case EventKind::kRecovShed: return "recov_shed";
    case EventKind::kRecovReady: return "recov_ready";
  }
  return "?";
}

Track event_track(EventKind k) {
  switch (k) {
    case EventKind::kAxiRead:
    case EventKind::kAxiWrite:
      return Track::kBus;
    case EventKind::kAxisBeat:
      return Track::kStream;
    case EventKind::kIcapWord:
    case EventKind::kIcapFrame:
    case EventKind::kIcapDesync:
    case EventKind::kIcapReadWord:
      return Track::kIcap;
    case EventKind::kDmaMm2sStart:
    case EventKind::kDmaMm2sDone:
    case EventKind::kDmaMm2sError:
    case EventKind::kDmaS2mmStart:
    case EventKind::kDmaS2mmDone:
      return Track::kDma;
    case EventKind::kSvcSubmit:
    case EventKind::kSvcAdmit:
    case EventKind::kSvcReject:
    case EventKind::kSvcCoalesce:
    case EventKind::kSvcShed:
    case EventKind::kSvcCancel:
    case EventKind::kSvcDeadlineMiss:
    case EventKind::kSvcDispatch:
    case EventKind::kSvcComplete:
    case EventKind::kSvcFail:
    case EventKind::kSvcHang:
    case EventKind::kDprStage:
      return Track::kService;
    case EventKind::kScrubUpset:
    case EventKind::kScrubPass:
    case EventKind::kScrubDetect:
    case EventKind::kScrubRewrite:
    case EventKind::kScrubRewriteFail:
    case EventKind::kScrubReload:
    case EventKind::kScrubReadFail:
      return Track::kScrub;
    case EventKind::kIrqRaise:
    case EventKind::kIrqLower:
    case EventKind::kIrqClaim:
    case EventKind::kIrqComplete:
      return Track::kIrq;
    case EventKind::kNetTx:
    case EventKind::kNetRx:
    case EventKind::kNetDrop:
    case EventKind::kNetDup:
    case EventKind::kNetCorrupt:
    case EventKind::kNetReorder:
    case EventKind::kNetFetchStart:
    case EventKind::kNetFetchDone:
    case EventKind::kNetFetchFail:
    case EventKind::kNetRetry:
    case EventKind::kNetBreakerOpen:
    case EventKind::kNetBreakerClose:
    case EventKind::kNetCacheHit:
    case EventKind::kNetCacheMiss:
    case EventKind::kNetCachePoison:
    case EventKind::kNetFallback:
    case EventKind::kNetDeliver:
      return Track::kNet;
    case EventKind::kSlotPlace:
    case EventKind::kSlotPreempt:
    case EventKind::kSlotCapture:
    case EventKind::kSlotRestore:
    case EventKind::kSlotResume:
    case EventKind::kSlotRollback:
    case EventKind::kSlotShed:
    case EventKind::kSlotSwapHang:
    case EventKind::kSlotComplete:
    case EventKind::kSlotDeadlineMiss:
      return Track::kSlot;
    case EventKind::kPlaceRequest:
    case EventKind::kPlaceRelocate:
    case EventKind::kPlaceRelocHit:
    case EventKind::kPlaceReject:
    case EventKind::kPlaceMigrate:
    case EventKind::kPlaceCompact:
    case EventKind::kPlaceSpan:
    case EventKind::kPlaceSpanFree:
      return Track::kPlace;
    case EventKind::kRecovPowerLoss:
    case EventKind::kRecovJournalAppend:
    case EventKind::kRecovJournalTorn:
    case EventKind::kRecovJournalCorrupt:
    case EventKind::kRecovBootScan:
    case EventKind::kRecovSlotVerdict:
    case EventKind::kRecovGoldenReload:
    case EventKind::kRecovQuarantine:
    case EventKind::kRecovReplay:
    case EventKind::kRecovShed:
    case EventKind::kRecovReady:
      return Track::kRecovery;
  }
  return Track::kBus;
}

std::string_view track_name(Track t) {
  switch (t) {
    case Track::kBus: return "AXI Bus";
    case Track::kStream: return "AXI-Stream";
    case Track::kIcap: return "ICAP";
    case Track::kDma: return "DMA";
    case Track::kService: return "ReconfigService";
    case Track::kScrub: return "Scrub";
    case Track::kIrq: return "IRQ";
    case Track::kNet: return "Net";
    case Track::kSlot: return "Slot";
    case Track::kPlace: return "Place";
    case Track::kRecovery: return "Recovery";
  }
  return "?";
}

bool duration_in_a2(EventKind k) {
  switch (k) {
    case EventKind::kAxiRead:
    case EventKind::kAxiWrite:
    case EventKind::kDmaMm2sDone:
    case EventKind::kDmaS2mmDone:
    case EventKind::kScrubPass:
    case EventKind::kNetFetchDone:
    case EventKind::kNetDeliver:
    case EventKind::kSlotCapture:
    case EventKind::kSlotRestore:
    case EventKind::kSlotComplete:
    case EventKind::kRecovReady:
      return true;
    case EventKind::kAxisBeat:
    case EventKind::kIcapWord:
    case EventKind::kIcapFrame:
    case EventKind::kIcapDesync:
    case EventKind::kIcapReadWord:
    case EventKind::kDmaMm2sStart:
    case EventKind::kDmaMm2sError:
    case EventKind::kDmaS2mmStart:
    case EventKind::kSvcSubmit:
    case EventKind::kSvcAdmit:
    case EventKind::kSvcReject:
    case EventKind::kSvcCoalesce:
    case EventKind::kSvcShed:
    case EventKind::kSvcCancel:
    case EventKind::kSvcDeadlineMiss:
    case EventKind::kSvcDispatch:
    case EventKind::kSvcComplete:
    case EventKind::kSvcFail:
    case EventKind::kSvcHang:
    case EventKind::kDprStage:
    case EventKind::kScrubUpset:
    case EventKind::kScrubDetect:
    case EventKind::kScrubRewrite:
    case EventKind::kScrubRewriteFail:
    case EventKind::kScrubReload:
    case EventKind::kScrubReadFail:
    case EventKind::kIrqRaise:
    case EventKind::kIrqLower:
    case EventKind::kIrqClaim:
    case EventKind::kIrqComplete:
    case EventKind::kNetTx:
    case EventKind::kNetRx:
    case EventKind::kNetDrop:
    case EventKind::kNetDup:
    case EventKind::kNetCorrupt:
    case EventKind::kNetReorder:
    case EventKind::kNetFetchStart:
    case EventKind::kNetFetchFail:
    case EventKind::kNetRetry:
    case EventKind::kNetBreakerOpen:
    case EventKind::kNetBreakerClose:
    case EventKind::kNetCacheHit:
    case EventKind::kNetCacheMiss:
    case EventKind::kNetCachePoison:
    case EventKind::kNetFallback:
    case EventKind::kSlotPlace:
    case EventKind::kSlotPreempt:
    case EventKind::kSlotResume:
    case EventKind::kSlotRollback:
    case EventKind::kSlotShed:
    case EventKind::kSlotSwapHang:
    case EventKind::kSlotDeadlineMiss:
    case EventKind::kPlaceRequest:
    case EventKind::kPlaceRelocate:
    case EventKind::kPlaceRelocHit:
    case EventKind::kPlaceReject:
    case EventKind::kPlaceMigrate:
    case EventKind::kPlaceCompact:
    case EventKind::kPlaceSpan:
    case EventKind::kPlaceSpanFree:
    case EventKind::kRecovPowerLoss:
    case EventKind::kRecovJournalAppend:
    case EventKind::kRecovJournalTorn:
    case EventKind::kRecovJournalCorrupt:
    case EventKind::kRecovBootScan:
    case EventKind::kRecovSlotVerdict:
    case EventKind::kRecovGoldenReload:
    case EventKind::kRecovQuarantine:
    case EventKind::kRecovReplay:
    case EventKind::kRecovShed:
      return false;
  }
  return false;
}

}  // namespace rvcap::obs
