# ctest script (included from tests/CMakeLists.txt via
# TEST_INCLUDE_FILES): tests that read driver counters over the PerfRegs
# window keep their subsystem label and gain `telemetry`.
set_tests_properties(
  ServiceFixture.MailboxMirrorsCounters
  PROPERTIES LABELS "telemetry")
set_tests_properties(
  BitstreamDelivery.LinkOutageFallsBackToSdAndJournalsIt
  BitstreamDelivery.TotalOutageWithoutFallbackFailsCleanly
  PROPERTIES LABELS "net;telemetry")
set_tests_properties(
  ScrubFixture.TelemetryVisibleThroughPerfRegs
  ScrubDemo.ContinuousUpsetsRepairedUnderLiveTraffic
  PROPERTIES LABELS "seu;telemetry")
set_tests_properties(
  SlotJournal.MailboxPublishesSlotIdAndSwapCounters
  SlotTelemetry.PerSlotServiceCountersDoNotCollide
  SlotTelemetry.StreamWireBeatsKeepTheirPerfRegsOrder
  PROPERTIES LABELS "slots;telemetry")
set_tests_properties(
  PlaceMailbox.PublishesPlacementCountersAndFragmentation
  PROPERTIES LABELS "place;telemetry")
set_tests_properties(
  PolicyFixture.MailboxPublishesRecoveryOutcome
  RecoveryIntegration.RecoveryTrackTracesEmitted
  PROPERTIES LABELS "recovery;telemetry")
