# ctest script (included from tests/CMakeLists.txt via
# TEST_INCLUDE_FILES): tests in other binaries that verify partitions
# with the frame-ECC check keep their labels and gain `seu`, so the SEU
# gate covers every user of the one scrubber.
set_tests_properties(
  ScrubFixture.CleanPartitionScrubsClean
  ScrubFixture.DetectsInjectedUpset
  ScrubFixture.RepairRestoresPartition
  ScrubFixture.RepairSkippedWhenClean
  ScrubFixture.UpsetInjectionBoundsChecked
  Combos.ScrubRelocatedPartition
  PROPERTIES LABELS "seu")
set_tests_properties(
  FaultRecoveryFixture.CorruptedRepairReloadLeavesPartitionInvalid
  PROPERTIES LABELS "faults;seu")
set_tests_properties(
  FaultRecoveryFixture.FailedRecoveryVerifyRetriesUntilClean
  PROPERTIES LABELS "faults;seu;telemetry")
