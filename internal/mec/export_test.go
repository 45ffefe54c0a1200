package mec

// RandomScenarioForTest exposes randomScenario to the external store
// test, which also builds internal/workload shapes.
var RandomScenarioForTest = randomScenario
