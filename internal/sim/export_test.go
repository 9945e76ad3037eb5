package sim

// Fixtures shared with the external test package (oracle_test.go), which
// imports internal/refmodel — a package that itself imports sim.
var (
	BaseCfg     = testCfg
	TightCfg    = tightCfg
	BurstCfg    = burstCfg
	KernelSets  = testKernelSets
	MultiPhases = multiPhases
)
