package vertex

// The fixtures the external driver tests (driver_test.go) share with the
// engine-level ones.
var (
	SumProgram = sumProgram
	RingGraph  = ringGraph
)
