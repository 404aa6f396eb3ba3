package risk

// The fixtures the external end-to-end tests (mpc_test.go) share with the
// plaintext ones.
var (
	SmallENNet  = smallENNet
	SmallEGJNet = smallEGJNet
)
