//go:build !amd64

package pow

// useKernel is false off amd64: the portable lane is the only one.
var useKernel = false

func blockSHANI(h *[8]uint32, p []byte) { panic("pow: no SHA-NI kernel on this GOARCH") }

func block2SHANI(h *[8]uint32, a, b []byte, da, db *[8]uint32) {
	panic("pow: no SHA-NI kernel on this GOARCH")
}
