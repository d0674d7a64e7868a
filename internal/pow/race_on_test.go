//go:build race

package pow

// raceEnabled mirrors the test binary's -race flag: the detector's
// instrumentation allocates, so allocation guards skip under it.
const raceEnabled = true
