//go:build race

package core

// raceEnabled mirrors the test binary's -race flag: the exhaustive
// sweeps trim under it, as they do under -short.
const raceEnabled = true
