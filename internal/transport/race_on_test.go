//go:build race

package transport

// raceEnabled mirrors the test binary's -race flag: the detector's
// allocator inflates HeapAlloc, so heap ceilings skip under it.
const raceEnabled = true
