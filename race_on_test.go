//go:build race

package twoldag

// raceEnabled mirrors the test binary's -race flag: heap ceilings skip
// under it, since its allocator inflates HeapAlloc.
const raceEnabled = true
