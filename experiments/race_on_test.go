//go:build race

package experiments

// raceEnabled mirrors the test binary's -race flag: the comm-cost
// ratchet, a deterministic count, skips under it.
const raceEnabled = true
